"""``python -m oddnil``: the command-line interface of ``oddnil.cli``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
