"""oddnil: exact computations in the odd nilHecke algebra.

Skew-commuting polynomials, odd divided differences, odd symmetric
polynomials with Schur/Schubert bases, thick-calculus idempotents, and
cyclotomic quotients over exact integer arithmetic, together with a
registry of mechanically checkable identities and a CLI.
"""

__version__ = "0.1.0"

__all__ = [
    "lincomb",
    "qgrade",
    "combinat",
    "skewpoly",
    "oddops",
    "oddsym",
    "onh",
    "zlinalg",
    "cyclotomic",
    "evenoracle",
    "verify",
    "cli",
]
