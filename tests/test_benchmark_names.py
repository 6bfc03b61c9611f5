"""The library names the benchmark reaches for still exist.

``benchmarks/tracer.py`` wraps library callables by their dotted names and
reads ``oddops._dd_cache``; ``benchmarks/workloads.py`` calls the library
through its modules.  A renamed callable fails there only when the
benchmark's own suite runs, so these tests state the names here.  The
tracer is read and executed from its source, so no bytecode is written
under ``benchmarks/``.
"""

import ast
import importlib
import pathlib
import types

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH = ROOT / "benchmarks"


def _tracer():
    path = BENCH / "tracer.py"
    module = types.ModuleType("tracer")
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


def test_every_traced_name_is_an_attribute_of_its_owner():
    tracer = _tracer()
    for span, dotted_list in tracer._NAMED.items():
        for dotted in dotted_list:
            owner, attr = tracer._resolve(dotted)
            assert attr in vars(owner), "%s (span %s) is gone" % (dotted, span)
    for modname in tracer.WHOLE_MODULES:
        assert tracer._public_callables(modname), modname


def test_the_dd_memo_the_tracer_sizes_exists():
    from oddnil import oddops

    assert isinstance(oddops._dd_cache, dict)


def test_every_library_attribute_the_benchmark_names_exists():
    for path in sorted(BENCH.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        modules = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "oddnil":
                for alias in node.names:
                    modules[alias.asname or alias.name] = importlib.import_module("oddnil." + alias.name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
                assert hasattr(modules[node.value.id], node.attr), "%s: %s.%s" % (path.name, node.value.id, node.attr)
