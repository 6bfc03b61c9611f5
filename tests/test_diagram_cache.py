"""The named thick diagrams of onh are lru_caches, built once per process.

Every check that names a diagram shares one OnhElement, and with it the
plan its first evaluation makes.  That is sound only while an element is a
value.  For every argument that ``verify all`` and the ``thick_calculus``
benchmark's checks use, these tests state that a repeated call returns
the same element, and that after the whole run each element the runs
shared still has the words of its uncached body, in the same key order.
"""

import ast
import pathlib

import pytest

from oddnil import oddops, onh, verify

CACHED = ("idempotent_e", "d_element", "crossing_element", "up_splitter",
          "sigma_seq", "lambda_seq", "sigma_part", "lambda_part")


def _thick_calculus_checks():
    """The (check id, params) pairs of benchmarks/workloads.py's _THICK."""
    path = pathlib.Path(__file__).resolve().parent.parent / "benchmarks" / "workloads.py"
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["_THICK"]:
            return ast.literal_eval(node.value)
    raise AssertionError("benchmarks/workloads.py has no _THICK")


@pytest.fixture(scope="module")
def shared():
    """{(name, args): [the element of each call]} over one cold run of
    verify all and of the thick_calculus checks."""
    calls = {}
    oddops.clear_caches()
    with pytest.MonkeyPatch.context() as mp:
        for name in CACHED:
            def record(*args, _name=name, _cached=getattr(onh, name)):
                out = _cached(*args)
                calls.setdefault((_name, args), []).append(out)
                return out

            mp.setattr(onh, name, record)
        reports = verify.run_many(verify.check_ids())
        reports += [verify.run_check(cid, params) for cid, params in _thick_calculus_checks()]
    assert verify.all_match_expected(reports)
    return calls


def test_the_runs_build_every_named_diagram(shared):
    assert {name for name, _ in shared} == set(CACHED)


def test_every_call_of_a_named_diagram_returns_one_element(shared):
    for (name, args), elements in shared.items():
        assert all(el is elements[0] for el in elements), (name, args)
        assert getattr(onh, name)(*args) is getattr(onh, name)(*args), (name, args)


def test_every_shared_diagram_has_the_words_of_its_body_after_the_runs(shared):
    """Each element the runs shared was evaluated and multiplied through
    every check that named it; its words and their key order are still
    those of its uncached body (__wrapped__), so the cache holds what a
    fresh build gives and no check mutated a value."""
    for (name, args), (element, *_) in shared.items():
        fresh = getattr(onh, name).__wrapped__(*args)
        assert element.strands == fresh.strands, (name, args)
        assert list(element.combo.items()) == list(fresh.combo.items()), (name, args)
