"""Differential tests of verify's table of parameter kinds against the
heuristics it replaced (tests/reference_params.py).

The two agree everywhere except where the table fixes a named fault: a
flag that was read as another or ignored, mod2's quotient pairs, which
the envelope now bounds, and the --max-rank fallbacks that ran a sweep
above the rank.
"""

import itertools

import pytest

import reference_params as ref
from oddnil import verify as V

_GRID = list(itertools.product(
    (None, 0, 2, 3, 6, 7),  # --a
    (None, 1, 3),  # --b
    (None, 3, 5, 7),  # --N
    (None, 4, 14),  # --dmax
))

# parameters no flag, envelope or rank bounds: only ea_standard's number of
# random boxes, which the benchmark sets (benchmarks/workloads.py); any other
# parameter without an Axis is one nothing sets, so it belongs in its check
_SWEEP_SIZES = {"random_boxes"}

# (check, r) where the old fallback ran a sweep above --max-rank r, with the
# parameter it kept non-empty; now that sweep is empty and reports skipped
_FALLBACKS = {
    ("pieri", 2): "a_list",
    ("defining_relations", 1): "a_list",
    ("pieri", 1): "a_list",
    ("nil_orth", 1): "a_list",
    ("identity_decomposition", 1): "a_list",
    ("center", 1): "a_list",
    ("matrix_iso", 1): "a_list",
    ("schur_box", 1): "pairs",
}


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except ValueError:
        return ValueError


def _old_verdict(cid, params):
    probe = dict(V.default_params(cid), **params)
    if cid in ref._AN_PAIR_CHECKS:
        probe["pair_kind"] = "aN"
    return ref._envelope_violation(probe)


def _new_verdict(cid, params):
    return V._envelope_violation(cid, dict(V.default_params(cid), **params))


def _fixed(cid, a, b, n, old):
    """The new mapping where the table fixes how the old one read a flag,
    or None where the two must agree."""
    if old is ValueError:
        return None
    if cid in ref._AN_PAIR_CHECKS and b is not None:
        return ValueError  # --b was read as N
    if cid in ref._AB_PAIR_CHECKS and n is not None:
        return ValueError  # --N was read as b, or ignored
    if cid == "mod2" and n is not None:
        # --N was ignored; with --a it now sets the quotient pair
        return ValueError if a is None else dict(old, quotient_pairs=[(a, n)])
    return None


@pytest.mark.parametrize("cid", V.check_ids())
def test_flags_map_as_before_except_the_fixed_faults(cid):
    fixes = 0
    for a, b, n, dmax in _GRID:
        old = _outcome(ref.params_from_flags, cid, a=a, b=b, n_param=n, dmax=dmax)
        new = _outcome(V.params_from_flags, cid, a=a, b=b, n_param=n, dmax=dmax)
        want = _fixed(cid, a, b, n, old)
        case = (cid, a, b, n, dmax, old, new)
        if want is None:
            assert new == old, case
        else:
            fixes += 1
            assert new == want, case
        if new is ValueError:
            continue
        if want is None:
            assert _new_verdict(cid, new) == _old_verdict(cid, old), case
        else:
            # mod2's quotient pair: old rules first, then a <= 5, N <= 6
            verdict = _old_verdict(cid, old)
            if verdict is None and (a > V.ENVELOPE["a"] or n > V.ENVELOPE["N"]):
                verdict = "pair %r exceeds a <= 5, N <= 6" % ((a, n),)
            assert _new_verdict(cid, new) == verdict, case
    fixable = cid in ref._AN_PAIR_CHECKS | ref._AB_PAIR_CHECKS | {"mod2"}
    assert bool(fixes) == fixable


@pytest.mark.parametrize("cid", V.check_ids())
@pytest.mark.parametrize("r", range(1, 6))
def test_max_rank_clamps_as_before_except_the_fallbacks(cid, r):
    old = ref.params_for_max_rank(cid, r)
    new = V.params_for_max_rank(cid, r)
    key = _FALLBACKS.get((cid, r))
    if key is None:
        assert new == old
    else:
        assert len(old[key]) == 1 and new == dict(old, **{key: []})
    assert _new_verdict(cid, new) == _old_verdict(cid, old)


def test_every_registry_parameter_is_declared_or_a_sweep_size():
    for cid in V.check_ids():
        axes = V.check_axes(cid)
        for name in V.default_params(cid):
            assert name in axes or name in _SWEEP_SIZES, (cid, name)
        assert V._envelope_violation(cid, V.default_params(cid)) is None, cid


def test_quotient_pairs_are_bounded_like_other_a_n_pairs():
    r = V.run_check("mod2", {"quotient_pairs": [(2, 7)]})
    assert r.status == "skipped"
    assert r.details[0][2] == "pair (2, 7) exceeds a <= 5, N <= 6"


def test_matrix_iso_is_bounded_at_thickness_five():
    """matrix_iso takes the shared a <= 5 of the other Morita checks."""
    r = V.run_check("matrix_iso", {"a_list": [6]})
    assert (r.status, r.instances) == ("skipped", 0)
    assert r.details[0][2] == "a_list=[6] exceeds a <= 5"
    assert V.check_axes("matrix_iso") == {"a_list": V.A_LIST}
    assert V._envelope_violation("matrix_iso", {"a_list": [5]}) is None
    assert V.params_from_flags("matrix_iso", a=5) == {"a_list": [5]}


def test_run_many_takes_params_per_check():
    reports = V.run_many(["da_values", "add_step"], {"add_step": {"a_max": 2}}, parallel=2)
    assert [r.params for r in reports] == [V.default_params("da_values"), {"a_max": 2}]
    assert [r.status for r in reports] == ["pass", "pass"]
