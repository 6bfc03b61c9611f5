"""The Schubert-basis checks of ``verify`` against their earlier bodies
(``reference_verify``): the same status, instance count, notes and
multiset of failure triples, on the real sigma/lambda families, with one
lambda negated (so the family checks fail), and with the sentinels'
crossing and projector made trivial (so the sentinels find no witness).
``eps_relations``, which now forms each product of its relations once, is
compared with the body that formed them afresh: the same status, instance
count and ordered failure list, at the defaults and with h_3 negated.
``matrix_iso``, whose matrix-unit sweep now evaluates each e_jk once per
distinct input, is compared with the earlier loops in the same way, at the
defaults and with one lambda negated.

A ``verify`` check yields its instances, so its side is read through
``verify._tally``, the loop ``run_check`` counts and compares them with;
the earlier bodies fill the ``_Sweep`` accumulator they were written
against."""

import random
from collections import Counter

import pytest

import reference_verify as R
from oddnil import oddsym, onh
from oddnil import verify as V

SMALL_PAIRS = [(1, 1), (2, 1), (1, 2), (3, 1), (1, 3), (2, 2)]

CASES = [
    ("nil_orth", {"a_list": [2, 3]}),
    ("identity_decomposition", {"a_list": [2, 3]}),
    ("matrix_iso", {"a_list": [2, 3]}),
    ("oval", {"pairs": SMALL_PAIRS}),
    ("eaeb_decomposition", {"pairs": SMALL_PAIRS}),
    ("sentinel_mirror_ea_slide", {"a_max": 3}),
    ("sentinel_x1sq_central", {"a": 2}),
    ("sentinel_x1sq_central", {"a": 3}),
]
SENTINELS = {"sentinel_mirror_ea_slide", "sentinel_x1sq_central"}


def _negate_at_zero(fn):
    """fn with its value negated at the all-zero index: the sequence
    (0, ..., 0) for lambda_seq, the empty partition for lambda_part."""

    def negated(index, *rest):
        out = fn(index, *rest)
        return out if any(index) else out.scale(-1)

    return negated


def _negate_one_lambda(monkeypatch):
    for name in ("lambda_seq", "lambda_part"):
        monkeypatch.setattr(onh, name, _negate_at_zero(getattr(onh, name)))


def _trivial_sentinel_parts(monkeypatch):
    monkeypatch.setattr(onh, "cross", lambda strands, r: onh.OnhElement.identity(strands))
    monkeypatch.setattr(onh, "e_embedded", lambda a, offset, n: onh.OnhElement.identity(n))


VARIANTS = {"real": None, "one lambda negated": _negate_one_lambda, "trivial sentinels": _trivial_sentinel_parts}
RUNS = [
    (check_id, params, variant)
    for variant in VARIANTS
    for check_id, params in CASES
    if variant != "trivial sentinels" or check_id in SENTINELS
]


def _run(fn, params):
    """(passed, instances, notes, failure triples in order) of a ``verify``
    check or of its earlier body."""
    out = fn(dict(params), random.Random(0))
    if isinstance(out, R._Sweep):
        return out.passed, out.instances, out.notes, out.failures
    instances, failures, notes = V._tally(out)
    return not failures, instances, notes, failures


def _outcome(fn, check_id, params):
    passed, instances, notes, failures = _run(fn, dict(V.default_params(check_id), **params))
    return passed, instances, notes, Counter(failures)


@pytest.mark.parametrize("check_id,params,variant", RUNS)
def test_check_matches_its_earlier_body(monkeypatch, check_id, params, variant):
    if VARIANTS[variant]:
        VARIANTS[variant](monkeypatch)
    fn = V.REGISTRY[check_id].fn
    new = _outcome(fn, check_id, params)
    old = _outcome(getattr(R, fn.__name__), check_id, params)
    assert new == old
    passed, instances = new[:2]
    assert instances > 0
    if check_id in SENTINELS:
        # a sentinel passes exactly when it finds no witness
        assert passed == (variant == "trivial sentinels")
    else:
        assert passed == (variant == "real")


def _negate_h3(monkeypatch):
    complete = oddsym.complete
    monkeypatch.setattr(oddsym, "complete", lambda k, a: complete(k, a).scale(-1) if k == 3 else complete(k, a))


@pytest.mark.parametrize("negate_h3", [False, True])
def test_eps_relations_with_shared_products_matches_its_earlier_body(monkeypatch, negate_h3):
    if negate_h3:
        _negate_h3(monkeypatch)
    params = V.default_params("eps_relations")
    new, old = (_run(fn, params) for fn in (V.check_eps_relations, R.check_eps_relations))
    assert new == old
    passed, instances = new[:2]
    assert instances > 0
    assert passed == (not negate_h3)


@pytest.mark.parametrize("negate", [False, True])
def test_matrix_units_with_shared_evaluations_match_the_earlier_loops(monkeypatch, negate):
    if negate:
        _negate_one_lambda(monkeypatch)
    params = V.default_params("matrix_iso")
    new, old = (_run(fn, params) for fn in (V.check_matrix_iso, R.check_matrix_iso))
    assert new == old
    passed, instances = new[:2]
    assert instances > 0
    assert passed == (not negate)
