"""The Schubert-basis checks of ``verify`` against their earlier bodies
(``reference_verify``): the same status, instance count (an earlier
body's notes of idempotent counts are instances now) and multiset of
failure triples, on the real sigma/lambda families, with one
lambda negated or one sigma shifted (so the family checks fail), and with
the sentinels' crossing and projector made trivial (so the sentinels find
no witness).
``eps_relations``, which now forms each product of its relations once, is
compared with the body that formed them afresh: the same status, instance
count and ordered failure list, at the defaults and with h_3 negated.
``matrix_iso`` proves its matrix units by associativity from
``nil_orth``'s blocks and one absorption per lambda, so it yields other
instances than the earlier sweep of every product; on each variant, at
a <= 3, the two are compared by their verdict alone.

A ``verify`` check yields its instances, and the Morita contracts yield
them a block at a time, so its side is read through ``verify._tally``, the
loop ``run_check`` counts and compares them with; the earlier bodies fill
the ``_Sweep`` accumulator they were written against.  Besides the
multiset, the family checks are compared by the order of their failures,
which decides the 32 that ``--json`` keeps: the earlier bodies' order, or
for the two decompositions, whose blocks run in a different order, the
earlier failures sorted into the order the blocks run in.  A wrong value in
one entry of one block is reported as exactly that instance, whether it is
a sigma value or a lambda value at a nonzero input.  No contract evaluates
an element on a zero polynomial: linearity gives zero there."""

import ast
import random
from collections import Counter
from math import factorial

import pytest

import reference_verify as R
from oddnil import combinat, oddsym, onh
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
# certificates that prove what their earlier body swept: the same verdict,
# from other instances
CERTIFICATES = {"matrix_iso"}


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


def _shift_one_sigma(monkeypatch):
    """sigma at the all-zero index plus sigma at (1, 0, ..., 0), or at the
    partition (1,).  Some of its failures are off the diagonal (e_kk e_00
    becomes e_k0, not 0, for that neighbour k), so they pin which index
    comes first in each label."""
    seq, part = onh.sigma_seq, onh.sigma_part
    monkeypatch.setattr(onh, "sigma_seq", lambda l: seq(l) + seq((1,) + l[1:]) if l and not any(l) else seq(l))
    monkeypatch.setattr(onh, "sigma_part", lambda al, a, b: part(al, a, b) + part((1,), a, b) if not al else part(al, a, b))


def _trivial_sentinel_parts(monkeypatch):
    monkeypatch.setattr(onh, "cross", lambda strands, r: onh.OnhElement.identity(strands))
    monkeypatch.setattr(onh, "idempotent_e", onh.OnhElement.identity)


VARIANTS = {
    "real": None,
    "one lambda negated": _negate_one_lambda,
    "trivial sentinels": _trivial_sentinel_parts,
    "one sigma shifted": _shift_one_sigma,
}
RUNS = [
    (check_id, params, variant)
    for variant in VARIANTS
    for check_id, params in CASES
    if variant != "trivial sentinels" or check_id in SENTINELS
]


def _run(fn, params):
    """(passed, instances, failure triples in order) of a ``verify`` check or
    of its earlier body.  An earlier body noted its idempotent counts, which
    ``verify`` now compares: each note counts as an instance."""
    out = fn(dict(params), random.Random(0))
    if isinstance(out, R._Sweep):
        return out.passed, out.instances + len(out.notes), out.failures
    instances, failures = V._tally(out)
    return not failures, instances, failures


def _outcome(fn, check_id, params):
    """The outcome with the failures as a multiset, and the failures in order."""
    passed, instances, failures = _run(fn, dict(V.default_params(check_id), **params))
    return (passed, instances, Counter(failures)), failures


def _in_verify_order(check_id, params, failures):
    """The earlier body's failures in the order ``verify`` reports them.  The
    decompositions run their matrix-unit blocks before the sum block, and
    eaeb_decomposition's blocks run beta before alpha; the other checks
    report in the earlier bodies' order."""
    if check_id == "identity_decomposition":
        def key(label):  # ("e_l e_l'", a, l, l', i) or ("sum e_l = 1", a, i)
            return (label[1], label[0].startswith("sum")) + label[2:]
    elif check_id == "eaeb_decomposition":
        pairs = params["pairs"]

        def key(label):  # ("e_beta e_alpha", a, b, alpha, beta, i) or ("sum ...", a, b, i)
            a, b = label[1:3]
            if label[0].startswith("sum"):
                return (pairs.index((a, b)), True, label[3])
            order = combinat.partitions_in_box(a, b)
            return (pairs.index((a, b)), False, order.index(label[4]), order.index(label[3]), label[5])
    else:
        return failures
    return sorted(failures, key=lambda triple: key(ast.literal_eval(triple[0])))


@pytest.mark.parametrize("check_id,params,variant", RUNS)
def test_check_matches_its_earlier_body(monkeypatch, check_id, params, variant):
    if VARIANTS[variant]:
        VARIANTS[variant](monkeypatch)
    fn = V.REGISTRY[check_id].fn
    new, new_order = _outcome(fn, check_id, params)
    old, old_order = _outcome(getattr(R, fn.__name__), check_id, params)
    if check_id in CERTIFICATES:
        assert new[0] == old[0]
    else:
        assert new == old
        assert new_order == _in_verify_order(check_id, params, old_order)
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


class _OneValueOff:
    """An element whose value on the polynomial ``at`` is moved by ``off``."""

    def __init__(self, element, at, off):
        self.element, self.at, self.off = element, at, off

    def evaluate(self, p):
        value = self.element.evaluate(p)
        return value + self.off if p == self.at else value


def test_one_wrong_sigma_value_is_reported_as_exactly_that_instance(monkeypatch):
    """sigma_j's value at p_i is moved by sigma_k(p_m).  Since lambda_k'
    sigma_k = delta_kk' e_a, only lambda_k sigma_j at p_i changes, from 0 to
    e_a(p_m): one entry of one block differs, and that instance alone is
    reported, with its full label and both values."""
    a = 3
    sq = combinat.enumerate_sq(a)
    basis = onh.schubert_basis_list(a)
    ea = onh.idempotent_e(a)
    m = next(m for m, p in enumerate(basis) if ea.evaluate(p))
    j, k, i = sq[1], sq[4], 2
    sigma_seq = onh.sigma_seq
    off = sigma_seq(k).evaluate(basis[m])
    monkeypatch.setattr(onh, "sigma_seq",
                        lambda l: _OneValueOff(sigma_seq(l), basis[i], off) if l == j else sigma_seq(l))
    report = V.run_check("nil_orth", {"a_list": [a]})
    assert report.status == "fail"
    assert report.instances == factorial(a) ** 3
    assert report.details == [(str(("lambda sigma", a, k, j, i)), "0", str(ea.evaluate(basis[m])))]
    assert _run(R.check_nil_orth, {"a_list": [a]})[2] == report.details


@pytest.mark.parametrize("check_id,params", [
    ("nil_orth", {"a_list": [2, 3]}),
    ("oval", {"pairs": SMALL_PAIRS}),
    ("identity_decomposition", {"a_list": [2, 3]}),
    ("eaeb_decomposition", {"pairs": SMALL_PAIRS}),
    ("matrix_iso", {"a_list": [2, 3]}),
])
def test_the_morita_contracts_evaluate_no_zero_polynomial(monkeypatch, check_id, params):
    """An element sends zero to zero, so _orthogonality and _decomposition
    leave a zero input unevaluated, and matrix_iso's absorptions evaluate
    their sides only on the Schubert basis; every evaluate call gets a
    nonzero polynomial."""
    evaluate = onh.OnhElement.evaluate
    inputs = []
    monkeypatch.setattr(onh.OnhElement, "evaluate", lambda self, p: inputs.append(bool(p)) or evaluate(self, p))
    assert V.run_check(check_id, params).status == "pass"
    assert inputs and all(inputs)


@pytest.mark.parametrize("check_id,family,label", [
    ("nil_orth", (3,), lambda j, k, i: ("lambda sigma", 3, k, j, i)),
    ("oval", (2, 2), lambda j, k, i: ("lambda_beta sigma_alpha", 2, 2, j, k, i)),
])
def test_one_wrong_lambda_value_at_a_nonzero_input_is_reported_as_exactly_that_instance(
        monkeypatch, check_id, family, label):
    """lambda_k's value on v = sigma_j(p_i), which is nonzero, is moved by 1.
    No other sigma value equals v, so only lambda_k sigma_j at p_i changes:
    one entry of one block differs, and that instance alone is reported, as
    by the earlier loop, which evaluates lambda_k on every sigma value."""
    sig, lam, basis = V._part_family(*family) if len(family) == 2 else V._seq_family(*family)
    j, k = list(sig)[1], list(lam)[2]
    i, v = next((i, v) for i, v in enumerate(sig[j].evaluate(p) for p in basis) if v)
    assert [w for s in sig.values() for p in basis if (w := s.evaluate(p)) == v] == [v]
    name = "lambda_seq" if len(family) == 1 else "lambda_part"
    real = getattr(onh, name)
    one = v.constant(v.nvars, 1)
    monkeypatch.setattr(onh, name, lambda *args: _OneValueOff(real(*args), v, one) if args[0] == k else real(*args))
    params = {"a_list": list(family)} if len(family) == 1 else {"pairs": [family]}
    report = V.run_check(check_id, params)
    assert report.status == "fail"
    # j != k, so the wanted value is zero
    assert report.details == [(str(label(j, k, i)), "0", str(lam[k].evaluate(v) + one))]
    assert _run(getattr(R, V.REGISTRY[check_id].fn.__name__), params)[2] == report.details
