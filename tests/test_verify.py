import ast
import json
from math import factorial

import pytest

from oddnil import verify as V


def test_registry_contains_the_expected_checks():
    ids = set(V.check_ids())
    required = {
        "defining_relations", "e_h_relation", "eps_relations", "pieri",
        "owl_corollary", "da_values", "crossing_slide", "da_slide",
        "ea_standard", "ea_idem", "splitter_assoc", "oval", "dapb",
        "shuffle", "staircase_vanish", "add_step", "reorder_revstair",
        "nil_orth", "identity_decomposition", "eaeb_decomposition",
        "ea_eone", "center", "jacobi_trudi_failure", "schubert_basis",
        "matrix_iso", "grassmann_recursion", "oh_rank", "schur_box", "mod2",
        "sentinel_mirror_ea_slide", "sentinel_x1sq_central",
    }
    assert required <= ids


def test_unknown_check_raises():
    with pytest.raises(V.UnknownCheckError):
        V.run_check("nosuch")
    with pytest.raises(ValueError):
        V.run_check("da_values", {"bogus": 1})


def test_small_checks_pass():
    for cid in (
        "da_values",
        "crossing_slide",
        "add_step",
        "shuffle",
        "staircase_vanish",
        "reorder_revstair",
        "ea_eone",
    ):
        r = V.run_check(cid)
        assert r.status == "pass", (cid, r.details[:2])
        assert r.instances > 0
        assert r.details == []


def test_sentinels_fail_by_design_with_counterexamples():
    for cid in ("sentinel_mirror_ea_slide", "sentinel_x1sq_central"):
        r = V.run_check(cid)
        assert r.status == "fail"
        assert V.EXPECTED_STATUS[cid] == "fail"
        assert len(r.details) >= 1
        assert len(r.details[0]) == 3  # a concrete (input, expected, actual)


def test_a_failing_element_identity_reports_its_schubert_witness(monkeypatch):
    """An element identity yields its two sides; when they differ, its triple
    names the first Schubert polynomial p_i on which they do, as
    (str(label + (i,)), str(want(p_i)), str(got(p_i)))."""
    from oddnil import onh

    monkeypatch.setattr(onh, "staircase_element", lambda a: onh.OnhElement.zero(a))
    r = V.run_check("ea_standard", {"a_max": 2})
    assert r.status == "fail"
    assert r.instances == 2 + 20  # the e_a statements and the random boxes at a = 2
    assert r.details == [
        ("('e_a = (-1)^C(a,3) x^delta D_a', 1, 0)", "0", "1"),
        ("('e_a = (-1)^C(a,3) x^delta D_a', 2, 1)", "0", "x1"),
    ]


def test_a_failing_random_box_names_its_eps_word(monkeypatch):
    """ea_standard's boxes take f = eps_{k_1} ... eps_{k_r} for a drawn word
    (k_1, ..., k_r); a failing one is labelled (name, a, t, word) and its
    Schubert witness, so the report says which f failed without the seed."""
    from oddnil import onh, oddsym

    drawn = []

    def faulty_box(f, a):
        drawn.append(f)
        return onh.OnhElement.zero(a)

    monkeypatch.setattr(onh, "box", faulty_box)
    r = V.run_check("ea_standard", {"a_max": 3, "random_boxes": 4})
    assert r.status == "fail" and len(r.details) == len(drawn) == 2 * 4
    for (label, _, _), f in zip(r.details, drawn):
        name, a, t, word, _ = ast.literal_eval(label)
        assert name == "e_a f e_a = e_a f" and 0 <= t < 4
        assert all(1 <= k <= a for k in word)
        assert oddsym.elementary_word_value(word, a) == f


def test_owl_corollary_fails_at_a_monomial_whose_w0_sign_is_wrong(monkeypatch):
    """w0 with the wrong sign on the polynomial x1^2 x2 alone breaks
    D(f)^w0 = (-1)^C(a,2) D(f^w0) at f = x1^2 x2, where D_3 is -1.  Only a
    check that applies w0 to that monomial by itself can see the fault, and
    the sweep over monomials names it."""
    from oddnil.skewpoly import apply_w0

    bad = (2, 1, 0)

    def faulty_w0(f):
        image = apply_w0(f)
        return image.scale(-1) if list(f.terms) == [bad] else image

    monkeypatch.setattr(V, "apply_w0", faulty_w0)
    r = V.run_check("owl_corollary")
    assert r.status == "fail"
    assert [label for label, _, _ in r.details] == [str(("D(f)^w0 = (-1)^C(a,2) D(f^w0)", 3, bad))]


def test_owl_corollary_fails_at_a4_when_w0_has_the_wrong_sign_on_the_staircase(monkeypatch):
    """At a = 4, D is zero below half-degree 6, so a wrong w0 sign shows
    only on a monomial of half-degree 6, where D lands in the constants:
    on x^(3,2,1,0), D is +-1 and the flipped sign breaks the corollary."""
    from oddnil.skewpoly import apply_w0

    bad = (3, 2, 1, 0)

    def faulty_w0(f):
        image = apply_w0(f)
        return image.scale(-1) if list(f.terms) == [bad] else image

    monkeypatch.setattr(V, "apply_w0", faulty_w0)
    r = V.run_check("owl_corollary")
    assert r.status == "fail"
    assert [label for label, _, _ in r.details] == [str(("D(f)^w0 = (-1)^C(a,2) D(f^w0)", 4, bad))]


def test_mod2_fails_at_a_pair_whose_skew_product_is_wrong_mod_2(monkeypatch):
    """A skew product x2 * x1 x3 with an even coefficient vanishes mod 2 while
    the product of the reductions does not.  Only a check that multiplies
    those two monomials by themselves can see the fault, and the sweep over
    pairs of monomials names that pair."""
    from oddnil.skewpoly import SkewPolynomial

    left, right = (0, 1, 0), (1, 0, 1)
    product = SkewPolynomial.__mul__

    def faulty_mul(f, g):
        out = product(f, g)
        if isinstance(g, SkewPolynomial) and list(f.terms) == [left] and list(g.terms) == [right]:
            return out.scale(2)
        return out

    monkeypatch.setattr(SkewPolynomial, "__mul__", faulty_mul)
    r = V.run_check("mod2")
    assert r.status == "fail"
    assert [label for label, _, _ in r.details] == [str(("multiply mod 2", 3, left, right))]


def test_a_slice_with_torsion_reports_its_smith_factors(monkeypatch):
    """A slice is torsion-free when its Smith factors are all 1; with its
    last factor doubled, each nonzero slice fails as (str(label), its ones,
    its factors)."""
    from oddnil import cyclotomic

    smith = cyclotomic.smith_invariant_factors

    def doubled_last(rows):
        factors = smith(rows)
        return factors[:-1] + [2 * factors[-1]] if factors else factors

    monkeypatch.setattr(cyclotomic, "smith_invariant_factors", doubled_last)
    r = V.run_check("oh_rank", {"pairs": [(2, 3)]})
    assert r.status == "fail"
    slices = cyclotomic.h_ideal_slices(2, 3, cyclotomic.default_dmax(2, 3))
    assert r.details == [(str(("torsion-free slice", 2, 3, sl.degree)), str([1] * sl.rank),
                          str([1] * (sl.rank - 1) + [2])) for sl in slices if sl.rank]


def test_an_outside_schur_that_does_not_vanish_reports_its_remainder(monkeypatch):
    """s_(2) lies outside the 2 x 1 box of OH_{2,3}; moved by the box Schur
    s_(1,1), it fails as (str(label), zeros, the remainder of s_(1,1)
    modulo its slice)."""
    from oddnil import cyclotomic, oddsym, zlinalg

    schur = oddsym.schur

    def moved(lam, a):
        return schur(lam, a) + schur((1, 1), a) if lam == (2,) else schur(lam, a)

    monkeypatch.setattr(oddsym, "schur", moved)
    r = V.run_check("schur_box", {"pairs": [(2, 3)]})
    assert r.status == "fail"
    top = cyclotomic.h_ideal_slices(2, 3, 4)[-1]
    index = {lam: i for i, lam in enumerate(top.ambient_basis)}
    rem = zlinalg.reduce(top.hermite, zlinalg.row(oddsym.expand_in_elementary(schur((1, 1), 2)), index))
    assert any(rem)
    assert r.details == [(str(("outside Schur vanishes", 2, 3, (2,))), str([0] * len(rem)), str(rem))]


@pytest.mark.parametrize("check_id,params,count,label,got", [
    ("identity_decomposition", {"a_list": [2]}, "factorial", ("idempotents", 2), 2),
    ("eaeb_decomposition", {"pairs": [(1, 2)]}, "comb", ("idempotents", 1, 2), 3),
], ids=["identity_decomposition", "eaeb_decomposition"])
def test_a_wrong_idempotent_count_fails(monkeypatch, check_id, params, count, label, got):
    """The number of idempotents, a! or binom(a+b, a), is compared like any
    other value: with a wrong expected count the decomposition fails there
    alone."""
    monkeypatch.setattr(V, count, lambda *args: 999)
    r = V.run_check(check_id, params)
    assert r.status == "fail"
    assert r.details == [(str(label), "999", str(got))]


def test_every_splitter_failure_names_a_schubert_polynomial(monkeypatch):
    """With the mirror made trivial, splitter_assoc fails; every failure is
    an element identity, so its label ends in the index of a Schubert
    polynomial on its strands and its values are polynomials, not booleans."""
    from oddnil import onh

    monkeypatch.setattr(onh, "mirror", lambda element: element)
    r = V.run_check("splitter_assoc")
    assert r.status == "fail" and r.details
    for label, want, got in r.details:
        parts = ast.literal_eval(label)
        strands = sum(parts[1:-1])  # (name, bundle thicknesses..., i)
        assert 0 <= parts[-1] < factorial(strands), label
        assert want != got
        assert not {want, got} & {"True", "False"}, (label, want, got)


def test_envelope_exceeded_is_skipped_with_reason():
    r = V.run_check("da_values", {"a_max": 9})
    assert r.status == "skipped"
    assert r.details and "exceeds" in r.details[0][2]
    r = V.run_check("oval", {"pairs": [(3, 3)]})
    assert r.status == "skipped"


def test_deterministic_output():
    r1 = V.run_check("ea_standard", seed=7)
    r2 = V.run_check("ea_standard", seed=7)
    assert V.reports_to_json([r1]) == V.reports_to_json([r2])


def test_json_schema_fields():
    r = V.run_check("da_values")
    payload = json.loads(V.reports_to_json([r]))
    assert isinstance(payload, list) and len(payload) == 1
    entry = payload[0]
    assert set(entry) == {"check", "params", "status", "seed", "details", "wall_time_s"}
    assert entry["check"] == "da_values"
    assert entry["status"] in ("pass", "fail", "skipped")
    assert isinstance(entry["seed"], int)
    assert isinstance(entry["wall_time_s"], float)


def test_run_many_in_registry_order_and_parallel():
    ids = ["da_values", "add_step", "crossing_slide"]
    serial = V.run_many(ids, parallel=1)
    assert [r.check_id for r in serial] == ids
    parallel = V.run_many(ids, parallel=2)
    assert [r.check_id for r in parallel] == ids
    assert V.reports_to_json(serial) == V.reports_to_json(parallel)


def test_params_from_flags():
    assert V.params_from_flags("oval", a=2, b=2) == {"pairs": [(2, 2)]}
    assert V.params_from_flags("da_values", a=3) == {"a_max": 3}
    assert V.params_from_flags("nil_orth", a=2) == {"a_list": [2]}
    assert V.params_from_flags("oh_rank", a=2, n_param=4) == {"pairs": [(2, 4)]}
    with pytest.raises(ValueError):
        V.params_from_flags("jacobi_trudi_failure", dmax=4)


def test_params_for_max_rank():
    p = V.params_for_max_rank("identity_decomposition", 2)
    assert p["a_list"] == [2]
    p = V.params_for_max_rank("oval", 2)
    assert all(a + b <= 3 for (a, b) in p["pairs"])
    p = V.params_for_max_rank("oh_rank", 2)
    assert all(a <= 2 for (a, _) in p["pairs"])


def test_all_match_expected_logic():
    reports = [V.run_check("da_values"), V.run_check("sentinel_x1sq_central")]
    assert V.all_match_expected(reports)


def test_zero_instance_sweep_reports_skipped():
    r = V.run_check("center", {"a_list": [0]})
    assert r.instances == 0
    assert r.status == "skipped"
    assert r.details == [("sweep", "at least 1 instance", "empty sweep: 0 instances")]
    assert not V.all_match_expected([r])


def _as_nil_orth(monkeypatch, fn):
    """Run ``fn`` in place of nil_orth's body."""
    monkeypatch.setitem(V.REGISTRY, "nil_orth", V.REGISTRY["nil_orth"]._replace(fn=fn))


@pytest.mark.parametrize("want_len,got_len", [(2, 1), (1, 2), (3, 0)])
def test_a_block_of_unequal_lengths_reports_error_not_pass(monkeypatch, want_len, got_len):
    """A short list in a block would hide instances, so it ends the check."""
    from oddnil.skewpoly import SkewPolynomial

    zero = SkewPolynomial.zero(2)
    _as_nil_orth(monkeypatch, lambda params, rng: iter([V._Block(("block",), [zero] * want_len, [zero] * got_len)]))
    r = V.run_check("nil_orth")
    assert r.status == "error"
    assert r.instances == 0
    assert r.details[0][:2] == ("internal error", "no exception")
    assert r.details[0][2].startswith("ValueError: zip()")


def test_a_check_of_empty_blocks_reports_skipped(monkeypatch):
    _as_nil_orth(monkeypatch, lambda params, rng: iter([V._Block(("block", i), [], []) for i in range(3)]))
    r = V.run_check("nil_orth")
    assert r.instances == 0
    assert r.status == "skipped"
    assert r.details == [("sweep", "at least 1 instance", "empty sweep: 0 instances")]


@pytest.mark.parametrize("check_id,a,instances", [
    ("identity_decomposition", 5, 1_728_121),  # (5!)^2 products and 5! sums on 5! polynomials, and the count
    ("nil_orth", 5, 1_728_000),  # (5!)^2 products on 5! polynomials
    ("matrix_iso", 4, 7_962_624),  # (4!)^4 products on 4! polynomials
])
def test_morita_contracts_pass_at_their_envelope_edge(check_id, a, instances):
    r = V.run_check(check_id, {"a_list": [a]})
    assert (r.status, r.instances) == ("pass", instances)
    above = V.run_check(check_id, {"a_list": [a + 1]})
    assert above.status == "skipped" and "exceeds" in above.details[0][2]


@pytest.mark.parametrize("check_id,instances", [
    # per pair, binom(5, a)^2 products on 5! polynomials, and binom(5, a) degrees
    ("oval", 2 * (10 ** 2 * 120 + 10) + 2 * (5 ** 2 * 120 + 5)),
    # per pair, binom(5, a)^2 products and one sum on 5! polynomials, the count and the degree multiset
    ("eaeb_decomposition", 2 * ((10 ** 2 + 1) * 120 + 2) + 2 * ((5 ** 2 + 1) * 120 + 2)),
])
def test_box_contracts_pass_at_every_pair_of_their_envelope_edge(check_id, instances):
    r = V.run_check(check_id, {"pairs": [(3, 2), (2, 3), (4, 1), (1, 4)]})
    assert (r.status, r.instances) == ("pass", instances)
    assert instances == {"oval": 30_030, "eaeb_decomposition": 30_488}[check_id]
    for pair in [(1, 5), (2, 4), (3, 3), (4, 2), (5, 1)]:
        above = V.run_check(check_id, {"pairs": [pair]})
        assert above.status == "skipped" and "exceeds" in above.details[0][2]


def test_jacobi_trudi_failure_needs_degree_four():
    with pytest.raises(ValueError, match="a >= 4"):
        V.run_check("jacobi_trudi_failure", {"a": 3})
    assert V.run_check("jacobi_trudi_failure", {"a": 4}).status == "pass"


def test_splitter_triangle_carries_its_sign_at_total_five():
    from math import comb

    from oddnil import onh

    assert V.run_check("splitter_assoc", {"total_max": 5}).status == "pass"
    # at (2, 1, 2) the unsigned triangle fails: the sides differ by -1
    a, b, c = 2, 1, 2
    n = a + b + c
    tcross = (
        onh.embed(onh.idempotent_e(a), 0, n)
        * onh.embed(onh.idempotent_e(c), a, n)
        * onh.embed(onh.crossing_element(c, a), 0, n)
    )
    lhs = onh.embed(onh.idempotent_e(b + c), a, n) * tcross * onh.embed(onh.up_splitter(a, b), c, n)
    rhs = onh.up_splitter(a, b + c) * onh.idempotent_e(n)
    assert (-1) ** (comb(a, 2) * comb(c, 2)) == -1
    assert lhs == rhs.scale(-1) and lhs != rhs
    # the crossing equals the signed (a, c) splitter, the step the sign comes from
    assert tcross == onh.embed(onh.up_splitter(a, c), 0, n).scale(-1)
