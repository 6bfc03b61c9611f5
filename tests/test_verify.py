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

    monkeypatch.setattr(onh, "zero_hecke_product", lambda a: onh.OnhElement.zero(a))
    r = V.run_check("ea_standard", {"a_max": 2})
    assert r.status == "fail"
    assert r.instances == 2 + 20  # the e_a statements and the random boxes at a = 2
    assert r.details == [
        ("('e_a = (-1)^C(a,3) x^delta D_a', 1, 0)", "1", "0"),
        ("('e_a = (-1)^C(a,3) x^delta D_a', 2, 1)", "x1", "0"),
    ]


def test_ea_standard_fails_when_the_standard_forms_sign_flips_at_3(monkeypatch):
    """idempotent_e is the standard form itself, so ea_standard states it
    against the 0-Hecke product: a wrong sign at a = 3 fails there, and
    in the random boxes e_a f = e_a f e_a, where the sign is not squared."""
    from oddnil import onh

    sign = onh.e_sign
    monkeypatch.setattr(onh, "e_sign", lambda a: -sign(a) if a == 3 else sign(a))
    r = V.run_check("ea_standard", {"a_max": 3, "random_boxes": 2})
    assert r.status == "fail"
    labels = [ast.literal_eval(label) for label, _, _ in r.details]
    assert labels[0][:2] == ("e_a = (-1)^C(a,3) x^delta D_a", 3)
    assert {label[:2] for label in labels[1:]} == {("e_a f e_a = e_a f", 3)}


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


def test_schubert_basis_fails_when_a_schubert_polynomial_is_doubled(monkeypatch):
    """With the last Schubert polynomial doubled, the change of basis to
    the monomials x^A, A_r <= a - r, is no longer unimodular: at a = 2 its
    Smith factors are [1, 2] against [1, 1]."""
    from oddnil import onh

    basis_list = onh.schubert_basis_list

    def doubled_last(a):
        basis = basis_list(a)
        return basis[:-1] + [basis[-1].scale(2)]

    monkeypatch.setattr(onh, "schubert_basis_list", doubled_last)
    r = V.run_check("schubert_basis", {"a_max": 2})
    assert r.status == "fail"
    assert r.details == [(str(("unimodular Schubert matrix", 2)), "[1, 1]", "[1, 2]")]


def test_da_values_fails_when_psi_staircase_is_the_staircase(monkeypatch):
    """D_a(staircase) = (-1)^C(a,3) and D_a(psi staircase) = (-1)^C(a+1,4)
    differ first at a = 4; with psi_staircase replaced by staircase,
    da_values fails on the psi staircase at a = 4 and 5 alone."""
    from oddnil.skewpoly import SkewPolynomial, staircase

    monkeypatch.setattr(V, "psi_staircase", staircase)
    r = V.run_check("da_values")
    assert r.status == "fail"
    assert r.details == [(str(("D_a(psi staircase)", a)), str(SkewPolynomial.constant(a, -1)),
                          str(SkewPolynomial.constant(a, 1))) for a in (4, 5)]


def test_defining_relations_fails_when_a_row_of_the_d_i_table_is_negated(monkeypatch):
    """d_i reads d_1(x_1^p x_2^q) from oddops._dd_rows; with the row of
    (p, q) = (2, 0) negated in a table of the test's own, d_i is wrong on
    every monomial with x_i^2 x_{i+1}^0, and the first relation to see it is
    d_i x_i + x_{i+1} d_i = 1 at x_1 in two variables."""
    from oddnil import oddops

    rows = []
    monkeypatch.setattr(oddops, "_dd_rows", rows)
    oddops._dd_grow(2, 0)
    rows[2][0] = tuple((e1, e2, -c) for e1, e2, c in rows[2][0])
    r = V.run_check("defining_relations")
    assert r.status == "fail"
    assert len(r.details) == 32
    assert r.details[0][0] == str(("d_i x_i + x_{i+1} d_i", 2, 1, (1, 0)))


def test_da_slide_fails_when_the_last_two_letters_of_d_a_are_swapped(monkeypatch):
    """D_a is the fixed word [d_1, d_2 d_1, ..., d_{a-1} ... d_1]; with its
    last two letters swapped for a >= 3, the alternative definition
    D_a = D_{a-1} (embedded one strand right) times the (a-1, 1) crossing
    first differs at a = 3, on the sixth Schubert polynomial."""
    from oddnil import oddops

    da_word = oddops.da_word

    def swapped(a):
        word = da_word(a)
        return word[:-2] + (word[-1], word[-2]) if a >= 3 else word

    monkeypatch.setattr(oddops, "da_word", swapped)
    r = V.run_check("da_slide")
    assert r.status == "fail"
    assert r.details == [(str(("alt def D_a", 3, 5)), "0", "-1")]


def test_crossing_slide_fails_when_the_crossing_word_carries_an_extra_dot(monkeypatch):
    """An extra dot x_1 appended to every bundle crossing acts first, before
    its crossings; on the right side of the slide the short crossing is
    embedded one strand over, so its dot lands on x_2, and the sides first
    differ at a = 3, on the second Schubert polynomial."""
    from oddnil import onh

    letters = onh.crossing_word_letters
    monkeypatch.setattr(onh, "crossing_word_letters", lambda a, b: letters(a, b) + (1,))
    r = V.run_check("crossing_slide")
    assert r.status == "fail"
    assert r.details[0] == (str(("crossing slide", 3, 1)), "0", "-1")


def _dd_block_without_p(p, q):
    """oddops._dd_block with p dropped from the sign of its second sum's
    term k: (-1)^(k + p k) in place of (-1)^(p + k + p k)."""
    from oddnil.lincomb import collect

    pairs = [((p - 1 - j, j + q), (-1) ** (j + j * (p - 1 - j))) for j in range(p)]
    pairs += [((k, p + q - 1 - k), (-1) ** (k + p * k)) for k in range(q)]
    return tuple(collect(pairs).items())


@pytest.mark.parametrize("check_id,first", [
    ("shuffle", ("shuffle", 2, 1, 0, 3)),
    ("staircase_vanish", ("partial staircase", 2, 2, 1)),
    ("add_step", ("add step", 5)),
    ("reorder_revstair", ("reverse staircase", 4)),
    ("center", ("central e_k(x^2)", 2, 1, 2, 1)),
])
def test_a_d_i_block_without_p_in_its_second_sign_fails(monkeypatch, check_id, first):
    """The second sum of d_1(x_1^p x_2^q) carries (-1)^p for moving x_2^p
    past x_1^k; without it d_i is wrong on every monomial with p odd and
    q >= 1, and each of these checks fails at its defaults, first at the
    instance named."""
    from oddnil import oddops

    monkeypatch.setattr(oddops, "_dd_block", _dd_block_without_p)
    r = V.run_check(check_id)
    assert r.status == "fail"
    assert r.details[0][0] == str(first)


def test_add_step_fails_when_the_blocks_of_d_a_are_reversed(monkeypatch):
    """D_a is [d_1] + [d_2 d_1] + ... + [d_{a-1} ... d_1]; with its blocks
    in the other order ([d_{a-1} ... d_1] first, [d_1] last) D_a sends the
    add-step monomial to 0 in place of +-1 at every a >= 3."""
    from oddnil import oddops

    reversed_blocks = lambda a: tuple(l for k in range(a - 1, 0, -1) for l in range(-k, 0))
    monkeypatch.setattr(oddops, "da_word", reversed_blocks)
    r = V.run_check("add_step")
    assert r.status == "fail"
    assert r.details == [(str(("add step", a)), str(want), "0") for a, want in ((3, -1), (4, -1), (5, 1))]


@pytest.mark.parametrize("patch", [
    lambda letters: lambda a, b: letters(a, b)[::-1],
    lambda letters: lambda a, b: letters(a, b)[1:],
    lambda letters: lambda a, b: letters(a, b)[:-1],
    lambda letters: lambda a, b: letters(b, a),
], ids=["reversed", "first letter dropped", "last letter dropped", "built as (b, a)"])
def test_da_slide_fails_on_a_wrong_bundle_crossing_word(monkeypatch, patch):
    """D_a slides through the (1, a) bundle crossing, and D_a is D_{a-1}
    times the (a-1, 1) crossing; each of these crossing words breaks one
    of them at the defaults.  crossing_slide, which slides a crossing
    through a crossing, still passes all four."""
    from oddnil import onh

    monkeypatch.setattr(onh, "crossing_word_letters", patch(onh.crossing_word_letters))
    assert V.run_check("da_slide").status == "fail"


def test_e_h_relation_fails_when_h2_is_negated(monkeypatch):
    """A negated h_2 enters sum_k (-1)^C(k+1,2) eps_k h_{m-k} at k = m - 2,
    where eps_k is nonzero for k <= a: the relation fails at every
    m = 2, ..., a + 2 and holds at every other m."""
    from oddnil import oddsym

    complete = oddsym.complete
    monkeypatch.setattr(oddsym, "complete", lambda k, a: complete(k, a).scale(-1) if k == 2 else complete(k, a))
    r = V.run_check("e_h_relation")
    assert r.status == "fail"
    assert [label for label, _, _ in r.details] == [
        str(("e-h relation", a, m)) for a in range(1, 6) for m in range(2, a + 3)
    ]


def test_mod2_fails_at_a_pair_whose_skew_product_is_wrong_mod_2(monkeypatch):
    """A skew product x2 * x1 x3 with an even coefficient vanishes mod 2 while
    the product of the reductions does not.  Only a check that multiplies
    those two monomials by themselves can see the fault, and the sweep over
    pairs of monomials names that pair, and the details name both sides as
    polynomials: x1 x2 x3 from the reductions, 0 from the product."""
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
    assert r.details == [(str(("multiply mod 2", 3, left, right)), "x1*x2*x3", "0")]


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
    ("matrix_iso", 5, 1_728_120),  # nil_orth's (5!)^2 products on 5! polynomials, and 5! absorptions
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
