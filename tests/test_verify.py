import json

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


def test_a_failing_boolean_instance_reports_true_against_false(monkeypatch):
    """A statement is the instance (label, True, condition); when it fails,
    its triple is (str(label), "True", "False")."""
    from oddnil import onh

    monkeypatch.setattr(onh, "staircase_element", lambda a: onh.OnhElement.zero(a))
    r = V.run_check("ea_standard", {"a_max": 2})
    assert r.status == "fail"
    assert r.instances == 2 + 20  # the e_a statements and the random boxes at a = 2
    assert r.details == [
        ("('e_a = (-1)^C(a,3) x^delta D_a', 1)", "True", "False"),
        ("('e_a = (-1)^C(a,3) x^delta D_a', 2)", "True", "False"),
    ]


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
