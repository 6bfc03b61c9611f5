"""Acceptance suite: one test per criterion, exact integer equality
throughout (no tolerances anywhere).  Each test prints a single PASS/FAIL
line; run with `pytest tests/test_acceptance.py -v -s` to see them.
"""

import time

import paper_identities as P
from oddnil import combinat as C
from oddnil import verify as V
from oddnil.qgrade import QLaurent, q_factorial


def _report(name, passed, started, extra=""):
    status = "PASS" if passed else "FAIL"
    print("%s %s (%.1fs)%s" % (name, status, time.time() - started, " " + extra if extra else ""))
    assert passed, name


def _run(name, check_id, params, budget=None, extra=""):
    started = time.time()
    report = V.run_check(check_id, params)
    elapsed = time.time() - started
    ok = report.status == "pass"
    if budget is not None:
        ok = ok and elapsed < budget
    detail = "; ".join(" | ".join(t) for t in report.details[:2])
    _report(name, ok, started, extra="[%d instances]%s" % (report.instances, " " + detail if detail else ""))


def test_ac1_defining_relations():
    # all four families on every monomial of Z-degree <= 8, a in {2,3,4}
    _run("AC-1 defining relations", "defining_relations", {"a_list": [2, 3, 4], "dmax": 8}, budget=60)


def test_ac2_graded_ranks():
    started = time.time()
    ok = True
    # odd symmetric slice ranks match partition counts, degree <= 12
    for a in (2, 3, 4, 5):
        for halfdeg in range(0, 7):
            if P.odd_symmetric_rank(a, halfdeg) != len(C.partitions_of(halfdeg, maxpart=a)):
                ok = False
    # the d_w basis count matches the coefficients of q^{-a(a-1)/2} [a]!
    for a in range(1, 6):
        total = QLaurent()
        for w in C.all_permutations(a):
            total = total + QLaurent.q_power(-2 * C.perm_length(w))
        if total != QLaurent.q_power(-(a * (a - 1) // 2)) * q_factorial(a):
            ok = False
    _report("AC-2 graded ranks", ok, started)


def test_ac3_odd_pieri():
    _run(
        "AC-3 odd Pieri",
        "pieri",
        {"a_list": [3, 4]},
        budget=120,
    )


def test_ac4_sign_constants():
    _run("AC-4 sign constants", "da_values", {"a_max": 5})


def test_ac5_owl_corollary():
    _run(
        "AC-5 OWL corollary",
        "owl_corollary",
        {"a_max": 4, "f_dmax": 8},
    )


def test_ac6_identity_decomposition():
    _run(
        "AC-6 identity decomposition",
        "identity_decomposition",
        {"a_list": [2, 3, 4]},
        budget=600,
        extra="(24 idempotents at a=4)",
    )


def test_ac7_eaeb_decomposition():
    _run(
        "AC-7 e_a x e_b decomposition",
        "eaeb_decomposition",
        {"pairs": [(1, 1), (2, 1), (1, 2), (2, 2)]},
    )


def test_ac8_dapb():
    _run("AC-8 staircase pairing", "dapb", {"pairs": [(2, 2), (2, 3)]})


def test_ac9_cyclotomic_ranks():
    _run(
        "AC-9 cyclotomic ranks",
        "oh_rank",
        {"pairs": [(1, 3), (2, 3), (2, 4), (3, 4), (2, 5)]},
        budget=300,
    )


def test_ac10_grassmann_recursion():
    # the universal sign is forced by the N = a base case, where the power
    # column reduces to the matrix's first column
    _run("AC-10 Grassmann recursion", "grassmann_recursion", {"a_max": 3, "n_max": 6})


def test_ac11_negative_controls():
    started = time.time()
    mirror = V.run_check("sentinel_mirror_ea_slide", {"a_max": 4})
    central = V.run_check("sentinel_x1sq_central", {"a": 2})
    jt = V.run_check("jacobi_trudi_failure", {"a": 6})
    ok = (
        mirror.status == "fail"
        and len(mirror.details) >= 1
        and central.status == "fail"
        and len(central.details) >= 1
        and jt.status == "pass"
    )
    _report(
        "AC-11 negative controls",
        ok,
        started,
        extra="mirror slide and x_1^2 produce counterexamples; eps_4 non-membership certified",
    )


def test_ac12_mod2_oracle():
    _run(
        "AC-12 mod-2 oracle",
        "mod2",
        {
            "a_max": 4,
            "deg_max": 8,
            "quotient_pairs": [(1, 3), (2, 3), (2, 4), (3, 4)],
        },
    )
