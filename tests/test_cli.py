import json
import os
import pathlib
import subprocess
import sys

import pytest

from oddnil import verify
from oddnil.cli import COMPUTE_KINDS, main

DATA = pathlib.Path(__file__).parent / "data"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compute_schubert(capsys):
    code, out, _ = run_cli(capsys, "compute", "schubert", "--perm", "2 1", "--vars", "2")
    assert code == 0
    assert out.strip() == "x1"


def test_compute_schur(capsys):
    code, out, _ = run_cli(capsys, "compute", "schur", "--partition", "1,1", "--vars", "3")
    assert code == 0
    # s_{(1,1)} = -eps_2 in three variables
    assert out.strip() == "x1*x2 - x1*x3 + x2*x3"


def test_compute_oh_rank(capsys):
    code, out, _ = run_cli(capsys, "compute", "oh-rank", "--a", "2", "--N", "4")
    assert code == 0
    assert out.strip() == "q^8 + q^6 + 2*q^4 + q^2 + 1"


def test_compute_elementary_and_complete(capsys):
    code, out, _ = run_cli(capsys, "compute", "elementary", "--k", "1", "--vars", "3")
    assert code == 0 and out.strip() == "x1 - x2 + x3"
    code, out, _ = run_cli(capsys, "compute", "complete", "--k", "2", "--vars", "1")
    assert code == 0 and out.strip() == "x1^2"


def test_compute_product_parses_and_multiplies(capsys):
    code, out, _ = run_cli(
        capsys, "compute", "product", "--vars", "2", "--left", "x1 - x2", "--right", "x1 - x2"
    )
    assert code == 0
    assert out.strip() == "x1^2 + x2^2"


def test_compute_pieri(capsys):
    code, out, _ = run_cli(capsys, "compute", "pieri", "--partition", "1,1", "--k", "1", "--vars", "3")
    assert code == 0
    assert out.strip() == "-s(2,1) + s(1,1,1)"


@pytest.mark.parametrize("argv,want", [
    (["--partition", "2,1", "--k", "0", "--vars", "3"], "s(2,1)"),
    # s_(1,1,1) is zero in 2 variables, so the sum is empty
    (["--partition", "1,1,1", "--k", "1", "--vars", "2"], "0"),
])
def test_compute_pieri_at_k_zero_and_outside_the_rows(capsys, argv, want):
    code, out, _ = run_cli(capsys, "compute", "pieri", *argv)
    assert (code, out.strip()) == (0, want)


@pytest.mark.parametrize("left,fault", [
    ("x1^-1", "negative exponent -1 in 'x1^-1'"),
    ("x2 - x1^-2", "negative exponent -2 in 'x1^-2'"),
    ("x1^x", "malformed exponent 'x' in 'x1^x'"),
    ("x1^2^3", "malformed exponent '2^3' in 'x1^2^3'"),
    ("x1^1_0", "malformed exponent '1_0' in 'x1^1_0'"),
    ("x1^-x", "malformed exponent '-x' in 'x1^-x'"),
])
def test_compute_product_names_a_bad_exponent(capsys, left, fault):
    code, out, err = run_cli(capsys, "compute", "product", "--left", left, "--right", "1", "--vars", "2")
    assert (code, out) == (2, "")
    assert err == "error: cannot read %r: %s\n" % (left, fault)


def test_compute_grassmann_matrix(capsys):
    code, out, _ = run_cli(capsys, "compute", "grassmann-matrix", "--a", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "[ x1 - x2 | 1 ]"
    assert lines[1] == "[ -x1*x2 | 0 ]"


def test_compute_json_mode(capsys):
    code, out, _ = run_cli(capsys, "compute", "schubert", "--perm", "2 1", "--vars", "2", "--json")
    assert code == 0
    assert json.loads(out) == {"kind": "schubert", "result": "x1"}


def test_compute_missing_params_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "compute", "schur", "--vars", "3")
    assert code == 2
    assert "partition" in err


def test_compute_invalid_partition(capsys):
    code, _, err = run_cli(capsys, "compute", "schur", "--partition", "1,x", "--vars", "3")
    assert code == 2


def test_verify_single_check(capsys):
    code, out, _ = run_cli(capsys, "verify", "da_values")
    assert code == 0
    assert "da_values" in out and "pass" in out


def test_verify_with_flags(capsys):
    code, out, _ = run_cli(capsys, "verify", "oval", "--a", "1", "--b", "1")
    assert code == 0


def test_verify_unknown_check_exits_2(capsys):
    code, _, err = run_cli(capsys, "verify", "nosuch")
    assert code == 2
    assert "unknown check" in err


def test_unrecognized_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["compute", "schur", "--partition", "1", "--vars", "2", "--bogus"])
    assert exc.value.code == 2


def test_verify_json_deterministic(capsys):
    code1, out1, _ = run_cli(capsys, "verify", "add_step", "--json", "--seed", "5")
    code2, out2, _ = run_cli(capsys, "verify", "add_step", "--json", "--seed", "5")
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload[0]["check"] == "add_step"
    assert payload[0]["wall_time_s"] == 0.0


def test_verify_sentinels_counted_as_expected(capsys):
    code, out, _ = run_cli(capsys, "verify", "sentinel_x1sq_central")
    assert code == 0  # matching the expected (fail) status
    assert "must-fail sentinel" in out


def test_verify_max_rank_smoke(capsys):
    code, out, _ = run_cli(capsys, "verify", "nil_orth", "identity_decomposition", "--max-rank", "2")
    assert code == 0


def test_verify_empty_sweep_is_not_a_pass(capsys):
    code, out, _ = run_cli(capsys, "verify", "center", "--a", "0")
    assert code == 1
    assert "skipped" in out and "instances=0" in out and "empty sweep" in out


def test_jacobi_trudi_failure_below_degree_four_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "verify", "jacobi_trudi_failure", "--a", "3")
    assert code == 2
    assert out == ""
    assert "a >= 4" in err and "eps_4" in err


# one valid call per compute kind, apart from --vars
_KIND_ARGS = {
    "schur": ["--partition", "1"],
    "dual-schur": ["--partition", "1"],
    "elementary": ["--k", "2"],
    "complete": ["--k", "2"],
    "schubert": ["--perm", "2 1"],
    "product": ["--left", "1", "--right", "1"],
    "pieri": ["--partition", "1", "--k", "1"],
    "grassmann-matrix": ["--a", "2"],
    "oh-rank": ["--a", "2", "--N", "4"],
}


@pytest.mark.parametrize("kind", COMPUTE_KINDS)
def test_compute_negative_vars_is_usage_error(capsys, kind):
    code, out, err = run_cli(capsys, "compute", kind, *_KIND_ARGS[kind], "--vars", "-1")
    assert code == 2
    assert out == ""
    assert "--vars" in err


@pytest.mark.parametrize("argv, named", [
    (["oh_rank", "--a", "2", "--b", "3"], ["--b", "--a with --N (pairs)"]),
    (["oval", "--a", "2", "--N", "5"], ["--N", "--a with --b (pairs)"]),
    (["mod2", "--N", "5"], ["--N", "--a (a_max)", "--dmax (deg_max)", "--a with --N (quotient_pairs)"]),
    (["nil_orth", "--a", "3", "--max-rank", "2"], ["--max-rank", "--a"]),
])
def test_verify_flag_that_sets_nothing_is_usage_error(capsys, argv, named):
    code, out, err = run_cli(capsys, "verify", *argv)
    assert code == 2
    assert out == ""
    for text in named:
        assert text in err


def test_verify_mod2_takes_a_quotient_pair_from_a_and_n(capsys):
    code, out, _ = run_cli(capsys, "verify", "mod2", "--a", "3", "--N", "5", "--json")
    assert code == 0
    entry = json.loads(out)[0]
    assert entry["status"] == "pass"
    assert entry["params"]["quotient_pairs"] == [[3, 5]]


def test_verify_max_rank_never_runs_above_the_rank(capsys):
    code, out, _ = run_cli(capsys, "verify", "pieri", "--max-rank", "2")
    # the clamped sweep is empty: skipped, and counted as expected
    assert code == 0
    assert "skipped" in out and "instances=0" in out and "empty sweep" in out
    assert "[ok]" in out and "UNEXPECTED" not in out


@pytest.mark.parametrize("rank", ["1", "2"])
def test_verify_all_at_a_small_max_rank_exits_zero(capsys, rank):
    code, out, _ = run_cli(capsys, "verify", "all", "--max-rank", rank, "--parallel", "1", "--json")
    assert code == 0
    statuses = {entry["check"]: entry["status"] for entry in json.loads(out)}
    assert statuses["pieri"] == "skipped"
    assert "fail" not in {s for c, s in statuses.items() if not c.startswith("sentinel")}


def test_verify_envelope_skip_still_exits_one(capsys):
    code, out, _ = run_cli(capsys, "verify", "nil_orth", "--a", "7")
    assert code == 1
    assert "skipped" in out and "UNEXPECTED" in out


def test_verify_max_rank_below_one_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "verify", "da_values", "--max-rank", "0")
    assert code == 2
    assert out == ""
    assert "--max-rank must be >= 1" in err


@pytest.mark.parametrize("n", ["0", "-4"])
def test_verify_parallel_below_one_is_usage_error(capsys, n):
    code, out, err = run_cli(capsys, "verify", "e_h_relation", "--parallel", n)
    assert code == 2
    assert out == ""
    assert "--parallel must be >= 1" in err


@pytest.mark.parametrize("flag", ["--b", "--seed", "--parallel"])
def test_compute_has_no_flag_that_no_kind_reads(flag):
    with pytest.raises(SystemExit) as exc:
        main(["compute", "schur", "--partition", "1", "--vars", "2", flag, "7"])
    assert exc.value.code == 2


def _valid_compute_call(kind):
    required, _ = COMPUTE_KINDS[kind]
    return ["compute", kind, *_KIND_ARGS[kind], *(["--vars", "2"] if "vars" in required else [])]


@pytest.mark.parametrize("kind, flag", [
    (kind, flag)
    for kind, (required, optional) in COMPUTE_KINDS.items()
    for flag in ("a", "N", "vars", "partition", "perm", "k", "left", "right", "dmax")
    if flag not in required + optional
])
def test_compute_flag_the_kind_does_not_read_is_usage_error(capsys, kind, flag):
    code, out, err = run_cli(capsys, *_valid_compute_call(kind), "--" + flag, "2")
    assert code == 2
    assert out == ""
    assert "does not read --%s" % flag in err


@pytest.mark.parametrize("kind", COMPUTE_KINDS)
def test_compute_valid_call_passes(capsys, kind):
    code, out, _ = run_cli(capsys, *_valid_compute_call(kind))
    assert code == 0 and out


@pytest.mark.parametrize("kind", [k for k, (required, _) in COMPUTE_KINDS.items() if "vars" in required])
def test_compute_zero_vars_is_usage_error_where_vars_is_required(capsys, kind):
    code, out, err = run_cli(capsys, "compute", kind, *_KIND_ARGS[kind], "--vars", "0")
    assert code == 2
    assert "--vars" in err


def test_compute_schubert_zero_vars_takes_the_permutation_size(capsys):
    code, out, _ = run_cli(capsys, "compute", "schubert", "--perm", "2 1", "--vars", "0")
    assert code == 0
    assert out.strip() == "x1"


def test_uncertified_oh_rank_names_the_dmax_to_raise(capsys):
    code, out, err = run_cli(capsys, "compute", "oh-rank", "--a", "3", "--N", "5", "--dmax", "12")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "at least 14" in err


def test_odd_oh_rank_dmax_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "compute", "oh-rank", "--a", "3", "--N", "5", "--dmax", "13")
    assert code == 2
    assert out == ""
    assert "odd" in err and "14" in err
    code, out, _ = run_cli(capsys, "compute", "oh-rank", "--a", "3", "--N", "5", "--dmax", "14")
    assert code == 0 and out.strip().startswith("q^12")


def test_internal_error_exits_one_not_as_usage_error(capsys, monkeypatch):
    from oddnil import cyclotomic

    def broken(*args):
        raise ValueError("broken on purpose")

    monkeypatch.setattr(cyclotomic, "quotient_graded_rank", broken)
    code, out, err = run_cli(capsys, "compute", "oh-rank", "--a", "2", "--N", "4")
    assert code == 1
    assert out == ""
    assert err.startswith("internal error: ValueError: broken on purpose (test_cli.py:")
    assert err.endswith(" in broken)\n") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["verify", "center", "--a", "-1"],
    ["verify", "oval", "--a", "-1", "--b", "1"],
    ["verify", "nil_orth", "--a", "0"],
    ["verify", "sentinel_x1sq_central", "--a", "1"],
    ["verify", "schur_box", "--a", "3", "--N", "2"],
    ["verify", "mod2", "--a", "3", "--N", "2"],
    ["compute", "grassmann-matrix", "--a", "0"],
    ["compute", "product", "--left", "x1^x", "--right", "x1", "--vars", "2"],
])
def test_inputs_outside_the_domain_are_usage_errors(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_verify_all_json_and_instance_counts_match_the_golden_files(capsys, monkeypatch):
    # tests/data holds the output of `oddnil verify all --parallel 1 --json`
    # and each check's instance count; a change that alters either on
    # purpose regenerates both files and says why
    runs = []
    run_many = verify.run_many

    def recording(*args, **kwargs):
        runs.append(run_many(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(verify, "run_many", recording)
    code, out, err = run_cli(capsys, "verify", "all", "--parallel", "1", "--json")
    assert (code, err) == (0, "")
    assert out == (DATA / "verify_all.json").read_text()
    counts = {r.check_id: r.instances for r in runs[0]}
    assert counts == json.loads((DATA / "verify_instances.json").read_text())


def test_python_m_oddnil_runs_the_cli_from_a_source_checkout():
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-m", "oddnil", "verify", "e_h_relation", "--json"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert [(r["check"], r["status"]) for r in payload] == [("e_h_relation", "pass")]
