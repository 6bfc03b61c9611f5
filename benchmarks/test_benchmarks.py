"""Tests of the benchmark itself, not of oddnil.

    python3 -m pytest benchmarks
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from oddnil import evenoracle  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def _bench(cwd, workload, trace):
    cmd = [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", "5",
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=150)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", NAMES)
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    proc = _bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    table = "\n".join(lines[1:-1])
    for name in list(wanted) + ["fail_frac"]:
        assert name in table
    env = json.loads(lines[0][len("# env "):])
    for key in ("python", "nproc", "cpu_model", "seed", "git_commit", "loadavg_start"):
        assert key in env


def test_fails_without_the_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = _bench(tmp_path, "registry", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _wrong_status(inputs):
    inputs["expected"]["e_h_relation"] = "fail"


def _wrong_check_status(inputs):
    cid, params, _ = inputs["checks"][0]
    inputs["checks"][0] = (cid, params, "fail")


def _wrong_rank(inputs):
    a, n, total, balanced = inputs["ranks"][0]
    inputs["ranks"][0] = (a, n, total + 1, balanced)


def _wrong_mod2_oracle(inputs):
    inputs["mod2_oracle"] = lambda f, g: evenoracle.Gf2Poly(f.nvars)


@pytest.mark.parametrize(
    "workload, corrupt",
    [
        ("registry", _wrong_status),
        ("thick_calculus", _wrong_check_status),
        ("quotient_lattice", _wrong_rank),
        ("fresh_algebra", _wrong_mod2_oracle),
    ],
)
def test_wrong_expected_value_raises_fail_frac(workload, corrupt):
    make_inputs, run_pass = workloads.WORKLOADS[workload]
    clean = run_pass(make_inputs(5, tiny=True))
    assert clean.outcomes and all(clean.outcomes)
    inputs = make_inputs(5, tiny=True)
    corrupt(inputs)
    bad = run_pass(inputs)
    assert bad.outcomes.count(False) / len(bad.outcomes) > 0


def test_output_that_changes_between_passes_counts_as_failed():
    p = {"attempted": 3, "failed": 0, "digest": "a"}
    reps = [{"passes": [p, dict(p)]}, {"passes": [dict(p), dict(p, digest="b")]}]
    assert run.tally(reps) == (4 * 3 + 3, 1)


def test_speedometer_samples_inside_long_calls_and_clock_skips_them():
    with speed.Speedometer() as meter:
        t_real, t_work, paused = time.perf_counter(), speed.clock(), meter.paused
        sum(i * i for i in range(3_000_000))  # one call, far longer than INTERVAL_S
        real, work = time.perf_counter() - t_real, speed.clock() - t_work
        paused = meter.paused - paused
    during = [t for t, _ in meter.samples if t > t_real]
    assert len(during) >= 2  # the timer's samples, and the one at exit
    # a sample may land between two clock reads: allow one sample's pause
    assert work < real
    assert real - work == pytest.approx(paused, abs=max(d for _, d in meter.samples) + 1e-3)
    assert speed.clock() == pytest.approx(time.perf_counter(), abs=1e-3)


def test_times_are_stated_at_the_reference_speed():
    ref = run.REF_KERNEL_S
    p = {"wall_s": 2.0, "op_t": [0.0, 1.0], "op_ms": [1000.0, 1000.0],
         "ref": [(0.0, ref), (0.5, ref), (1.5, 2 * ref), (2.0, 2 * ref)]}
    assert run.scaled_wall(p) == pytest.approx(2.0 / 1.5)
    # each operation takes the samples within one interval of it
    assert run.scaled_ops(p) == pytest.approx([1000.0, 500.0])
    p["ref"] = [(t, 2 * ref) for t, _ in p["ref"]]
    assert run.scaled_wall(p) == pytest.approx(1.0)


# where the per-layer table says each wrapped layer matters
MATTERS_ON = {
    "registry": ["verify", "evenoracle", "qgrade", "combinat"],
    "thick_calculus": ["skewpoly.add", "oddops.dd", "onh.evaluate", "onh.apply_word", "onh.element_mul"],
    "quotient_lattice": ["skewpoly.mul", "oddsym.expand", "cyclotomic.slice", "cyclotomic.hnf", "cyclotomic.smith"],
    "fresh_algebra": ["skewpoly.mul", "skewpoly.transposition", "oddops.dd", "evenoracle"],
}


@pytest.mark.parametrize("workload", NAMES)
def test_each_wrapper_records_spans_where_it_matters(workload, tmp_path):
    make_inputs, run_pass = workloads.WORKLOADS[workload]
    inputs = make_inputs(5, tiny=True)
    with tracer.Tracer() as tr:
        run_pass(inputs)
    metrics = tr.metrics()
    for layer in MATTERS_ON[workload]:
        assert metrics[layer + ".calls"] >= 1, layer
        assert metrics[layer + ".self_s"] > 0, layer
    tr.write_spans(tmp_path / "spans.gz")
    names, arrays = tracer.read_spans(tmp_path / "spans.gz")
    assert names == tr.names and arrays["start"] == tr.start and arrays["parent"] == tr.parent


def _bindings():
    mods = [m for n, m in sorted(sys.modules.items()) if n.startswith("oddnil.")]
    owners = mods + [v for m in mods for v in vars(m).values() if isinstance(v, type)]
    return {(id(o), k): v for o in owners for k, v in list(vars(o).items())}


def test_tracer_restores_every_binding():
    before = _bindings()
    with tracer.Tracer():
        assert _bindings() != before
    assert _bindings() == before


def test_tracing_does_not_change_outputs():
    make_inputs, run_pass = workloads.WORKLOADS["registry"]
    plain = run_pass(make_inputs(5, tiny=True))
    with tracer.Tracer() as tr:
        traced = run_pass(make_inputs(5, tiny=True))
    assert traced.outputs == plain.outputs
    assert tr.metrics()["verify.check_s.e_h_relation"] > 0
