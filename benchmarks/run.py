"""oddnil benchmark: run one workload and print its metrics.

    python3 benchmarks/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Every sample comes from a fresh interpreter (worker.py), one at a time:
one client, closed loop, no pools.  With ``--trace 0`` a run first spawns a
few set-up-only processes, then repetitions of cold pass + warm pass until
the next repetition would end more than ``--seconds`` after the run began
(at least one), and reports medians over repetitions, stated at the
reference CPU speed (see ``speed.py`` and ``reference_scale``).  With
``--trace 1`` it runs one untraced and one traced cold pass and reports the
per-layer metrics and the tracing overhead.  Metric names and units come from BENCHMARK.json.

The last line of stdout is the JSON result; the lines before it give the
environment and a readable table, and the same record goes to
``benchmarks/results/``.  Exit status 1 means a worker failed, 2 that the
library sources or BENCHMARK.json are missing.
"""

import argparse
import bisect
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"

SETUP_PROBES = 6
# typical seconds of one speed.reference_kernel call on the sizing machine
# (2-vCPU Intel Xeon VM, Python 3.11.7); time metrics are stated at this speed
REF_KERNEL_S = 0.003
# every worker must end before this many seconds into the run
DEADLINE_S = 170


class BenchError(RuntimeError):
    pass


def load_spec():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# environment record


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _source_sha256():
    digest = hashlib.sha256()
    for path in sorted((SRC / "oddnil").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment(args):
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "git_commit": _git_commit(),
        "source_sha256": _source_sha256(),
        "loadavg_start": list(os.getloadavg()),
    }


# ---------------------------------------------------------------------------
# workers


class Runner:
    """Spawns workers one at a time against a per-run deadline."""

    def __init__(self, args):
        self.args = args
        self.started = time.monotonic()
        self.env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")

    def spawn(self, passes, trace=False):
        left = DEADLINE_S - (time.monotonic() - self.started)
        if left <= 0:
            raise BenchError("run deadline of %d s passed" % DEADLINE_S)
        a = self.args
        cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", a.workload,
               "--seed", str(a.seed), "--passes", str(passes)]
        if a.tiny:
            cmd.append("--tiny")
        if trace:
            RESULTS.mkdir(exist_ok=True)
            cmd += ["--trace", str(RESULTS / ("%s.spans.gz" % a.workload))]
        cmd += ["--spawned", repr(time.monotonic())]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=left)
        except subprocess.TimeoutExpired:
            raise BenchError("worker exceeded the run deadline of %d s" % DEADLINE_S) from None
        if proc.returncode != 0:
            raise BenchError("worker exited %d:\n%s" % (proc.returncode, proc.stderr[-4000:]))
        return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(values, pct):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def tally(reps):
    """(attempted, failed) over every pass, plus one digest comparison per
    pass after the first: outputs must repeat exactly across passes and
    processes."""
    passes = [p for r in reps for p in r["passes"]]
    attempted = sum(p["attempted"] for p in passes) + len(passes) - 1
    failed = sum(p["failed"] for p in passes)
    failed += sum(p["digest"] != passes[0]["digest"] for p in passes[1:])
    return attempted, failed


def reference_scale(ref_s):
    """REF_KERNEL_S over the mean of reference-kernel times.  A time
    multiplied by this factor is the time the work would take on a CPU that
    runs the kernel in REF_KERNEL_S; the host's own speed drifts (README
    "Noise")."""
    return REF_KERNEL_S / statistics.mean(ref_s)


def scaled_wall(p):
    """A pass's time at the reference speed, from the samples taken evenly
    through it."""
    return p["wall_s"] * reference_scale([d for _, d in p["ref"]])


def scaled_ops(p):
    """Each operation's latency at the reference speed, from the samples
    within one sampling interval of it."""
    times = [t for t, _ in p["ref"]]
    durs = [d for _, d in p["ref"]]
    out = []
    for t, ms in zip(p["op_t"], p["op_ms"]):
        lo = bisect.bisect_left(times, t - speed.INTERVAL_S)
        hi = bisect.bisect_right(times, t + ms / 1e3 + speed.INTERVAL_S)
        out.append(ms * reference_scale(durs[lo:hi]))
    return out


def measure(runner, seconds):
    """End-to-end metrics from cold/warm repetitions in fresh processes."""
    probes = [runner.spawn(passes=0) for _ in range(SETUP_PROBES)]
    probe_s = time.monotonic() - runner.started
    reps = []
    while True:
        reps.append(runner.spawn(passes=2))
        elapsed = time.monotonic() - runner.started
        per_rep = (elapsed - probe_s) / len(reps)
        if elapsed + per_rep > seconds:
            break
    med = statistics.median
    cold = [r["passes"][0] for r in reps]
    warm = [r["passes"][1] for r in reps]
    workers = probes + reps
    ref_s = [d for w in workers for d in w["ref_s"]] + [d for r in reps for p in r["passes"] for _, d in p["ref"]]
    cold_ops = [scaled_ops(p) for p in cold]
    values = {
        "wall_s": med(scaled_wall(p) for p in cold),
        "warm_wall_s": med(scaled_wall(p) for p in warm),
        # set-up is not sampled while it runs; it takes the run's factor
        "setup_s": med(w["setup_s"] for w in workers) * reference_scale(ref_s),
        "peak_rss_mb": med(r["peak_rss_mb"] for r in reps),
        "op_p50_ms": med(percentile(ops, 50) for ops in cold_ops),
        "op_p90_ms": med(percentile(ops, 90) for ops in cold_ops),
    }
    raw = {
        "wall_s": med(p["wall_s"] for p in cold),
        "warm_wall_s": med(p["wall_s"] for p in warm),
        "setup_s": med(w["setup_s"] for w in workers),
        "op_p50_ms": med(percentile(p["op_ms"], 50) for p in cold),
        "op_p90_ms": med(percentile(p["op_ms"], 90) for p in cold),
    }
    speed_info = {"raw": raw, "ref_kernel_mean_s": statistics.mean(ref_s), "ref_samples": len(ref_s)}
    return values, reps, speed_info


def measure_traced(runner):
    """Per-layer metrics from one traced cold pass, and the tracing
    overhead against one untraced cold pass."""
    base = runner.spawn(passes=1)
    traced = runner.spawn(passes=1, trace=True)
    values = dict(traced["layers"])
    values["cli.import_s"] = traced["import_s"]
    untraced_s = base["passes"][0]["wall_s"]
    overhead = traced["passes"][0]["wall_s"] - untraced_s
    values["trace.overhead_s"] = overhead
    values["trace.overhead_frac"] = overhead / untraced_s
    return values, [base, traced], {}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="minimal inputs, for tests of the benchmark")
    args = p.parse_args(argv)

    if not (SRC / "oddnil" / "__init__.py").is_file():
        print("error: library sources not found under %s" % SRC, file=sys.stderr)
        return 2
    try:
        spec = load_spec()
    except (OSError, ValueError) as exc:
        print("error: cannot read BENCHMARK.json: %s" % exc, file=sys.stderr)
        return 2
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        p.error("--workload must be one of %s" % ", ".join(names))
    if args.seconds < 1:
        p.error("--seconds must be at least 1")

    env = environment(args)
    runner = Runner(args)
    try:
        if args.trace:
            values, reps, speed_info = measure_traced(runner)
        else:
            values, reps, speed_info = measure(runner, args.seconds)
    except BenchError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    env["reps"] = len(reps)
    env.update(speed_info)
    env["wall_clock_s"] = time.monotonic() - runner.started

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print("error: metrics not produced: %s" % ", ".join(missing), file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    attempted, failed = tally(reps)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}

    RESULTS.mkdir(exist_ok=True)
    record = dict(result, env=env, fail_frac=failed / attempted, samples=reps)
    tag = "%s-seed%d-trace%d%s" % (args.workload, args.seed, args.trace, "-tiny" if args.tiny else "")
    with open(RESULTS / (tag + ".json"), "w") as fh:
        json.dump(record, fh, indent=1)

    print("# env " + json.dumps(env, sort_keys=True))
    for name, m in metrics.items():
        print("%-40s %14.6g %s" % (name, m["value"], m["unit"]))
    print("%-40s %14.6g ratio  (%d of %d checks failed)" % ("fail_frac", failed / attempted, failed, attempted))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
