"""One benchmark process: import oddnil, build a workload's inputs, run
the workload once cold and optionally again warm in the same process, and
print one JSON line with the timings, the reference-speed samples, the
outcomes and memory.

Started by run.py with ``PYTHONPATH`` pointing at the library sources; the
spawn time it passes on lets set-up include interpreter start.

    python3 benchmarks/worker.py --workload registry --seed 1 --spawned <monotonic> [--passes 2] [--trace SPANS_FILE]
"""

import argparse
import contextlib
import hashlib
import json
import resource
import time

import speed

# reference-speed samples taken right after set-up, outside every clock
SETUP_REF_SAMPLES = 10


def run_pass(run, inputs, sampled=True):
    """One pass.  Unless ``sampled`` is false, speed samples are taken all
    through it; their pauses are not in ``wall_s`` or ``op_ms``, and every
    time is relative to the start of the pass."""
    meter = speed.Speedometer() if sampled else None
    with meter or contextlib.nullcontext():
        t0 = time.perf_counter()
        t = speed.clock()
        res = run(inputs)
        wall = speed.clock() - t
    # hashed outside the clock; outputs are text or reprs of plain values
    digest = hashlib.sha256()
    for out in res.outputs:
        digest.update((out if isinstance(out, str) else repr(out)).encode())
        digest.update(b"\0")
    return {
        "wall_s": wall,
        "op_ms": res.op_ms,
        "op_t": [x - t0 for x in res.op_t],
        "ref": [(x - t0, d) for x, d in meter.samples] if meter else [],
        "attempted": len(res.outcomes),
        "failed": res.outcomes.count(False),
        "digest": digest.hexdigest(),
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--spawned", type=float, required=True, help="time.monotonic() just before spawn")
    p.add_argument("--passes", type=int, default=2, choices=(0, 1, 2), help="0 measures set-up only")
    p.add_argument("--trace", metavar="SPANS_FILE", help="trace the first pass and write its spans here")
    p.add_argument("--tiny", action="store_true", help="minimal inputs, for tests")
    args = p.parse_args(argv)

    t = time.perf_counter()
    import oddnil.cli  # noqa: F401  (the whole library, as `oddnil` loads it)

    import_s = time.perf_counter() - t
    import workloads

    make_inputs, run = workloads.WORKLOADS[args.workload]
    inputs = make_inputs(args.seed, args.tiny)
    result = {"setup_s": time.monotonic() - args.spawned, "import_s": import_s, "passes": []}
    result["ref_s"] = [speed.time_reference() for _ in range(SETUP_REF_SAMPLES)]
    for k in range(args.passes):
        if args.trace and k == 0:
            import tracer

            # unsampled: spans would count the sampling pauses
            with tracer.Tracer() as tr:
                result["passes"].append(run_pass(run, inputs, sampled=False))
            result["layers"] = tr.metrics()
            tr.write_spans(args.trace)
        else:
            result["passes"].append(run_pass(run, inputs))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))


if __name__ == "__main__":
    main()
