"""Command-line front end: compute objects and run the verification
registry.

Exit codes: 0 success (and, for verify, every check matched its expected
status), 1 verification failure, 2 usage error.  All results go to stdout,
diagnostics to stderr.  With --json, output is byte-identical across runs
for the same invocation and seed (wall times are zeroed in JSON for this
reason; the text report shows real timings).
"""

import argparse
import json
import os
import sys

from . import combinat, cyclotomic, oddsym, verify
from .qgrade import format_qlaurent
from .skewpoly import format_skew, parse_skew

COMPUTE_KINDS = (
    "schur",
    "dual-schur",
    "elementary",
    "complete",
    "schubert",
    "product",
    "pieri",
    "grassmann-matrix",
    "oh-rank",
)


class UsageError(ValueError):
    pass


def _require(cond, message):
    if not cond:
        raise UsageError(message)


def _signed_partition_sum(terms):
    parts = []
    for sign, mu in terms:
        body = "s(%s)" % combinat.format_partition(mu)
        if not parts:
            parts.append(body if sign > 0 else "-" + body)
        else:
            parts.append(("+ " if sign > 0 else "- ") + body)
    return " ".join(parts) if parts else "0"


def cmd_compute(args):
    kind = args.kind
    _require(args.vars is None or args.vars >= 0, "--vars must be >= 0, got %s" % args.vars)
    if kind == "schur":
        _require(args.partition is not None and args.vars, "schur needs --partition and --vars")
        alpha = combinat.parse_partition(args.partition)
        result = format_skew(oddsym.schur(alpha, args.vars))
    elif kind == "dual-schur":
        _require(args.partition is not None and args.vars, "dual-schur needs --partition and --vars")
        alpha = combinat.parse_partition(args.partition)
        result = format_skew(oddsym.dual_schur(alpha, args.vars))
    elif kind == "elementary":
        _require(args.k is not None and args.vars, "elementary needs --k and --vars")
        result = format_skew(oddsym.elementary(args.k, args.vars))
    elif kind == "complete":
        _require(args.k is not None and args.vars, "complete needs --k and --vars")
        result = format_skew(oddsym.complete(args.k, args.vars))
    elif kind == "schubert":
        _require(args.perm is not None, "schubert needs --perm")
        w = combinat.parse_permutation(args.perm)
        nvars = args.vars or len(w)
        _require(nvars == len(w), "--vars must match the permutation size")
        result = format_skew(oddsym.schubert(w, nvars))
    elif kind == "product":
        _require(args.left is not None and args.right is not None and args.vars,
                 "product needs --left, --right and --vars")
        f = parse_skew(args.left, args.vars)
        g = parse_skew(args.right, args.vars)
        result = format_skew(f * g)
    elif kind == "pieri":
        _require(args.partition is not None and args.k is not None and args.vars,
                 "pieri needs --partition, --k and --vars")
        alpha = combinat.parse_partition(args.partition)
        result = _signed_partition_sum(oddsym.pieri_expected(alpha, args.k, args.vars))
    elif kind == "grassmann-matrix":
        _require(args.a is not None, "grassmann-matrix needs --a")
        mat = cyclotomic.grassmann_matrix(args.a)
        result = "\n".join("[ " + " | ".join(format_skew(e) for e in row) + " ]" for row in mat)
    elif kind == "oh-rank":
        _require(args.a is not None and args.N is not None, "oh-rank needs --a and --N")
        result = format_qlaurent(cyclotomic.quotient_graded_rank(args.a, args.N, args.dmax))
    else:  # pragma: no cover - argparse restricts choices
        raise UsageError("unknown compute kind %r" % kind)

    if args.json:
        payload = {"kind": kind, "result": result}
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(result)
    return 0


def cmd_verify(args):
    ids = args.checks
    if ids == ["all"]:
        ids = verify.check_ids()
    else:
        for cid in ids:
            if cid not in verify.REGISTRY:
                raise verify.UnknownCheckError("unknown check id %r" % cid)
    params = None
    if any(v is not None for v in (args.a, args.b, args.N, args.dmax)):
        _require(len(ids) == 1, "--a/--b/--N/--dmax need a single named check")
        params = verify.params_from_flags(ids[0], a=args.a, b=args.b, n_param=args.N, dmax=args.dmax)
    reports = []
    if params is None and args.max_rank is not None:
        for cid in ids:
            p = verify.params_for_max_rank(cid, args.max_rank)
            reports.extend(verify.run_many([cid], p, seed=args.seed, parallel=1))
    else:
        reports = verify.run_many(ids, params, seed=args.seed, parallel=args.parallel)
    ok = verify.all_match_expected(reports)
    if args.json:
        print(verify.reports_to_json(reports))
    else:
        for r in reports:
            expected = verify.EXPECTED_STATUS[r.check_id]
            marker = "ok" if r.status == expected else "UNEXPECTED"
            extra = " (must-fail sentinel)" if expected == "fail" else ""
            print(
                "%-28s %-7s [%s]%s instances=%d wall=%.2fs"
                % (r.check_id, r.status, marker, extra, r.instances, r.wall_time)
            )
            if r.status == "fail":
                for t in r.details[:3]:
                    print("    counterexample: input=%s expected=%s actual=%s" % t)
            elif r.status == "skipped":
                for t in r.details[:1]:
                    print("    skipped: %s" % (t[2],))
            elif r.details:
                for t in r.details[:3]:
                    print("    %s: expected=%s actual=%s" % t)
    return 0 if ok else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="oddnil",
        description="Exact calculator and verification harness for the odd "
        "nilHecke algebra and odd symmetric polynomials.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("compute", help="compute and print an object")
    pc.add_argument("kind", choices=COMPUTE_KINDS)
    pc.add_argument("--a", type=int)
    pc.add_argument("--b", type=int)
    pc.add_argument("--N", type=int)
    pc.add_argument("--vars", type=int, help="number of variables")
    pc.add_argument("--partition", type=str, help='comma list, e.g. "2,1"')
    pc.add_argument("--perm", type=str, help='one-line notation, e.g. "3 1 2"')
    pc.add_argument("--k", type=int)
    pc.add_argument("--left", type=str, help="polynomial text")
    pc.add_argument("--right", type=str, help="polynomial text")
    pc.add_argument("--dmax", type=int)
    pc.add_argument("--seed", type=int, default=verify.DEFAULT_SEED)
    pc.add_argument("--json", action="store_true")
    pc.add_argument("--parallel", type=int, default=os.cpu_count() or 1)
    pc.set_defaults(func=cmd_compute)

    pv = sub.add_parser("verify", help="run verification checks")
    pv.add_argument("checks", nargs="+", help='check ids or "all"')
    pv.add_argument("--a", type=int)
    pv.add_argument("--b", type=int)
    pv.add_argument("--N", type=int)
    pv.add_argument("--dmax", type=int)
    pv.add_argument("--max-rank", type=int, help="clamp default sweeps to this thickness")
    pv.add_argument("--seed", type=int, default=verify.DEFAULT_SEED)
    pv.add_argument("--json", action="store_true")
    pv.add_argument("--parallel", type=int, default=os.cpu_count() or 1)
    pv.set_defaults(func=cmd_verify)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, verify.UnknownCheckError, combinat.BoxViolationError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
