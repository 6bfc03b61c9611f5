"""Command-line front end: compute objects and run the verification
registry.

Exit codes: 0 success (and, for verify, every check matched its expected
status), 1 verification failure or internal error, 2 usage error (a flag,
a check id, or an input outside the domain of what it asks for).  All results go to stdout,
diagnostics to stderr.  With --json, output is byte-identical across runs
for the same invocation and seed (wall times are zeroed in JSON for this
reason; the text report shows real timings).
"""

import argparse
import json
import os
import sys

from . import combinat, cyclotomic, oddsym, verify
from .lincomb import format_terms
from .qgrade import format_qlaurent
from .skewpoly import format_skew, parse_skew

# each compute kind's required and optional flags; any other is a usage error
COMPUTE_KINDS = {
    "schur": (("partition", "vars"), ()),
    "dual-schur": (("partition", "vars"), ()),
    "elementary": (("k", "vars"), ()),
    "complete": (("k", "vars"), ()),
    "schubert": (("perm",), ("vars",)),
    "product": (("left", "right", "vars"), ()),
    "pieri": (("partition", "k", "vars"), ()),
    "grassmann-matrix": (("a",), ()),
    "oh-rank": (("a", "N"), ("dmax",)),
}
_COMPUTE_FLAGS = ("a", "N", "vars", "partition", "perm", "k", "left", "right", "dmax")


class UsageError(ValueError):
    pass


def _require(cond, message):
    if not cond:
        raise UsageError(message)


def _parse(parser, text, *args):
    """Read a flag's text; text that does not parse is a usage error."""
    try:
        return parser(text, *args)
    except ValueError as exc:
        raise UsageError("cannot read %r: %s" % (text, exc)) from exc


def _signed_partition_sum(terms):
    return format_terms(((mu, sign) for sign, mu in terms), lambda mu: "s(%s)" % combinat.format_partition(mu))


def _check_compute_flags(args):
    required, optional = COMPUTE_KINDS[args.kind]
    given = [f for f in _COMPUTE_FLAGS if getattr(args, f) is not None]
    unread = ["--" + f for f in given if f not in required + optional]
    _require(not unread, "compute %s does not read %s; it takes %s"
             % (args.kind, ", ".join(unread), ", ".join("--" + f for f in required + optional)))
    _require(all(f in given for f in required), "%s needs %s" % (args.kind, " and ".join("--" + f for f in required)))
    # --vars 0 names no variables: a kind that needs --vars rejects it, and
    # schubert then takes the permutation's size
    least = 1 if "vars" in required else 0
    _require(args.vars is None or args.vars >= least, "--vars must be >= %d, got %s" % (least, args.vars))


def cmd_compute(args):
    _check_compute_flags(args)
    kind = args.kind
    if kind == "schur":
        alpha = _parse(combinat.parse_partition, args.partition)
        result = format_skew(oddsym.schur(alpha, args.vars))
    elif kind == "dual-schur":
        alpha = _parse(combinat.parse_partition, args.partition)
        result = format_skew(oddsym.dual_schur(alpha, args.vars))
    elif kind == "elementary":
        result = format_skew(oddsym.elementary(args.k, args.vars))
    elif kind == "complete":
        result = format_skew(oddsym.complete(args.k, args.vars))
    elif kind == "schubert":
        w = _parse(combinat.parse_permutation, args.perm)
        nvars = args.vars or len(w)
        _require(nvars == len(w), "--vars must match the permutation size")
        result = format_skew(oddsym.schubert(w, nvars))
    elif kind == "product":
        f = _parse(parse_skew, args.left, args.vars)
        g = _parse(parse_skew, args.right, args.vars)
        result = format_skew(f * g)
    elif kind == "pieri":
        alpha = _parse(combinat.parse_partition, args.partition)
        result = _signed_partition_sum(oddsym.pieri_expected(alpha, args.k, args.vars))
    elif kind == "grassmann-matrix":
        mat = cyclotomic.grassmann_matrix(args.a)
        result = "\n".join("[ " + " | ".join(format_skew(e) for e in row) + " ]" for row in mat)
    elif kind == "oh-rank":
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
    _require(args.parallel >= 1, "--parallel must be >= 1, got %d" % args.parallel)
    ids = args.checks
    if "all" in ids:
        _require(ids == ["all"], '"all" cannot be combined with check ids')
        ids = verify.check_ids()
    else:
        for cid in ids:
            if cid not in verify.REGISTRY:
                raise verify.UnknownCheckError("unknown check id %r" % cid)
    params = {}
    if any(v is not None for v in (args.a, args.b, args.N, args.dmax)):
        _require(len(ids) == 1, "--a/--b/--N/--dmax need a single named check")
        _require(args.max_rank is None, "--max-rank cannot be combined with --a/--b/--N/--dmax")
        params[ids[0]] = verify.params_from_flags(ids[0], a=args.a, b=args.b, n_param=args.N, dmax=args.dmax)
    elif args.max_rank is not None:
        _require(args.max_rank >= 1, "--max-rank must be >= 1, got %d" % args.max_rank)
        params = {cid: verify.params_for_max_rank(cid, args.max_rank) for cid in ids}
    reports = verify.run_many(ids, params, seed=args.seed, parallel=args.parallel)
    # a sweep that --max-rank emptied ran nothing above the rank, as asked
    emptied = [args.max_rank is not None and r.status == "skipped" and not r.instances for r in reports]
    ok = verify.all_match_expected([r for r, e in zip(reports, emptied) if not e])
    if args.json:
        print(verify.reports_to_json(reports))
    else:
        for r, e in zip(reports, emptied):
            expected = verify.EXPECTED_STATUS[r.check_id]
            marker = "ok" if e or r.status == expected else "UNEXPECTED"
            extra = " (must-fail sentinel)" if expected == "fail" else ""
            print(
                "%-28s %-7s [%s]%s instances=%d wall=%.2fs"
                % (r.check_id, r.status, marker, extra, r.instances, r.wall_time)
            )
            if r.status == "fail":
                for t in r.details[:3]:
                    print("    counterexample: input=%s expected=%s actual=%s" % t)
            elif r.status in ("skipped", "error"):
                for t in r.details[:1]:
                    print("    %s: %s" % (r.status, t[2]))
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
    pc.add_argument("--N", type=int)
    pc.add_argument("--vars", type=int, help="number of variables")
    pc.add_argument("--partition", type=str, help='comma list, e.g. "2,1"')
    pc.add_argument("--perm", type=str, help='one-line notation, e.g. "3 1 2"')
    pc.add_argument("--k", type=int)
    pc.add_argument("--left", type=str, help="polynomial text")
    pc.add_argument("--right", type=str, help="polynomial text")
    pc.add_argument("--dmax", type=int)
    pc.add_argument("--json", action="store_true")
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
    except (UsageError, verify.UnknownCheckError, combinat.BoxViolationError, combinat.DomainError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except Exception as exc:
        # one line instead of a traceback
        print("internal error: %s" % verify.error_line(exc), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
