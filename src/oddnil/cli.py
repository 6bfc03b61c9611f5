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
import sys

from . import combinat, cyclotomic, oddsym, verify
from .lincomb import format_terms
from .qgrade import format_qlaurent
from .skewpoly import format_skew, parse_skew

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


def _integer(text):
    """An integer flag: an optional leading - and then ASCII digits, read by
    combinat.read_natural, so 1_0, " 3" and non-ASCII digits are usage errors."""
    try:
        return -combinat.read_natural(text[1:]) if text[:1] == "-" else combinat.read_natural(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError("cannot read %r: %s" % (text, exc)) from exc


def _signed_partition_sum(terms):
    return format_terms(((mu, sign) for sign, mu in terms), lambda mu: "s(%s)" % combinat.format_partition(mu))


def _partition(text):
    return _parse(combinat.parse_partition, text)


def _schubert(perm, vars):
    w = _parse(combinat.parse_permutation, perm)
    _require(vars in (None, 0, len(w)), "--vars must match the permutation size")
    return format_skew(oddsym.schubert(w, len(w)))


def _grassmann_matrix(a):
    return "\n".join("[ " + " | ".join(map(format_skew, row)) + " ]" for row in cyclotomic.grassmann_matrix(a))


# each compute kind's required flags, its optional flags, and the function
# that takes exactly those flags as keywords (None for an optional flag not
# given) and returns the result text; any other flag is a usage error
COMPUTE_KINDS = {
    "schur": (("partition", "vars"), (), lambda partition, vars: format_skew(oddsym.schur(_partition(partition), vars))),
    "dual-schur": (("partition", "vars"), (),
                   lambda partition, vars: format_skew(oddsym.dual_schur(_partition(partition), vars))),
    "elementary": (("k", "vars"), (), lambda k, vars: format_skew(oddsym.elementary(k, vars))),
    "complete": (("k", "vars"), (), lambda k, vars: format_skew(oddsym.complete(k, vars))),
    "schubert": (("perm",), ("vars",), _schubert),
    "product": (("left", "right", "vars"), (),
                lambda left, right, vars: format_skew(_parse(parse_skew, left, vars) * _parse(parse_skew, right, vars))),
    "pieri": (("partition", "k", "vars"), (),
              lambda partition, k, vars: _signed_partition_sum(oddsym.pieri_expected(_partition(partition), k, vars))),
    "grassmann-matrix": (("a",), (), _grassmann_matrix),
    "oh-rank": (("a", "N"), ("dmax",),
                lambda a, N, dmax: format_qlaurent(cyclotomic.quotient_graded_rank(a, N, dmax))),
}


def cmd_compute(args):
    required, optional, compute = COMPUTE_KINDS[args.kind]
    given = [f for f in _COMPUTE_FLAGS if getattr(args, f) is not None]
    unread = ["--" + f for f in given if f not in required + optional]
    _require(not unread, "compute %s does not read %s; it takes %s"
             % (args.kind, ", ".join(unread), ", ".join("--" + f for f in required + optional)))
    _require(all(f in given for f in required), "%s needs %s" % (args.kind, " and ".join("--" + f for f in required)))
    # --vars 0 names no variables: a kind that needs --vars rejects it, and
    # schubert then takes the permutation's size
    least = 1 if "vars" in required else 0
    _require(args.vars is None or args.vars >= least, "--vars must be >= %d, got %s" % (least, args.vars))
    result = compute(**{f: getattr(args, f) for f in required + optional})
    print(json.dumps({"kind": args.kind, "result": result}, indent=2, sort_keys=True) if args.json else result)
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
    pc.add_argument("--a", type=_integer)
    pc.add_argument("--N", type=_integer)
    pc.add_argument("--vars", type=_integer, help="number of variables")
    pc.add_argument("--partition", type=str, help='comma list, e.g. "2,1"')
    pc.add_argument("--perm", type=str, help='one-line notation, e.g. "3 1 2"')
    pc.add_argument("--k", type=_integer)
    pc.add_argument("--left", type=str, help="polynomial text")
    pc.add_argument("--right", type=str, help="polynomial text")
    pc.add_argument("--dmax", type=_integer)
    pc.add_argument("--json", action="store_true")
    pc.set_defaults(func=cmd_compute)

    pv = sub.add_parser("verify", help="run verification checks")
    pv.add_argument("checks", nargs="+", help='check ids or "all"')
    pv.add_argument("--a", type=_integer)
    pv.add_argument("--b", type=_integer)
    pv.add_argument("--N", type=_integer)
    pv.add_argument("--dmax", type=_integer)
    pv.add_argument("--max-rank", type=_integer, help="clamp default sweeps to this thickness")
    pv.add_argument("--seed", type=_integer, default=verify.DEFAULT_SEED)
    pv.add_argument("--json", action="store_true")
    pv.add_argument("--parallel", type=_integer, default=1, help="worker processes; 1 runs the checks in this process")
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
