"""The four benchmark workloads.

Each workload has a ``make_inputs(seed, tiny)`` that builds its inputs
(set-up, timed apart) and a ``run_pass(inputs)`` that runs every item once,
closed-loop, in this process, and returns a ``PassResult``.  Operations are
timed on ``speed.clock``, which leaves out the reference-speed samples the
worker takes while a pass runs.  Expected values
travel inside the inputs, so a test can corrupt one and watch the pass
report a failure.  Library code is only ever reached through module
attributes (``verify.run_check``, ``oddops.divided_difference``), so the
tracer's patches are seen.
"""

import contextlib
import io
import json
import random
import time
from dataclasses import dataclass, field
from math import comb

import speed
from oddnil import cli, cyclotomic, evenoracle, oddops, oddsym, qgrade, skewpoly, verify

# fresh_algebra: polynomial shape.  Exponent sum <= 7 is Z-degree <= 14.
FRESH_OPS = 2000
FRESH_OPS_TINY = 30
FRESH_VARS = (4, 6)
FRESH_TERMS = (4, 20)
FRESH_MAX_EXP_SUM = 7
FRESH_COEFF = 5


@dataclass
class PassResult:
    """One closed-loop pass: per-operation latencies and start times
    (``time.perf_counter``, to match them with speed samples), one outcome
    per correctness check, and the outputs whose digest must repeat."""

    op_ms: list = field(default_factory=list)
    op_t: list = field(default_factory=list)
    outcomes: list = field(default_factory=list)
    outputs: list = field(default_factory=list)

    def timed(self, fn, *args, **kwargs):
        """fn(*args, **kwargs), recorded as one operation."""
        self.op_t.append(time.perf_counter())
        t = speed.clock()
        out = fn(*args, **kwargs)
        self.op_ms.append((speed.clock() - t) * 1e3)
        return out


# ---------------------------------------------------------------------------
# registry: `oddnil verify all --parallel 1 --seed <seed> --json`

_REGISTRY_TINY = ["e_h_relation", "mod2", "oh_rank", "sentinel_x1sq_central"]


def registry_inputs(seed, tiny=False):
    ids = _REGISTRY_TINY if tiny else ["all"]
    expected = {cid: verify.EXPECTED_STATUS[cid] for cid in (_REGISTRY_TINY if tiny else verify.check_ids())}
    argv = ["verify", *ids, "--parallel", "1", "--seed", str(seed), "--json"]
    if tiny:
        argv += ["--max-rank", "2"]
    return {"argv": argv, "expected": expected}


def registry_pass(inputs):
    """One CLI invocation; each check is timed by a shim around
    ``verify.run_check`` so the per-check latencies are an operation
    stream of their own."""
    res = PassResult()
    real = verify.run_check

    def timed_run_check(*args, **kwargs):
        return res.timed(real, *args, **kwargs)

    out = io.StringIO()
    verify.run_check = timed_run_check
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(inputs["argv"])
    finally:
        verify.run_check = real
    text = out.getvalue()
    res.outputs.append(text)
    res.outcomes.append(code == 0)
    seen = {}
    for entry in json.loads(text):
        seen[entry["check"]] = entry
    for cid, want in inputs["expected"].items():
        entry = seen.get(cid)
        ok = entry is not None and entry["status"] == want
        if ok and want == "fail":
            # a must-fail sentinel has to show its counterexample
            ok = bool(entry["details"])
        res.outcomes.append(ok)
    return res


# ---------------------------------------------------------------------------
# thick_calculus: evaluation-bound checks at the edge of the envelope

_THICK = [
    ("identity_decomposition", {"a_list": [4]}),
    ("nil_orth", {"a_list": [4]}),
    ("matrix_iso", {"a_list": [3]}),
    ("eaeb_decomposition", {"pairs": [(2, 3)]}),
    ("oval", {"pairs": [(2, 3), (3, 2)]}),
    # nearly all of ea_standard's time is its seeded random boxes: at the
    # default 20 per thickness it took 0.30-0.85 s depending on the seed,
    # which reordered the checks' latencies; 5 keep the seed's share small
    ("ea_standard", {"random_boxes": 5}),
    ("ea_eone", {"a_max": 4}),
]
_THICK_TINY = [
    ("identity_decomposition", {"a_list": [2]}),
    ("nil_orth", {"a_list": [2]}),
    ("matrix_iso", {"a_list": [2]}),
    ("eaeb_decomposition", {"pairs": [(1, 1)]}),
    ("oval", {"pairs": [(1, 1)]}),
    ("ea_standard", {"a_max": 2, "random_boxes": 2}),
    ("ea_eone", {"a_max": 2}),
]


def thick_inputs(seed, tiny=False):
    items = _THICK_TINY if tiny else _THICK
    return {"seed": seed, "checks": [(cid, dict(p), "pass") for cid, p in items]}


def _check_items_pass(inputs, res):
    for cid, params, want in inputs["checks"]:
        report = res.timed(verify.run_check, cid, params, inputs["seed"])
        res.outcomes.append(report.status == want)
        res.outputs.append(json.dumps(report.to_json_dict(), sort_keys=True))


def thick_pass(inputs):
    res = PassResult()
    _check_items_pass(inputs, res)
    return res


# ---------------------------------------------------------------------------
# quotient_lattice: dense skew products, eps-word expansion, HNF/Smith


def quotient_inputs(seed, tiny=False):
    rank_pairs = [(2, 4)] if tiny else [(3, 7)]
    # oh_rank at (3, 6) as well would keep two repetitions from fitting
    # in a 30 s run; (4, 6) is the denser of the two
    oh_pairs = [(2, 3)] if tiny else [(4, 6)]
    box = (2, 3) if tiny else (3, 6)
    return {
        "seed": seed,
        # N > 6 is outside the CLI envelope, so these go straight to cyclotomic
        "ranks": [(a, n, comb(n, a), qgrade.q_cardinality_box(a, n - a)) for a, n in rank_pairs],
        "checks": [("oh_rank", {"pairs": [p]}, "pass") for p in oh_pairs],
        "schur_box": box,
    }


def quotient_pass(inputs):
    res = PassResult()
    for a, n, total, balanced in inputs["ranks"]:
        q = res.timed(cyclotomic.quotient_graded_rank, a, n)
        centered = q * qgrade.QLaurent.q_power(-a * (n - a))
        res.outcomes.append(q.at_one() == total and centered.is_bar_invariant() and centered == balanced)
        res.outputs.append(qgrade.format_qlaurent(q))
    _check_items_pass(inputs, res)
    rep = res.timed(cyclotomic.schur_box_images, *inputs["schur_box"])
    res.outcomes.append(bool(rep["vanishing"]) and rep["vanishing_ok"] and rep["independent_ok"])
    res.outputs.append(repr((rep["vanishing"], sorted(rep["independent_per_degree"].items()))))
    return res


# ---------------------------------------------------------------------------
# fresh_algebra: a stream of never-repeating skew polynomials


def _random_skew(rng, nvars):
    want = rng.randint(*FRESH_TERMS)
    terms = {}
    while len(terms) < want:
        exps = [0] * nvars
        for _ in range(rng.randint(0, FRESH_MAX_EXP_SUM)):
            exps[rng.randrange(nvars)] += 1
        terms[tuple(exps)] = rng.choice([c for c in range(-FRESH_COEFF, FRESH_COEFF + 1) if c])
    return skewpoly.SkewPolynomial(nvars, terms)


def gf2_product(f, g):
    """The mod-2 image of f*g from the independent commutative oracle."""
    return evenoracle.Gf2Poly(f.nvars, f.terms) * evenoracle.Gf2Poly(g.nvars, g.terms)


def fresh_inputs(seed, tiny=False):
    rng = random.Random(seed)
    ops = []
    for _ in range(FRESH_OPS_TINY if tiny else FRESH_OPS):
        nvars = rng.randint(*FRESH_VARS)
        ops.append((_random_skew(rng, nvars), _random_skew(rng, nvars), rng.randint(1, nvars - 1)))
    return {"ops": ops, "mod2_oracle": gf2_product}


def fresh_pass(inputs):
    res = PassResult()
    dd = oddops.divided_difference
    oracle = inputs["mod2_oracle"]
    for f, g, i in inputs["ops"]:
        res.op_t.append(time.perf_counter())
        t = speed.clock()
        fg = f * g
        # twisted Leibniz rule: d_i(fg) = d_i(f) g + s_i(f) d_i(g)
        leibniz = dd(i, fg) == dd(i, f) * g + skewpoly.apply_simple_transposition(i, f) * dd(i, g)
        mod2 = oddsym.mod2_reduction(fg) == oracle(f, g)
        res.op_ms.append((speed.clock() - t) * 1e3)
        res.outcomes.append(leibniz and mod2)
        # a fingerprint, not the product: keeping 2000 products would
        # inflate peak_rss_mb with memory the library never holds
        res.outputs.append((len(fg.terms), sum(fg.terms.values())))
    return res


WORKLOADS = {
    "registry": (registry_inputs, registry_pass),
    "thick_calculus": (thick_inputs, thick_pass),
    "quotient_lattice": (quotient_inputs, quotient_pass),
    "fresh_algebra": (fresh_inputs, fresh_pass),
}
