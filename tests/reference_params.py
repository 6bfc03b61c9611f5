"""The three parameter heuristics that ``verify``'s table of parameter
kinds replaced, kept as a test oracle.

``_envelope_violation``, ``params_from_flags`` and ``params_for_max_rank``
and the two pair sets are the earlier code, unchanged.  Where a check has
(a, N) pairs, the caller sets ``pair_kind`` to ``"aN"`` in the params it
passes to ``_envelope_violation``, as the earlier ``run_check`` did.
"""

from oddnil.verify import ENVELOPE, default_params


def _envelope_violation(params):
    if params.get("a_max", 0) > ENVELOPE["a"]:
        return "a_max=%d exceeds a <= %d" % (params["a_max"], ENVELOPE["a"])
    # single-a checks (Jacobi-Trudi runs at 6 by design)
    if params.get("a", 0) > 6:
        return "a=%d exceeds the supported envelope" % params["a"]
    if any(v > ENVELOPE["a"] for v in params.get("a_list", [])):
        return "a_list=%r exceeds a <= %d" % (params["a_list"], ENVELOPE["a"])
    for pr in params.get("pairs", []):
        if isinstance(pr, (list, tuple)) and len(pr) == 2:
            x, y = pr
            if params.get("pair_kind") == "aN":
                if x > ENVELOPE["a"] or y > ENVELOPE["N"]:
                    return "pair %r exceeds a <= %d, N <= %d" % (pr, ENVELOPE["a"], ENVELOPE["N"])
            elif x + y > ENVELOPE["ab_total"]:
                return "pair %r exceeds a+b <= %d" % (pr, ENVELOPE["ab_total"])
    for key in ("dmax", "deg_max", "f_dmax"):
        if params.get(key, 0) > ENVELOPE["degree"]:
            return "%s=%d exceeds degree <= %d" % (key, params[key], ENVELOPE["degree"])
    if params.get("n_max", 0) > ENVELOPE["N"]:
        return "n_max=%d exceeds N <= %d" % (params["n_max"], ENVELOPE["N"])
    if params.get("total_max", 0) > ENVELOPE["ab_total"]:
        return "total_max=%d exceeds a+b+c <= %d" % (params["total_max"], ENVELOPE["ab_total"])
    return None


def params_from_flags(check_id, a=None, b=None, n_param=None, dmax=None):
    """Translate the generic CLI flags onto a check's own parameters."""
    defaults = default_params(check_id)
    out = {}
    if a is not None:
        if "a" in defaults:
            out["a"] = a
        elif "a_max" in defaults:
            out["a_max"] = a
        elif "a_list" in defaults:
            out["a_list"] = [a]
        elif "pairs" in defaults and b is not None:
            out["pairs"] = [(a, b)]
        elif "pairs" in defaults and n_param is not None:
            out["pairs"] = [(a, n_param)]
        elif "total_max" in defaults:
            out["total_max"] = a
        else:
            raise ValueError("check %r does not take --a" % check_id)
    if b is not None and "pairs" not in out:
        raise ValueError("--b needs a check indexed by (a, b) pairs, with --a")
    if n_param is not None:
        if "n_max" in defaults:
            out["n_max"] = n_param
        elif "pairs" in defaults and "pairs" not in out and a is not None:
            out["pairs"] = [(a, n_param)]
        elif "pairs" not in out and "quotient_pairs" not in defaults:
            raise ValueError("check %r does not take --N" % check_id)
    if dmax is not None:
        for key in ("dmax", "deg_max", "f_dmax", "m_max"):
            if key in defaults:
                out[key] = dmax
                break
        else:
            raise ValueError("check %r does not take --dmax" % check_id)
    return out


_AB_PAIR_CHECKS = {"oval", "eaeb_decomposition", "dapb"}
_AN_PAIR_CHECKS = {"oh_rank", "schur_box"}


def params_for_max_rank(check_id, max_rank):
    """Clamp a check's default sweep to thickness <= max_rank."""
    defaults = default_params(check_id)
    out = {}
    if "a_max" in defaults:
        out["a_max"] = min(defaults["a_max"], max_rank)
    if "a_list" in defaults:
        lst = [v for v in defaults["a_list"] if v <= max_rank]
        out["a_list"] = lst or [min(defaults["a_list"])]
    if "pairs" in defaults:
        if check_id in _AB_PAIR_CHECKS:
            kept = [p for p in defaults["pairs"] if p[0] + p[1] <= max_rank + 1]
        else:
            kept = [p for p in defaults["pairs"] if p[0] <= max_rank]
        out["pairs"] = kept or defaults["pairs"][:1]
    if "total_max" in defaults:
        out["total_max"] = min(defaults["total_max"], max_rank + 1)
    if "quotient_pairs" in defaults:
        out["quotient_pairs"] = [
            p for p in defaults["quotient_pairs"] if p[0] <= max_rank
        ] or defaults["quotient_pairs"][:1]
    return out
