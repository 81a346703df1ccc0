"""Command-line front end.

Every subcommand prints one JSON document on stdout.  Exit codes separate
three outcomes: 0 the computation succeeded and any verdict is decided,
2 the engine could not decide (boundary or out-of-catalog case), 1 an
actual error (bad flags, malformed expressions, module failures).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from typing import Any, Dict, Optional, Tuple

from .corpus import run_all
from .embanalyzer import (
    EmbeddingProblem,
    RateFormula,
    Verdict,
    compactness,
    entropy_rate,
    nuclearity,
)
from .seqcore import (
    ModulusRejected,
    StandardizeError,
    _minimal_kappa0,
    boyd_indices,
    boyd_indices_numeric,
    certify_admissible,
    standardize,
)
from .seqdsl import (
    EvalOverflow,
    SequenceError,
    SequenceExpr,
    canonicalize,
    evaluate,
    log2_value,
    parse,
    render,
)
from .seqspacelab import (
    FiniteSection,
    embedding_norm_closed,
    embedding_norm_search,
    entropy_lower,
    entropy_upper,
    finite_section,
    nuclear_norm_oracle,
    nuclear_norm_tong,
    rate_fit,
)

__all__ = ["main", "run"]


# ---------------------------------------------------------------------------
# JSON helpers

def _jsonable(x: Any) -> Any:
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, float):
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        if math.isnan(x):
            return "nan"
        return x
    if isinstance(x, SequenceExpr):
        return render(x)
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, (str, int, bool)) or x is None:
        return x
    return str(x)


def _nonfinite_key(x: Any, key: str = "result") -> Optional[str]:
    """The key of the first inf or nan float in a payload (an entry of a list
    reports the list's key), or None when every float is finite."""
    if isinstance(x, float):
        return None if math.isfinite(x) else key
    if isinstance(x, dict):
        items = x.items()
    elif isinstance(x, (list, tuple)):
        items = ((key, v) for v in x)
    else:
        return None
    for k, v in items:
        found = _nonfinite_key(v, str(k))
        if found is not None:
            return found
    return None


def _verdict_payload(v: Verdict) -> Dict[str, Any]:
    return {
        "status": v.status,
        "tag": v.tag,
        "target": str(v.target) if v.target is not None else None,
        "criterion": render(v.tested) if v.tested is not None else None,
        "evidence": _jsonable(v.evidence),
    }


def _rate_payload(f: RateFormula) -> Dict[str, Any]:
    return {
        "kind": f.kind,
        "k_exponent": _jsonable(f.k_exponent),
        "log_exponent": _jsonable(f.log_exponent),
        "residual": f.residual,
        "ratio": render(f.ratio_expr) if f.ratio_expr is not None else None,
        "notes": list(f.notes),
        "tag": f.tag,
    }


def _verdict_code(status: str) -> int:
    return 0 if status in ("holds", "fails") else 2


# ---------------------------------------------------------------------------
# seq subcommands

def _cmd_seq_parse(args) -> Tuple[dict, int]:
    e = parse(args.expr)
    prof = canonicalize(e)
    payload = {
        "expr": render(e),
        "classified": True,  # the parser accepts only classified expressions
        "canonical": prof.canonical,
        "rate": _jsonable(prof.rate),
        "log_exponent": _jsonable(prof.log_exponent),
        "sv_factor": render(prof.sv_factor) if prof.sv_factor is not None else None,
        "boyd_lower": _jsonable(prof.boyd_lower),
        "boyd_upper": _jsonable(prof.boyd_upper),
    }
    return payload, 0


def _cmd_seq_eval(args) -> Tuple[dict, int]:
    e = parse(args.expr)
    indices = args.j if args.j else list(range(0, 17))
    values = []
    for j in indices:
        lg = log2_value(e, j)
        try:
            val: Optional[float] = evaluate(e, j)
        except EvalOverflow:
            val = None
        values.append({"j": j, "log2": _jsonable(lg), "value": val})
    return {"expr": render(e), "values": values}, 0


def _cmd_seq_boyd(args) -> Tuple[dict, int]:
    e = parse(args.expr)
    fn = boyd_indices_numeric if args.numeric else boyd_indices
    b = fn(e, depth=args.depth)
    payload = {
        "exact": b.exact,
        "lower": _jsonable(b.lower),
        "upper": _jsonable(b.upper),
        "lower_bracket": [float(x) for x in b.lower_bracket],
        "upper_bracket": [float(x) for x in b.upper_bracket],
        "depth": b.depth,
    }
    return payload, 0


def _cmd_seq_admissible(args) -> Tuple[dict, int]:
    cert = certify_admissible(parse(args.expr), window=args.window)
    payload = {
        "d0": cert.d0,
        "d1": cert.d1,
        "log2_d0": _jsonable(cert.log2_d0),
        "log2_d1": _jsonable(cert.log2_d1),
        "window": cert.window,
        "exact": cert.exact,
        "strongly_increasing": cert.strongly_increasing(),
    }
    return payload, 0


def _cmd_seq_standardize(args) -> Tuple[dict, int]:
    sigma = parse(args.expr)
    growth = parse(args.growth)
    out = standardize(sigma, growth, kappa0=args.kappa0, prefix_len=args.prefix_len)
    kappa0 = args.kappa0
    if kappa0 is None:
        kappa0 = _minimal_kappa0(certify_admissible(growth, 8))
    return {"result": render(out), "kappa0": kappa0}, 0


# ---------------------------------------------------------------------------
# analyze

def _cmd_analyze(args) -> Tuple[dict, int]:
    problem = EmbeddingProblem.from_dict(vars(args))
    kind = args.kind
    if kind == "compact":
        v = compactness(problem)
        return {"compactness": _verdict_payload(v)}, _verdict_code(v.status)
    if kind == "nuclear":
        v = nuclearity(problem)
        return {"nuclearity": _verdict_payload(v)}, _verdict_code(v.status)
    if kind == "entropy":
        f = entropy_rate(problem)
        return {"entropy": _rate_payload(f)}, (2 if f.kind == "inconclusive" else 0)

    # classify: run everything that applies
    payload: Dict[str, Any] = {}
    undecided = False
    v = compactness(problem)
    payload["compactness"] = _verdict_payload(v)
    undecided |= v.status == "inconclusive"
    if problem.is_banach():
        n = nuclearity(problem)
        payload["nuclearity"] = _verdict_payload(n)
        undecided |= n.status == "inconclusive"
    else:
        payload["nuclearity"] = {
            "status": "inconclusive",
            "tag": "not-applicable",
            "target": None,
            "criterion": None,
            "evidence": {"reason": "nuclearity criterion needs Banach exponents"},
        }
    if problem.scale == "B":
        f = entropy_rate(problem)
        payload["entropy"] = _rate_payload(f)
        undecided |= f.kind == "inconclusive"
    return payload, (2 if undecided else 0)


# ---------------------------------------------------------------------------
# lab subcommands

def _section_payload(sec: FiniteSection) -> Dict[str, Any]:
    return {
        "beta": list(sec.beta),
        "M": list(sec.M),
        "p1": _jsonable(sec.p1), "q1": _jsonable(sec.q1),
        "p2": _jsonable(sec.p2), "q2": _jsonable(sec.q2),
        "n": sec.n,
    }


def _read_problem(path: str) -> EmbeddingProblem:
    with open(path) as fh:
        return EmbeddingProblem.from_dict(json.load(fh))


def _load_section(args) -> FiniteSection:
    if args.from_problem:
        return finite_section(_read_problem(args.from_problem),
                              levels=args.levels, density=args.density)
    if args.section:
        text = args.section
        if not text.lstrip().startswith(("{", "[")):
            with open(text) as fh:
                text = fh.read()
        return FiniteSection.from_dict(json.loads(text))
    raise ValueError("provide a section via --from-problem FILE or --section JSON")


def _cmd_lab_norm(args) -> Tuple[dict, int]:
    sec = _load_section(args)
    closed = embedding_norm_closed(sec)
    found = embedding_norm_search(sec, seed=args.seed,
                                  restarts=args.restarts, iters=args.iters)
    payload = {
        "closed": closed,
        "search": found,
        "gap": (found / closed - 1.0) if closed > 0 else None,
        "section": _section_payload(sec),
    }
    return payload, 0


def _cmd_lab_nuclear(args) -> Tuple[dict, int]:
    sec = _load_section(args)
    payload = {
        "exact": nuclear_norm_tong(sec),
        "oracle": nuclear_norm_oracle(sec),
        "section": _section_payload(sec),
    }
    return payload, 0


def _cmd_lab_entropy(args) -> Tuple[dict, int]:
    sec = _load_section(args)
    ks = args.k if args.k else list(range(1, 9))
    bounds = []
    for k in ks:
        up = entropy_upper(sec, k, dim_cap=args.dim_cap, k_cap=args.k_cap)
        lo = entropy_lower(sec, k)
        bounds.append({
            "k": k,
            "upper": up.value,
            "lower": lo.value,
            "upper_method": up.method,
            "lower_method": lo.method,
        })
    payload = {
        "bounds": bounds,
        "norm": embedding_norm_closed(sec),
        "section": _section_payload(sec),
    }
    return payload, 0


def _cmd_lab_ratefit(args) -> Tuple[dict, int]:
    fit = rate_fit(_read_problem(args.from_problem), levels=args.levels,
                   density=args.density)
    payload = {
        "ks": list(fit.ks),
        "bounds": [float(b) for b in fit.bounds],
        "slope": fit.slope,
        "predicted_slope": fit.predicted_slope,
        "ratio": fit.ratio,
        "non_decaying": fit.non_decaying,
    }
    return payload, 0


# ---------------------------------------------------------------------------
# reproduce

def _cmd_reproduce(args) -> Tuple[dict, int]:
    only = None if args.target == "all" else args.target
    report = run_all(only=only)
    return _jsonable(report), (0 if report["all_pass"] else 1)


# ---------------------------------------------------------------------------
# parser

def _add_problem_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--sigma", required=True, help="source weight expression")
    p.add_argument("--tau", required=True, help="target weight expression")
    p.add_argument("--p1", required=True)
    p.add_argument("--q1", required=True)
    p.add_argument("--p2", required=True)
    p.add_argument("--q2", required=True)
    p.add_argument("--dim", required=True, type=int,
                   help="domain dimension (mandatory, every criterion scales with it)")
    p.add_argument("--scale", choices=("B", "F"), default="B")


def _add_section_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--from-problem", metavar="FILE",
                   help="JSON file with sigma/tau/p1/q1/p2/q2/dim")
    p.add_argument("--section", metavar="JSON",
                   help="inline JSON (or a file path) with beta/M/p1/q1/p2/q2")
    p.add_argument("--levels", type=int, default=3,
                   help="dyadic levels when building from a problem")
    p.add_argument("--density", type=float, default=1.0,
                   help="block size scaling factor relative to 2^(j dim)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gsembed",
        description="Decide compactness/nuclearity of weighted sequence-space "
                    "embeddings, compute entropy asymptotics, and verify the "
                    "formulas on finite sections.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    seq = sub.add_parser("seq", help="sequence expression utilities")
    seqsub = seq.add_subparsers(dest="seq_command", required=True)

    sp = seqsub.add_parser("parse", help="parse and classify an expression")
    sp.add_argument("expr")
    sp.set_defaults(func=_cmd_seq_parse)

    se = seqsub.add_parser("eval", help="evaluate an expression at indices")
    se.add_argument("expr")
    se.add_argument("--j", type=int, nargs="+", help="indices (default 0..16)")
    se.set_defaults(func=_cmd_seq_eval)

    sb = seqsub.add_parser("boyd", help="Boyd indices, exact or bracketed")
    sb.add_argument("expr")
    sb.add_argument("--depth", type=int, default=256)
    sb.add_argument("--numeric", action="store_true",
                    help="force window scanning even for canonical forms")
    sb.set_defaults(func=_cmd_seq_boyd)

    sa = seqsub.add_parser("admissible", help="two-sided consecutive-ratio bounds")
    sa.add_argument("expr")
    sa.add_argument("--window", type=int, default=8)
    sa.set_defaults(func=_cmd_seq_admissible)

    ss = seqsub.add_parser("standardize",
                           help="resample along the inverse of a growth scale")
    ss.add_argument("expr")
    ss.add_argument("--growth", required=True,
                    help="strongly increasing scale expression, e.g. '2^(j)'")
    ss.add_argument("--kappa0", type=int, default=None)
    ss.add_argument("--prefix-len", type=int, default=None)
    ss.set_defaults(func=_cmd_seq_standardize)

    an = sub.add_parser("analyze", help="decide an embedding problem")
    _add_problem_flags(an)
    an.add_argument("--kind", choices=("compact", "nuclear", "entropy", "classify"),
                    default="classify")
    an.set_defaults(func=_cmd_analyze)

    lab = sub.add_parser("lab", help="finite-section numerics")
    labsub = lab.add_subparsers(dest="lab_command", required=True)

    ln = labsub.add_parser("norm", help="operator norm: closed form vs search")
    _add_section_flags(ln)
    ln.add_argument("--seed", type=int, default=0)
    ln.add_argument("--restarts", type=int, default=3)
    ln.add_argument("--iters", type=int, default=200)
    ln.set_defaults(func=_cmd_lab_norm)

    lnu = labsub.add_parser("nuclear", help="exact nuclear norm and oracles")
    _add_section_flags(lnu)
    lnu.set_defaults(func=_cmd_lab_nuclear)

    le = labsub.add_parser("entropy", help="two-sided entropy number bounds")
    _add_section_flags(le)
    le.add_argument("--k", type=int, nargs="+", help="entropy indices (default 1..8)")
    le.add_argument("--dim-cap", type=int, default=20)
    le.add_argument("--k-cap", type=int, default=40)
    le.set_defaults(func=_cmd_lab_entropy)

    lr = labsub.add_parser("ratefit", help="fit the entropy decay exponent")
    lr.add_argument("--from-problem", metavar="FILE", required=True)
    lr.add_argument("--levels", type=int, nargs="+", default=[1, 2, 3, 4])
    lr.add_argument("--density", type=float, default=1.0)
    lr.set_defaults(func=_cmd_lab_ratefit)

    rp = sub.add_parser("reproduce", help="run bundled worked examples")
    rp.add_argument("target", help="case id, or 'all'")
    rp.set_defaults(func=_cmd_reproduce)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        payload, code = args.func(args)
        # a result beyond the float range (inf or nan) is an error too
        bad = _nonfinite_key(payload)
        if bad is not None:
            raise ValueError(f"{bad}: the result leaves the float range")
        text = json.dumps(payload, indent=2, allow_nan=False)
    except (SequenceError, StandardizeError, ModulusRejected, ValueError,
            KeyError, ZeroDivisionError, OverflowError, OSError) as exc:
        print(json.dumps({"error": str(exc)}))
        return 1
    print(text)
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
