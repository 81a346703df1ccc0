"""Command-line front end.

Every subcommand prints one JSON document on stdout.  Exit codes separate
three outcomes: 0 the computation succeeded and any verdict is decided,
2 the engine could not decide (boundary or out-of-catalog case), 1 an
actual error (bad flags, malformed expressions, module failures, or a
stdout whose reader has gone).

A command returns the library's own results, and run turns them into JSON
with one walk, _jsonable; a record prints as the dict of its fields.

Start-up is most of a command's run, so this module imports only seqdsl,
which every command parses with, and each command imports what it runs
inside its own function: seq parse and seq eval load nothing more, and
the other commands load only the modules they call (README lists them).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import TYPE_CHECKING, Any, Dict, Tuple

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

if TYPE_CHECKING:  # annotations only; each command imports what it runs
    from .embanalyzer import EmbeddingProblem
    from .seqspacelab import FiniteSection

__all__ = ["main", "run"]


# ---------------------------------------------------------------------------
# JSON

def _jsonable(x: Any, key: str = "result") -> Any:
    """A command's result as JSON values: a value whose class defines its
    own __str__ (a Fraction, a Target) prints as that string, an expression
    rendered, a record (a NamedTuple) as the dict of its fields.  A float
    that is not finite raises ValueError naming its key (an entry of a
    list reports the list's key)."""
    if isinstance(x, float):
        if not math.isfinite(x):
            raise ValueError(f"{key}: the result leaves the float range")
        return x
    if type(x).__str__ is not object.__str__:
        return str(x)
    if isinstance(x, SequenceExpr):
        return render(x)
    if hasattr(x, "_asdict"):
        x = x._asdict()
    if isinstance(x, dict):
        return {str(k): _jsonable(v, str(k)) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v, key) for v in x]
    return x


# ---------------------------------------------------------------------------
# seq subcommands

def _cmd_seq_parse(args) -> Tuple[Any, int]:
    e = parse(args.expr)
    # the parser accepts only classified expressions
    return {"expr": e, "classified": True, **canonicalize(e)._asdict()}, 0


def _cmd_seq_eval(args) -> Tuple[Any, int]:
    e = parse(args.expr)
    values = []
    for j in args.j or range(17):
        try:
            val = evaluate(e, j)
        except EvalOverflow:
            val = None
        values.append({"j": j, "log2": log2_value(e, j), "value": val})
    return {"expr": e, "values": values}, 0


def _cmd_seq_boyd(args) -> Tuple[Any, int]:
    from .seqcore import boyd_indices

    return boyd_indices(parse(args.expr)), 0


def _cmd_seq_admissible(args) -> Tuple[Any, int]:
    from .seqcore import certify_admissible

    return certify_admissible(parse(args.expr)), 0


def _cmd_seq_standardize(args) -> Tuple[Any, int]:
    from .seqcore import standardize

    return standardize(parse(args.expr), parse(args.growth),
                       kappa0=args.kappa0), 0


# ---------------------------------------------------------------------------
# analyze

def _cmd_analyze(args) -> Tuple[Any, int]:
    """The check of --kind; classify runs compactness, nuclearity (not
    applicable unless the exponents are Banach) and entropy, on either
    scale.  Exit 2 when a result that applies is inconclusive."""
    from .embanalyzer import (EmbeddingProblem, Verdict, compactness,
                              entropy_rate, nuclearity)

    # the nuclearity result of classify when the exponents are not Banach
    not_applicable = Verdict("inconclusive", None, None, "not-applicable",
                             {"reason": "nuclearity criterion needs Banach exponents"})
    problem = EmbeddingProblem.from_dict(vars(args))
    every = args.kind == "classify"
    doc: Dict[str, Any] = {}
    if every or args.kind == "compact":
        doc["compactness"] = compactness(problem)
    if args.kind == "nuclear" or every and problem.is_banach():
        doc["nuclearity"] = nuclearity(problem)
    elif every:
        doc["nuclearity"] = not_applicable
    if every or args.kind == "entropy":
        doc["entropy"] = entropy_rate(problem)
    outcomes = [r.status if isinstance(r, Verdict) else r.kind
                for r in doc.values() if r is not not_applicable]
    return doc, (2 if "inconclusive" in outcomes else 0)


# ---------------------------------------------------------------------------
# lab subcommands

def _section_payload(sec: FiniteSection) -> Dict[str, Any]:
    return {
        "beta": sec.beta,
        "M": sec.M,
        "p1": str(sec.p1), "q1": str(sec.q1),
        "p2": str(sec.p2), "q2": str(sec.q2),
        "n": sec.n,
    }


def _read_problem(path: str) -> EmbeddingProblem:
    from .embanalyzer import EmbeddingProblem

    with open(path) as fh:
        return EmbeddingProblem.from_dict(json.load(fh))


def _load_section(args) -> FiniteSection:
    from .seqspacelab import FiniteSection, finite_section

    if args.from_problem:
        return finite_section(_read_problem(args.from_problem), levels=args.levels)
    if args.section:
        text = args.section
        if not text.lstrip().startswith(("{", "[")):
            with open(text) as fh:
                text = fh.read()
        return FiniteSection.from_dict(json.loads(text))
    raise ValueError("provide a section via --from-problem FILE or --section JSON")


def _cmd_lab_norm(args) -> Tuple[Any, int]:
    from .seqspacelab import _search_winner, embedding_norm_closed

    sec = _load_section(args)
    closed = embedding_norm_closed(sec)
    label, found = _search_winner(sec)
    payload = {
        "closed": closed,
        "search": found,
        "gap": (found / closed - 1.0) if closed > 0 else None,
        "attained_by": label,
        "section": _section_payload(sec),
    }
    return payload, 0


def _cmd_lab_nuclear(args) -> Tuple[Any, int]:
    from .seqspacelab import nuclear_norm_oracle, nuclear_norm_tong

    sec = _load_section(args)
    payload = {
        "exact": nuclear_norm_tong(sec),
        "oracle": nuclear_norm_oracle(sec),
        "section": _section_payload(sec),
    }
    return payload, 0


def _cmd_lab_entropy(args) -> Tuple[Any, int]:
    from .seqspacelab import embedding_norm_closed, entropy_lower, entropy_upper

    sec = _load_section(args)
    bounds = []
    for k in args.k or range(1, 9):
        up = entropy_upper(sec, k)
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


def _cmd_lab_ratefit(args) -> Tuple[Any, int]:
    from .seqspacelab import rate_fit

    return rate_fit(_read_problem(args.from_problem), levels=args.levels), 0


# ---------------------------------------------------------------------------
# reproduce

def _cmd_reproduce(args) -> Tuple[Any, int]:
    from .corpus import run_all

    only = None if args.target == "all" else args.target
    report = run_all(only=only)
    return report, (0 if report["all_pass"] else 1)


# ---------------------------------------------------------------------------
# parser

class _Parser(argparse.ArgumentParser):
    """A bad flag raises ValueError: run prints it as a JSON error, exit 1."""

    def error(self, message):
        raise ValueError(message)


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


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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

    sb = seqsub.add_parser("boyd", help="exact Boyd indices")
    sb.add_argument("expr")
    sb.set_defaults(func=_cmd_seq_boyd)

    sa = seqsub.add_parser("admissible", help="two-sided consecutive-ratio bounds")
    sa.add_argument("expr")
    sa.set_defaults(func=_cmd_seq_admissible)

    ss = seqsub.add_parser("standardize",
                           help="resample along the inverse of a growth scale")
    ss.add_argument("expr")
    ss.add_argument("--growth", required=True,
                    help="strongly increasing scale expression, e.g. '2^(j)'")
    ss.add_argument("--kappa0", type=int, default=None)
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
    ln.set_defaults(func=_cmd_lab_norm)

    lnu = labsub.add_parser("nuclear", help="exact nuclear norm and oracles")
    _add_section_flags(lnu)
    lnu.set_defaults(func=_cmd_lab_nuclear)

    le = labsub.add_parser("entropy", help="two-sided entropy number bounds")
    _add_section_flags(le)
    le.add_argument("--k", type=int, nargs="+", help="entropy indices (default 1..8)")
    le.set_defaults(func=_cmd_lab_entropy)

    lr = labsub.add_parser("ratefit", help="fit the entropy decay exponent")
    lr.add_argument("--from-problem", metavar="FILE", required=True)
    lr.add_argument("--levels", type=int, nargs="+", default=[1, 2, 3, 4])
    lr.set_defaults(func=_cmd_lab_ratefit)

    rp = sub.add_parser("reproduce", help="run bundled worked examples")
    rp.add_argument("target", help="case id, or 'all'")
    rp.set_defaults(func=_cmd_reproduce)

    return parser


def run(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        for name, value in vars(args).items():  # argparse reads "--name=--" as []
            if value == []:
                raise ValueError(f"argument --{name.replace('_', '-')}: expected a value")
        result, code = args.func(args)
        # a result beyond the float range (inf or nan) is an error too
        text = json.dumps(_jsonable(result), indent=2, allow_nan=False)
    except (SequenceError, ValueError, KeyError, ZeroDivisionError,
            OverflowError, OSError) as exc:
        text, code = json.dumps({"error": str(exc)}), 1
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # the reader has gone; with stdout on os.devnull the interpreter's
        # final flush of what is left stays silent
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
