"""Bundled catalogue of worked examples with known answers.

Each case pins one analyzer call to an expected outcome that was checked by
hand (or is classical).  The ``reproduce`` CLI subcommand and the regression
suite both run through :func:`run_all`.
"""

from __future__ import annotations

import json
from importlib import resources
from typing import Any, Dict, List, NamedTuple, Optional

from .embanalyzer import (
    EmbeddingProblem,
    compact_not_nuclear_band,
    compactness,
    entropy_rate,
    nuclearity,
)

__all__ = ["ReproCase", "load_cases", "run_case", "run_all"]


class ReproCase(NamedTuple):
    id: str
    title: str
    source: str
    citation: str
    check: Dict[str, Any]


def load_cases() -> List[ReproCase]:
    raw = resources.files("gsembed").joinpath("corpus.json").read_text()
    return [ReproCase(**entry) for entry in json.loads(raw)]


def _fmt(x: Any) -> Optional[str]:
    return None if x is None else str(x)


def _passed(got: Dict[str, Any], expect: Dict[str, Any]) -> bool:
    """Every expected key equals its result, except residual_contains,
    which must be a substring of the residual."""
    return all(v in (got["residual"] or "") if k == "residual_contains"
               else got.get(k) == v for k, v in expect.items())


def run_case(case: ReproCase) -> Dict[str, Any]:
    check = case.check
    op = check["op"]

    if op in ("compactness", "nuclearity"):
        problem = EmbeddingProblem.from_dict(check)
        verdict = compactness(problem) if op == "compactness" else nuclearity(problem)
        got: Dict[str, Any] = {"status": verdict.status}
    elif op == "entropy_rate":
        formula = entropy_rate(EmbeddingProblem.from_dict(check))
        got = {
            "kind": formula.kind,
            "k_exponent": _fmt(formula.k_exponent),
            "log_exponent": _fmt(formula.log_exponent),
            "residual": formula.residual,
        }
    elif op == "band":
        band = compact_not_nuclear_band(check["p1"], check["p2"], check["dim"])
        got = {"lower": _fmt(band.lower), "upper": _fmt(band.upper), "empty": band.empty}
    else:
        raise ValueError(f"unknown corpus op: {op!r}")

    expect = check["expect"]
    return {
        "id": case.id,
        "title": case.title,
        "source": case.source,
        "citation": case.citation,
        "op": op,
        "expected": expect,
        "got": got,
        "passed": _passed(got, expect),
    }


def run_all(only: Optional[str] = None) -> Dict[str, Any]:
    cases = load_cases()
    if only is not None:
        cases = [c for c in cases if c.id == only]
        if not cases:
            raise KeyError(f"no corpus case with id {only!r}")
    results = [run_case(c) for c in cases]
    return {"cases": results, "all_pass": all(r["passed"] for r in results)}
