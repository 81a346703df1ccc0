"""Checks of the program's outputs against known answers (standard library only).

Each ``check_*`` function returns the list of problems found for one
operation; an empty list means the operation passed.  An ``inconclusive``
where the closed form decides counts as a problem.
"""

from __future__ import annotations

import json
import math

from gen import ENTROPY_MAX_N

REL = 1e-9        # soundness slack for float inequalities
MONO_REL = 1e-12  # slack for "non-increasing" and "e_1 equals the norm"


def _status(flag: bool) -> str:
    return "holds" if flag else "fails"


def _verdict(label: str, got, want: bool) -> list:
    if got == "inconclusive":
        return [f"{label}: unexpected inconclusive"]
    if got != _status(want):
        return [f"{label}: got {got}, want {_status(want)}"]
    return []


def corpus_problems(op: str, expect: dict, got: dict) -> list:
    """Compare one corpus result with its recorded expectation, by the rules
    of corpus.run_case."""
    if op in ("compactness", "nuclearity"):
        ok = got.get("status") == expect["status"]
    elif op == "entropy_rate":
        ok = got.get("kind") == expect["kind"]
        for key in ("k_exponent", "log_exponent"):
            if key in expect:
                ok = ok and got.get(key) == expect[key]
        if "residual_contains" in expect:
            ok = ok and expect["residual_contains"] in (got.get("residual") or "")
    elif op == "band":
        ok = all(got.get(k) == expect[k] for k in ("lower", "upper", "empty"))
    else:
        return [f"unknown corpus op {op!r}"]
    return [] if ok else [f"corpus {op}: got {got}, want {expect}"]


def entropy_problems(expect: dict, got: dict) -> list:
    want = expect.get("kind")
    if want is None:
        # compact at the threshold: a limiting law or inconclusive, never
        # "not-compact"
        return ["entropy: not-compact for a compact embedding"] \
            if got["kind"] == "not-compact" else []
    bad = got["kind"] != want
    for key in ("k_exponent", "log_exponent"):
        if key in expect:
            bad = bad or got.get(key) != expect[key]
    return [f"entropy: got {got}, want {expect}"] if bad else []


def check_exact(item: dict, out: dict) -> list:
    if "exception" in out:
        return [out["exception"]]
    if item["kind"] == "corpus":
        op, expect = item["op"], item["expect"]
        if op == "band":
            got = out.get("band", {})
        elif op == "entropy_rate":
            got = out["entropy"]
        else:
            got = {"status": out["compact" if op == "compactness" else "nuclear"]}
        return corpus_problems(op, expect, got)
    expect = item["expect"]
    found = _verdict("compactness", out["compact"], expect["compact"])
    if expect["nuclear"] is None:
        if out["nuclear"] is not None:
            found.append("nuclearity ran on non-Banach exponents")
    else:
        found += _verdict("nuclearity", out["nuclear"], expect["nuclear"])
    return found + entropy_problems(expect["entropy"], out["entropy"])


def entropy_ladder_problems(norm: float, upper: list, lower: list) -> list:
    """Soundness of an entropy ladder k = 1, 2, ...: lower_k <= upper_k, and
    since e_k is non-increasing, lower_j <= upper_k for every j > k; e_1 is
    the operator norm."""
    found = []
    for k, up in enumerate(upper, start=1):
        lo = max(lower[k - 1:])
        if not lo <= up * (1 + REL):
            found.append(f"entropy lower {lo} at some j >= {k} above upper {up}")
    if upper and abs(upper[0] - norm) > MONO_REL * max(1.0, norm):
        found.append(f"e_1 = {upper[0]} differs from the norm {norm}")
    return found


def upper_increases(upper: list) -> int:
    """Steps where the upper bound rises with k.  entropy_upper documents a
    non-increasing ladder, but a rise leaves every bound sound, so it is
    counted as a defect of the program, not as a wrong answer."""
    return sum(1 for k in range(1, len(upper))
               if not upper[k] <= upper[k - 1] * (1 + MONO_REL))


def nuclear_problems(tong: float, oracle: dict) -> list:
    found = []
    if not oracle["coordinate_upper"] >= tong * (1 - REL):
        found.append(f"coordinate_upper {oracle['coordinate_upper']} below "
                     f"the Tong norm {tong}")
    for key in ("hilbert_trace", "cube_source_exact"):
        if key in oracle and abs(oracle[key] - tong) > REL * oracle[key]:
            found.append(f"Tong norm {tong} differs from {key} {oracle[key]}")
    return found


def check_lab(item: dict, out: dict) -> list:
    if "exception" in out:
        return [out["exception"]]
    found = []
    closed, search = out["closed"], out["search"]
    if not (math.isfinite(closed) and closed > 0):
        found.append(f"closed norm {closed} is not a positive number")
    if not search <= closed * (1 + REL):
        found.append(f"norm search {search} above the closed form {closed}")
    if item["kind"] == "raw" and out["n"] != sum(item["section"]["M"]):
        found.append("section size differs from its blocks")
    if item["banach"]:
        found += nuclear_problems(out["tong"], out["oracle"])
    if out["n"] <= ENTROPY_MAX_N:
        if "upper" not in out:
            found.append("entropy ladder missing")
        else:
            found += entropy_ladder_problems(closed, out["upper"], out["lower"])
    if item["rate_fit"]:
        fit = out["fit"]
        if len(fit["bounds"]) != len(fit["levels"]) or not all(
                isinstance(b, float) and math.isfinite(b) and b > 0
                for b in fit["bounds"]) or not math.isfinite(fit["slope"]):
            found.append(f"rate_fit returned {fit}")
    return found


def norm_search_ok(out: dict) -> bool:
    """Quality, not failure: the search reached 0.99 of the closed form."""
    return "search" in out and out["search"] >= 0.99 * out["closed"]


def check_cli(item: dict, code: int, stdout: str) -> list:
    try:
        doc = json.loads(stdout)
    except ValueError:
        return [f"exit {code}: stdout is not one JSON document"]
    if not isinstance(doc, dict) or "error" in doc:
        return [f"exit {code}: {stdout[:200]}"]
    kind, expect = item["kind"], item["expect"]
    if kind == "analyze":
        found = _verdict("compactness", doc["compactness"]["status"],
                         expect["compact"])
        if expect["nuclear"] is None:
            if doc["nuclearity"]["tag"] != "not-applicable":
                found.append("nuclearity ran on non-Banach exponents")
        else:
            found += _verdict("nuclearity", doc["nuclearity"]["status"],
                              expect["nuclear"])
        found += entropy_problems(expect["entropy"], doc["entropy"])
        nuc = doc["nuclearity"]
        undecided = (doc["compactness"]["status"] == "inconclusive"
                     or (nuc["status"] == "inconclusive"
                         and nuc["tag"] != "not-applicable")
                     or doc["entropy"]["kind"] == "inconclusive")
        if code != (2 if undecided else 0):
            found.append(f"exit {code} does not match the verdicts")
        return found
    if code != 0:
        return [f"exit {code}: {stdout[:200]}"]
    if kind == "parse":
        found = [] if doc["classified"] else ["expression not classified"]
        for key in ("rate", "log_exponent"):
            if doc[key] != expect[key]:
                found.append(f"{key}: got {doc[key]}, want {expect[key]}")
        return found
    if kind == "reproduce":
        found = [] if doc["all_pass"] else ["reproduce reports a failure"]
        got = {c["id"]: c for c in doc["cases"]}
        if set(got) != set(expect):
            found.append("reproduce ran a different set of cases")
        for cid, want in expect.items():
            if cid in got:
                found += corpus_problems(got[cid]["op"], want, got[cid]["got"])
        return found
    if doc["section"]["n"] != expect["n"]:
        return ["section size differs from its blocks"]
    if kind == "entropy":
        bounds = doc["bounds"]
        return entropy_ladder_problems(doc["norm"], [b["upper"] for b in bounds],
                                       [b["lower"] for b in bounds])
    return nuclear_problems(doc["exact"], doc["oracle"])
