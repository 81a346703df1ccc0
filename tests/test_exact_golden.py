"""Byte-for-byte pins of the exact engine's outputs.

tests/data/exact_golden.json holds, for 300 seeded problems, the JSON
documents (as the CLI prints them, through cli._jsonable) of compactness,
nuclearity (Banach exponents only) and entropy_rate, and the rendered
sigma, tau and weight_ratio.  The problems span every atom of the weight
language: geometric rates, log and iterated-log powers, exp-log factors,
table prefixes, pw2, constants and constant roots, quotients and grouped
powers, on scales B and F.  A speed-up of the engine must keep every one of
them; a change that means to move an output rewrites the file with

    PYTHONPATH=src python tests/test_exact_golden.py

and the diff shows exactly which documents moved.
"""

import hashlib
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from gsembed import (EmbeddingProblem, SequenceError, cli, compactness,
                     entropy_rate, nuclearity, render)

GOLDEN = Path(__file__).resolve().parent / "data" / "exact_golden.json"
SEED = "exact-golden/1"
COUNT = 300
# md5 of the stdout of `python -m gsembed.cli reproduce all`
REPRODUCE_MD5 = "a62e5653fd7c6a38fc8d829ceffb8b8f"

EXPONENTS = ("1", "4/3", "3/2", "2", "3", "4", "8", "inf", "1/2", "2/3")
KAPPAS = (Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(3, 4))


def _rat(rng, lo, hi, dens=(1, 2, 3, 4)):
    return Fraction(rng.randint(lo, hi), rng.choice(dens))


def _expo(r: Fraction) -> str:
    """An exponent after '^', always as p/q, so a following '/' divides."""
    return f"{r.numerator}/{r.denominator}"


def _atom(rng, depth: int = 0) -> str:
    kind = rng.choice(("geom", "geom", "log", "iterlog", "explog", "pw2",
                       "const", "root", "table", "group"))
    if kind in ("table", "group") and depth > 1:
        kind = "log"
    if kind == "geom":
        r = _rat(rng, -8, 8)
        return rng.choice((f"2^({r}*j)", f"2^(j*{r})", f"4^({r}*j)",
                           "2^(j)", f"1/2^({r}*j)"))
    if kind == "log":
        return f"(1+j)^{_expo(_rat(rng, -6, 6))}"
    if kind == "iterlog":
        return f"(1+log(1+j))^{_expo(_rat(rng, -6, 6))}"
    if kind == "explog":
        c = _rat(rng, -4, 4) or Fraction(1, 2)
        return f"exp({c}*log(1+j)^{rng.choice(KAPPAS)})"
    if kind == "pw2":
        s0 = _rat(rng, 0, 4)
        s1 = s0 + _rat(rng, 1, 6, dens=(1, 2))
        atom = f"pw2(s0={s0},s1={s1})"
        return atom if rng.random() < 0.6 else f"{atom}^{_expo(_rat(rng, -3, 3) or Fraction(1))}"
    if kind == "const":
        return rng.choice(("3", "5/7", "0.25", "12", "1/6"))
    if kind == "root":
        base = rng.choice(("2", "3", "12", "5/4"))
        r = _rat(rng, -5, 5, dens=(2, 3, 4))
        return rng.choice((f"({base})^{_expo(r)}", f"{base}^({r})"))
    if kind == "table":
        values = ",".join(str(_rat(rng, 1, 9)) for _ in range(rng.randint(1, 4)))
        return f"(table[{values}] then {_weight(rng, depth + 1)})"
    return f"({_weight(rng, depth + 1)})^{_expo(_rat(rng, -3, 3) or Fraction(1))}"


def _weight(rng, depth: int = 0) -> str:
    text = _atom(rng, depth)
    for _ in range(rng.randint(0, 2)):
        text += rng.choice("**/") + _atom(rng, depth)
    return text


def _recip(p: str) -> Fraction:
    return Fraction(0) if p == "inf" else 1 / Fraction(p)


def golden_problems(seed=SEED, count=COUNT) -> list:
    """count seeded problem dicts.  Half put sigma at tau times the
    compactness threshold, so the criterion has rate 0 and its log, explog
    and iterlog exponents (and the entropy catalog's limiting branches)
    decide."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        p1, q1, p2, q2 = (rng.choice(EXPONENTS) for _ in range(4))
        d = rng.randint(1, 3)
        tau = _weight(rng)
        if rng.random() < 0.5:
            a, b = _recip(p1), _recip(p2)
            thr = d * (a - b + max(Fraction(0), b - a))
            sigma = f"({tau})*2^({thr}*j)"
            if rng.random() < 0.8:
                sigma += f"*(1+j)^{_expo(_rat(rng, -4, 4))}"
            if rng.random() < 0.3:
                sigma += "*" + rng.choice(("(1+log(1+j))^1/1",
                                           "exp(1*log(1+j)^1/2)", "pw2(s0=0,s1=1)"))
        else:
            sigma = _weight(rng)
        out.append({"sigma": sigma, "tau": tau, "p1": p1, "q1": q1, "p2": p2,
                    "q2": q2, "dim": d,
                    "scale": "F" if rng.random() < 0.15 else "B"})
    return out


def documents(problem: dict) -> dict:
    """The pinned outputs of one problem, as JSON values; a refused weight
    (a constant before '/' reads as a fraction, so 3/2^(j) asks for base
    3/2) pins its message instead."""
    try:
        pr = EmbeddingProblem(**problem)
    except SequenceError as exc:
        return {"error": str(exc)}
    doc = {"sigma": render(pr.sigma), "tau": render(pr.tau),
           "weight_ratio": render(pr.weight_ratio),
           "compactness": cli._jsonable(compactness(pr))}
    if pr.is_banach():
        doc["nuclearity"] = cli._jsonable(nuclearity(pr))
    doc["entropy_rate"] = cli._jsonable(entropy_rate(pr))
    return doc


def write_golden() -> None:
    rows = [json.dumps({"problem": p, "documents": documents(p)}, sort_keys=True)
            for p in golden_problems()]
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text("[\n" + ",\n".join(rows) + "\n]\n")


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_inputs_are_the_seeded_problems(golden):
    assert [row["problem"] for row in golden] == golden_problems()


def test_golden_covers_every_atom(golden):
    docs = [row["documents"] for row in golden
            if "error" not in row["documents"]]
    assert len(docs) > 0.9 * len(golden)
    text = " ".join(row["problem"]["sigma"] + " " + row["problem"]["tau"]
                    for row in golden)
    for atom in ("(1+j)^", "(1+log(1+j))^", "exp(", "pw2(", "table[", ")^",
                 "/2^(", "0.25", "/"):
        assert atom in text, atom
    assert {row["problem"]["scale"] for row in golden} == {"B", "F"}
    rendered = " ".join(d["weight_ratio"] for d in docs)
    assert "pw2(s0=0,s1=1)" in rendered and ")^1/2" in rendered
    kinds = {d["entropy_rate"]["kind"] for d in docs}
    assert {"not-compact", "non-limiting", "limiting-log",
            "inconclusive"} <= kinds
    assert {d["compactness"]["status"] for d in docs} == \
        {"holds", "fails", "inconclusive"}


def test_outputs_match_golden(golden):
    for row in golden:
        assert documents(row["problem"]) == row["documents"], row["problem"]


def test_reproduce_all_md5(capsys):
    assert cli.run(["reproduce", "all"]) == 0
    out = capsys.readouterr().out
    assert hashlib.md5(out.encode()).hexdigest() == REPRODUCE_MD5


if __name__ == "__main__":
    write_golden()
    sys.exit(0)
