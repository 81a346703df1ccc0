"""Seeded benchmark inputs and their known answers.

Standard library only: the harness that checks answers never imports gsembed
or numpy.  Every expected answer comes from one of three sources:

* the closed-form thresholds of the acceptance gate: compactness iff
  gap > d*max(0, 1/p1 - 1/p2) with target 1/q* = max(0, 1/q2 - 1/q1),
  nuclearity iff gap > d - d*max(0, 1/p2 - 1/p1) with 1/t = 1 - max(0,
  1/q1 - 1/q2); at the threshold a log exponent decides against 1/r;
* the recorded expectations in src/gsembed/corpus.json, used as they are;
* the lab's soundness invariants (checked in checks.py, no expected value).

The entropy expectations follow from the same thresholds: "not-compact"
exactly when compactness fails, "non-limiting" when the gap is strictly
above the compactness threshold, and for purely geometric weights the
classical Edmunds-Triebel law e_k ~ k^(-gap/d), without a log factor.

Each stream is an infinite iterator; the same seed yields the same items.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

CORPUS = Path(__file__).resolve().parent.parent / "src" / "gsembed" / "corpus.json"

BANACH_POOL = ("1", "4/3", "3/2", "2", "3", "4", "8", "inf")
QUASI_POOL = ("1/2", "2/3")
SECTION_POOL = ("1", "4/3", "3/2", "2", "3", "4", "6", "inf")
DENOMS = (1, 2, 3, 4)
# at least this far from a threshold before slowly varying factors may appear
MARGIN = Fraction(1, 4)


def recip(x: str) -> Fraction:
    return Fraction(0) if x == "inf" else 1 / Fraction(x)


def is_banach(*ps: str) -> bool:
    return all(p == "inf" or Fraction(p) >= 1 for p in ps)


def compact_threshold(p1, q1, p2, q2, d):
    """(gap threshold, 1/r of the membership target) for compactness."""
    return (d * max(Fraction(0), recip(p1) - recip(p2)),
            max(Fraction(0), recip(q2) - recip(q1)))


def nuclear_threshold(p1, q1, p2, q2, d):
    """(gap threshold, 1/r of the membership target) for nuclearity."""
    return (d - d * max(Fraction(0), recip(p2) - recip(p1)),
            1 - max(Fraction(0), recip(q1) - recip(q2)))


def decide(gap: Fraction, logdiff: Fraction, threshold) -> bool:
    """Closed-form verdict for a criterion 2^(-(gap-thr) j) (1+j)^(-logdiff).

    Off the threshold the geometric part decides; at it the criterion is in
    ell_r (c0 when 1/r = 0) iff logdiff > 1/r, and it fails at equality
    (slowly varying factors are never generated there)."""
    thr, inv_r = threshold
    if gap != thr:
        return gap > thr
    return logdiff > inv_r


def _rat(rng: random.Random, lo: int, hi: int) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.choice(DENOMS))


def _weight(rate, log_exp=Fraction(0), iterlog=Fraction(0), explog=None,
            prefix=None) -> str:
    parts = [f"2^({rate}*j)"]
    if log_exp:
        parts.append(f"(1+j)^{log_exp}")
    if iterlog:
        parts.append(f"(1+log(1+j))^{iterlog}")
    if explog is not None:
        coeff, kappa = explog
        parts.append(f"exp({coeff}*log(1+j)^{kappa})")
    body = "*".join(parts)
    if prefix:
        body = "table[" + ",".join(str(v) for v in prefix) + "] then " + body
    return body


def _problem(sigma, tau, p1, q1, p2, q2, d, scale="B") -> dict:
    return {"sigma": sigma, "tau": tau, "p1": p1, "q1": q1, "p2": p2,
            "q2": q2, "dim": d, "scale": scale}


# ---------------------------------------------------------------------------
# exact-sweep

def geometric_item(rng: random.Random) -> dict:
    """Criterion-02 population: Banach tuples, purely geometric weights."""
    s1, s2 = _rat(rng, -24, 24), _rat(rng, -24, 24)
    p1, q1, p2, q2 = (rng.choice(BANACH_POOL) for _ in range(4))
    d = rng.randint(1, 4)
    gap = s1 - s2
    compact = decide(gap, Fraction(0), compact_threshold(p1, q1, p2, q2, d))
    nuclear = decide(gap, Fraction(0), nuclear_threshold(p1, q1, p2, q2, d))
    entropy = {"kind": "non-limiting", "k_exponent": str(gap / d),
               "log_exponent": "0"} if compact else {"kind": "not-compact"}
    return {"kind": "geometric",
            "problem": _problem(_weight(s1), _weight(s2), p1, q1, p2, q2, d),
            "expect": {"compact": compact, "nuclear": nuclear,
                       "entropy": entropy}}


def _sv_allowed(gap, logdiff, thresholds) -> bool:
    return all(abs(gap - thr) >= MARGIN or abs(logdiff - inv_r) >= MARGIN
               for thr, inv_r in thresholds)


def rich_item(rng: random.Random) -> dict:
    """Log, iterated-log, stretched-exponential and table factors, mostly
    with the gap exactly at a threshold so the tie-break decides."""
    banach = rng.random() < 0.8
    pool = BANACH_POOL if banach else BANACH_POOL + QUASI_POOL
    p1, q1, p2, q2 = (rng.choice(pool) for _ in range(4))
    banach = is_banach(p1, q1, p2, q2)
    d = rng.randint(1, 3)
    thresholds = [compact_threshold(p1, q1, p2, q2, d)]
    if banach:
        thresholds.append(nuclear_threshold(p1, q1, p2, q2, d))
    thr, inv_r = rng.choice(thresholds)
    gap = thr if rng.random() < 0.75 else thr + rng.choice((-1, 1)) * \
        Fraction(rng.randint(1, 8), 4)
    # criterion log exponent logdiff = a1 - a2 sits at, or 1/4..2 off, 1/r
    logdiff = inv_r if rng.random() < 0.25 else inv_r + rng.choice((-1, 1)) * \
        Fraction(rng.randint(1, 8), 4)
    a2 = _rat(rng, -6, 6)
    a1 = logdiff + a2
    s2 = _rat(rng, -12, 12)
    s1 = s2 + gap
    sv = [{}, {}]
    if _sv_allowed(gap, logdiff, thresholds):
        for side in sv:
            if rng.random() < 0.5:
                side["iterlog"] = _rat(rng, -8, 8)
            if rng.random() < 0.4:
                side["explog"] = (_rat(rng, -8, 8) or Fraction(1, 2),
                                  rng.choice((Fraction(1, 4), Fraction(1, 3),
                                              Fraction(1, 2), Fraction(3, 4))))
    prefixes = [None, None]
    if rng.random() < 0.3:
        prefixes[rng.randint(0, 1)] = [Fraction(rng.randint(1, 9), rng.randint(1, 4))
                                       for _ in range(rng.randint(1, 4))]
    sigma = _weight(s1, a1, prefix=prefixes[0], **sv[0])
    tau = _weight(s2, a2, prefix=prefixes[1], **sv[1])
    compact = decide(gap, logdiff, thresholds[0])
    nuclear = decide(gap, logdiff, thresholds[1]) if banach else None
    if not compact:
        entropy = {"kind": "not-compact"}
    elif gap > thresholds[0][0]:
        # the reciprocal criterion grows geometrically: non-limiting regime
        entropy = {"kind": "non-limiting"}
    else:
        entropy = {}  # limiting: the catalog may or may not cover it
    return {"kind": "rich",
            "problem": _problem(sigma, tau, p1, q1, p2, q2, d),
            "expect": {"compact": compact, "nuclear": nuclear,
                       "entropy": entropy}}


def load_corpus() -> list:
    return json.loads(CORPUS.read_text())


def corpus_item(case: dict) -> dict:
    """One corpus case; only its recorded expectation is checked."""
    check = case["check"]
    item = {"kind": "corpus", "id": case["id"], "op": check["op"],
            "expect": check["expect"]}
    if check["op"] == "band":
        item["band"] = {"p1": check["p1"], "p2": check["p2"],
                        "dim": int(check["dim"])}
    else:
        item["problem"] = _problem(check["sigma"], check["tau"], check["p1"],
                                   check["q1"], check["p2"], check["q2"],
                                   int(check["dim"]), check.get("scale", "B"))
    return item


# five geometric, four rich, one corpus case per cycle of ten
EXACT_CYCLE = ("geometric", "rich", "geometric", "rich", "geometric",
               "corpus", "geometric", "rich", "geometric", "rich")


def exact_stream(seed: int):
    rng = random.Random(f"exact-sweep/{seed}")
    cases = load_corpus()
    order = []
    i = 0
    while True:
        kind = EXACT_CYCLE[i % len(EXACT_CYCLE)]
        i += 1
        if kind == "geometric":
            yield geometric_item(rng)
        elif kind == "rich":
            yield rich_item(rng)
        else:
            if not order:
                order = list(cases)
                rng.shuffle(order)
            yield corpus_item(order.pop())


# ---------------------------------------------------------------------------
# lab-sections

def exponents(rng: random.Random, pool) -> tuple:
    return tuple(rng.choice(pool) for _ in range(4))


def problem_section_item(rng: random.Random, d: int, levels: int,
                         exps: tuple) -> dict:
    """finite_section(problem, levels) of a geometric or log-weighted problem."""
    s1, s2 = _rat(rng, -8, 8), _rat(rng, -8, 8)
    a1 = _rat(rng, -4, 4) if rng.random() < 0.5 else Fraction(0)
    return {"kind": "problem", "levels": levels,
            "problem": _problem(_weight(s1, a1), _weight(s2), *exps, d),
            "banach": is_banach(*exps)}


def raw_section_item(rng: random.Random, n: int, nblocks: int,
                     exps: tuple) -> dict:
    """Criterion-07 population: n coordinates in 1..5 blocks of 1..12."""
    M = [1] * nblocks
    for _ in range(n - nblocks):
        j = rng.choice([j for j in range(nblocks) if M[j] < 12])
        M[j] += 1
    beta = [2.0 ** rng.uniform(-3, 3) for _ in M]
    p1, q1, p2, q2 = exps
    return {"kind": "raw",
            "section": {"beta": beta, "M": M, "p1": p1, "q1": q1, "p2": p2,
                        "q2": q2},
            "banach": True}


# A fixed cycle of 15 section shapes, n from 3 to 60 with mean 19.4.
# Problem sections give (dim, levels), raw ones (n, blocks): the search cost
# grows with both, so both stay fixed per slot.  rate_fit runs on two slots.
# Cycles of odd length put the median operation in the middle of one slot's
# costs, not on the edge between two slots, where it jumps between runs.
LAB_CYCLE = (("problem", (1, 1), True), ("raw", (4, 1), False),
             ("problem", (2, 1), False), ("problem", (1, 2), False),
             ("raw", (10, 3), False), ("raw", (12, 2), False),
             ("raw", (14, 4), False), ("problem", (1, 3), True),
             ("raw", (17, 3), False), ("raw", (20, 5), False),
             ("problem", (2, 2), False), ("raw", (28, 3), False),
             ("problem", (1, 4), False), ("raw", (44, 4), False),
             ("raw", (60, 5), False))
ENTROPY_KS = tuple(range(1, 13))
ENTROPY_MAX_N = 20


def lab_stream(seed: int):
    """Sections on LAB_CYCLE.  The exponents follow one fixed sequence for
    every seed, since they set how long the norm search runs; the seed
    draws the weights, the block split and beta."""
    rng = random.Random(f"lab-sections/{seed}")
    exps = random.Random("lab-sections/exponents")
    i = 0
    while True:
        source, size, fit = LAB_CYCLE[i % len(LAB_CYCLE)]
        i += 1
        if source == "problem":
            pool = BANACH_POOL if exps.random() < 0.75 else \
                BANACH_POOL + QUASI_POOL
            item = problem_section_item(rng, *size, exponents(exps, pool))
        else:
            item = raw_section_item(rng, *size, exponents(exps, SECTION_POOL))
        item["search_seed"] = rng.randrange(1 << 30)
        item["rate_fit"] = fit
        yield item


# ---------------------------------------------------------------------------
# cli-cold

# six exact and five lab subcommands per cycle of eleven (odd, see LAB_CYCLE)
CLI_CYCLE = ("parse", "entropy", "analyze", "nuclear", "reproduce", "entropy",
             "parse", "nuclear", "analyze", "entropy", "analyze")


def cli_stream(seed: int):
    """Commands for one fresh `python -m gsembed.cli` process each."""
    rng = random.Random(f"cli-cold/{seed}")
    cases = load_corpus()
    i = 0
    while True:
        kind = CLI_CYCLE[i % len(CLI_CYCLE)]
        i += 1
        if kind == "parse":
            s, b = _rat(rng, -24, 24), _rat(rng, -8, 8)
            yield {"kind": "parse", "class": "exact",
                   "argv": ["seq", "parse", _weight(s, b)],
                   "expect": {"rate": str(s), "log_exponent": str(b)}}
        elif kind == "analyze":
            item = geometric_item(rng) if rng.random() < 0.5 else rich_item(rng)
            pr = item["problem"]
            argv = ["analyze", "--sigma", pr["sigma"], "--tau", pr["tau"],
                    "--p1", pr["p1"], "--q1", pr["q1"], "--p2", pr["p2"],
                    "--q2", pr["q2"], "--dim", str(pr["dim"]), "--kind",
                    "classify"]
            yield {"kind": "analyze", "class": "exact", "argv": argv,
                   "expect": item["expect"]}
        elif kind == "reproduce":
            yield {"kind": "reproduce", "class": "exact",
                   "argv": ["reproduce", "all"],
                   "expect": {c["id"]: c["check"]["expect"] for c in cases}}
        else:
            n = rng.randint(1, ENTROPY_MAX_N if kind == "entropy" else 40)
            item = raw_section_item(rng, n, rng.randint(-(-n // 12), min(5, n)),
                                    exponents(rng, SECTION_POOL))
            argv = ["lab", kind, "--section",
                    json.dumps(item["section"], separators=(",", ":"))]
            if kind == "entropy":
                argv += ["--k"] + [str(k) for k in range(1, 9)]
            yield {"kind": kind, "class": "lab", "argv": argv,
                   "expect": {"n": sum(item["section"]["M"])}}


STREAMS = {"exact-sweep": exact_stream, "lab-sections": lab_stream,
           "cli-cold": cli_stream}
CYCLES = {"exact-sweep": EXACT_CYCLE, "lab-sections": LAB_CYCLE,
          "cli-cold": CLI_CYCLE}


def take(stream, count: int) -> list:
    return [next(stream) for _ in range(count)]
