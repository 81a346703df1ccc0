"""Byte-for-byte pins of the numeric lab's outputs.

tests/data/lab_golden.json holds, for seeded finite sections of the shapes
that gsbench's lab-sections workload runs (raw sections of 1..5 blocks of
up to 12 coordinates, sections of geometric and log-weighted problems,
quasi-Banach and p = inf exponents included) and a few special ones (n = 1,
the sections of TestEntropyBounds.SECTIONS, the 64-block cap section), the
closed norm, the norm search value and its attaining vector, the Tong and
oracle nuclear norms, the entropy_upper ladder (value, refinements,
centers), the entropy_lower ladder and, for problem sections, rate_fit.
Floats are compared with ==.  A speed-up of the lab must keep every one of
them; a change that means to move an output rewrites the file with

    PYTHONPATH=src python tests/test_lab_golden.py

and the diff shows exactly which values moved.
"""

import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from gsembed import (EmbeddingProblem, FiniteSection, embedding_norm_closed,
                     embedding_norm_search, entropy_lower, entropy_upper,
                     finite_section, nuclear_norm_oracle, nuclear_norm_tong,
                     rate_fit)
from gsembed.seqspacelab import MAX_ENTROPY_K, MAX_ENTROPY_N, _search_winner

GOLDEN = Path(__file__).resolve().parent / "data" / "lab_golden.json"
SEED = "lab-golden/1"
CYCLES = 3

BANACH_POOL = ("1", "4/3", "3/2", "2", "3", "4", "8", "inf")
QUASI_POOL = ("1/2", "2/3")
# (source, (dim, levels) or (n, blocks)), the shapes of one lab-sections cycle
SHAPES = (("problem", (1, 1)), ("raw", (4, 1)), ("problem", (2, 1)),
          ("problem", (1, 2)), ("raw", (10, 3)), ("raw", (12, 2)),
          ("raw", (14, 4)), ("problem", (1, 3)), ("raw", (17, 3)),
          ("raw", (20, 5)), ("problem", (2, 2)), ("raw", (28, 3)),
          ("problem", (1, 4)), ("raw", (44, 4)), ("raw", (60, 5)))
# sections pinned by name: n = 1 and the sections of TestEntropyBounds
SPECIAL = (
    {"name": "one-coordinate", "beta": [0.75], "M": [1],
     "exponents": ["3/2", "1", "inf", "2"]},
    {"name": "non-monotone", "levels": 2,
     "problem": {"sigma": "2^(-2/3*j)", "tau": "2^(-7*j)", "p1": "2/3",
                 "q1": "3", "p2": "4", "q2": "1", "dim": 1, "scale": "B"}},
    {"name": "cap", "beta": [1.0 + 0.25 * j for j in range(64)], "M": [1] * 64,
     "exponents": ["2", "1", "4", "2"]},
    {"name": "tiny-weight", "beta": [1e-200, 1.0], "M": [1, 1],
     "exponents": ["1", "1", "1", "2"]},
)


def _rat(rng, lo, hi) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.choice((1, 2, 3, 4)))


def golden_inputs(seed=SEED, cycles=CYCLES) -> list:
    """The special sections, then cycles of SHAPES with seeded weights,
    block splits and exponents, as JSON objects."""
    rng = random.Random(seed)
    out = [dict(s) for s in SPECIAL]
    for c in range(cycles):
        for i, (source, size) in enumerate(SHAPES):
            pool = BANACH_POOL + QUASI_POOL if rng.random() < 0.3 else BANACH_POOL
            exps = [rng.choice(pool) for _ in range(4)]
            name = f"{source}-{c}-{i}"
            if source == "problem":
                d, levels = size
                s1, s2 = _rat(rng, -8, 8), _rat(rng, -8, 8)
                sigma = f"2^({s1}*j)"
                if rng.random() < 0.5:
                    sigma += f"*(1+j)^{_rat(rng, -4, 4)}"
                out.append({"name": name, "levels": levels, "problem": {
                    "sigma": sigma, "tau": f"2^({s2}*j)", "p1": exps[0],
                    "q1": exps[1], "p2": exps[2], "q2": exps[3], "dim": d,
                    "scale": "B"}})
            else:
                n, blocks = size
                M = [1] * blocks
                for _ in range(n - blocks):
                    j = rng.choice([j for j in range(blocks) if M[j] < 12])
                    M[j] += 1
                out.append({"name": name, "M": M, "exponents": exps,
                            "beta": [2.0 ** rng.uniform(-3, 3) for _ in M]})
    return out


def section(spec: dict) -> FiniteSection:
    if "problem" in spec:
        return finite_section(EmbeddingProblem(**spec["problem"]), spec["levels"])
    return FiniteSection(tuple(spec["beta"]), tuple(spec["M"]), *spec["exponents"])


def _exponents(spec: dict) -> list:
    if "problem" in spec:
        return [spec["problem"][f] for f in ("p1", "q1", "p2", "q2")]
    return spec["exponents"]


def ladder_ks(n: int) -> list:
    """k = 1..12, the k = 2n of rate_fit, 40 and MAX_ENTROPY_K."""
    return sorted({*range(1, 13), 40, MAX_ENTROPY_K} | (
        {2 * n} if 2 * n <= MAX_ENTROPY_K else set()))


def documents(spec: dict) -> dict:
    """The pinned outputs of one section, as JSON values."""
    s = section(spec)
    label, _ = _search_winner(s)
    doc = {"n": s.n, "closed": embedding_norm_closed(s),
           "search": embedding_norm_search(s), "attained_by": label,
           "oracle": nuclear_norm_oracle(s)}
    if s.is_banach():
        doc["tong"] = nuclear_norm_tong(s)
    if s.n <= MAX_ENTROPY_N:
        upper = []
        for k in ladder_ks(s.n):
            ub = entropy_upper(s, k)
            upper.append([k, ub.value, ub.method,
                          list(ub.detail.get("refinements", ())),
                          ub.detail.get("centers")])
        doc["upper"] = upper
        doc["lower"] = [[k, entropy_lower(s, k).value] for k in ladder_ks(s.n)]
    if "problem" in spec:
        problem = EmbeddingProblem(**spec["problem"])
        levels = [1, 2, 3, 4] if problem.dim == 1 else [1, 2]
        try:
            fit = rate_fit(problem, levels)
        except ValueError as exc:
            doc["fit"] = {"error": str(exc)}
        else:
            doc["fit"] = {"ks": list(fit.ks), "bounds": list(fit.bounds),
                          "slope": fit.slope}
    return doc


def write_golden() -> None:
    rows = [json.dumps({"section": spec, "documents": documents(spec)},
                       sort_keys=True, allow_nan=False)
            for spec in golden_inputs()]
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text("[\n" + ",\n".join(rows) + "\n]\n")


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_inputs_are_the_seeded_sections(golden):
    assert [row["section"] for row in golden] == golden_inputs()


def test_golden_covers_the_lab(golden):
    docs = {row["section"]["name"]: row["documents"] for row in golden}
    exps = {p for row in golden for p in _exponents(row["section"])}
    assert {"inf", "1/2", "2/3"} <= exps
    assert any("tong" not in d for d in docs.values())
    assert {d["upper"][0][2] for d in docs.values()} == {"exact-1d",
                                                         "lattice-cover"}
    assert {d["attained_by"] for d in docs.values()} >= {"block 0", "hoelder"}
    assert sum("fit" in d for d in docs.values()) >= 3 * CYCLES
    cap = {k: row for k, *row in docs["cap"]["upper"]}
    assert {1, 40, MAX_ENTROPY_K} <= set(cap) and cap[MAX_ENTROPY_K][3] > 1


def test_outputs_match_golden(golden):
    for row in golden:
        assert documents(row["section"]) == row["documents"], row["section"]["name"]


if __name__ == "__main__":
    write_golden()
    sys.exit(0)
