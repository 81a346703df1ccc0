"""Acceptance gate: one test per criterion, tolerances and budgets pinned.

Each test is self-contained (shared inputs come from module fixtures) so a
single criterion can be rerun in isolation:

    pytest tests/test_acceptance.py -v -k criterion_04
"""

import json
import random
import time
from fractions import Fraction

import pytest

from gsembed import (
    EmbeddingProblem,
    FiniteSection,
    INF,
    boyd_indices,
    boyd_indices_numeric,
    cli,
    compactness,
    dual_star,
    embedding_norm_closed,
    embedding_norm_search,
    entropy_lower,
    entropy_upper,
    equivalent,
    exp_log_pow,
    geometric,
    iter_log,
    log_power,
    nuclear_norm_oracle,
    nuclear_norm_tong,
    nuclearity,
    parse,
    product,
    pw2,
    rate_fit,
    recip,
    standardize,
    tong,
)
from gsembed.corpus import load_cases, run_case

SEED = 20240817

BANACH_POOL = (Fraction(1), Fraction(4, 3), Fraction(3, 2), Fraction(2),
               Fraction(3), Fraction(4), Fraction(8), INF)


@pytest.fixture(scope="module")
def sweep_problems():
    """10^4 random Banach tuples with geometric weight profiles."""
    rng = random.Random(SEED)
    probs = []
    for _ in range(10_000):
        s1 = Fraction(rng.randint(-24, 24), rng.choice([1, 2, 3, 4]))
        s2 = Fraction(rng.randint(-24, 24), rng.choice([1, 2, 3, 4]))
        p1, q1, p2, q2 = (rng.choice(BANACH_POOL) for _ in range(4))
        d = rng.randint(1, 4)
        pr = EmbeddingProblem(geometric(s1), geometric(s2), p1, q1, p2, q2, d)
        probs.append((pr, s1, s2))
    return probs


def test_criterion_01_tong_dual_grid():
    # 50x50 grid over [1, inf]^2, exact rationals, < 1 s
    grid = [Fraction(1)] + [1 + Fraction(k, 7) for k in range(1, 43)] + \
        [Fraction(8), Fraction(12), Fraction(20), Fraction(33), Fraction(64),
         Fraction(100)] + [INF]
    assert len(grid) == 50
    t0 = time.perf_counter()
    for r1 in grid:
        for r2 in grid:
            t = tong(r1, r2)
            s = dual_star(r1, r2)
            lhs = recip(t)
            assert lhs == 1 - max(Fraction(0), recip(r1) - recip(r2))
            assert lhs >= recip(s)
            if {r1, r2} == {Fraction(1), INF}:
                assert lhs == recip(s)
            else:
                assert lhs > recip(s)
    assert time.perf_counter() - t0 < 1.0


def test_criterion_02_classical_sweep(sweep_problems):
    t0 = time.perf_counter()
    mismatches = 0
    for pr, s1, s2 in sweep_problems:
        gap = s1 - s2
        d = pr.dim
        want_compact = gap > d * max(Fraction(0), recip(pr.p1) - recip(pr.p2))
        want_nuclear = gap > d - d * max(Fraction(0), recip(pr.p2) - recip(pr.p1))
        vc = compactness(pr).status
        vn = nuclearity(pr).status
        if vc == "inconclusive" or (vc == "holds") != want_compact:
            mismatches += 1
        if vn == "inconclusive" or (vn == "holds") != want_nuclear:
            mismatches += 1
    assert mismatches == 0
    assert time.perf_counter() - t0 < 10.0


def test_criterion_03_log_corollary_matrix():
    p_pairs = [(1, 1), (1, 2), (2, 1), (1, INF), (INF, 1), (2, 3), (3, 2),
               (2, 2), (INF, INF)]
    q_pairs = [(1, 2), (2, 1), (2, 2), (1, INF), (INF, 1), (3, 2), (1, 1),
               (INF, INF)]
    eps = Fraction(1, 5)
    mismatches = 0
    for d in (1, 3):
        for p1, p2 in p_pairs:
            # smoothness gap pinned to the nuclearity threshold d/t(p1,p2)
            s1 = d - d * max(Fraction(0), recip(p2) - recip(p1))
            for q1, q2 in q_pairs:
                threshold = recip(tong(q1, q2))
                for b, want in [(threshold + eps, True), (threshold, False),
                                (threshold - eps, False)]:
                    sigma = product(geometric(s1), log_power(b))
                    pr = EmbeddingProblem(sigma, parse("1"), p1, q1, p2, q2, d)
                    got = nuclearity(pr).status
                    if got == "inconclusive" or (got == "holds") != want:
                        mismatches += 1
    assert mismatches == 0


def test_criterion_04_boyd_fixtures_and_brackets():
    for s, b in [(Fraction(1), Fraction(0)), (Fraction(-2), Fraction(3)),
                 (Fraction(5, 3), Fraction(-7, 2)), (Fraction(0), Fraction(2))]:
        out = boyd_indices(product(geometric(s), log_power(b)))
        assert out.exact and out.lower == s and out.upper == s
    for s0, s1 in [(Fraction(0), Fraction(1)), (Fraction(1, 2), Fraction(2)),
                   (Fraction(1), Fraction(3))]:
        out = boyd_indices(pw2(s0, s1))
        assert out.exact and out.lower == s0 and out.upper == s1

    rng = random.Random(4242)
    violations = 0
    for _ in range(100):
        r = Fraction(rng.randint(-16, 16), rng.choice([1, 2, 3, 4]))
        b = Fraction(rng.randint(-24, 24), rng.choice([1, 2, 3, 4]))
        parts = [geometric(r), log_power(b)]
        if rng.random() < 0.5:
            parts.append(iter_log(Fraction(rng.randint(-16, 16), 4)))
        if rng.random() < 0.3:
            coeff = Fraction(rng.randint(-8, 8), 4) or Fraction(1, 4)
            kappa = rng.choice([Fraction(1, 4), Fraction(1, 3),
                                Fraction(1, 2), Fraction(3, 4)])
            parts.append(exp_log_pow(coeff, kappa))
        nb = boyd_indices_numeric(product(*parts))
        fr = float(r)
        if not (nb.lower_bracket[0] <= fr <= nb.lower_bracket[1]):
            violations += 1
        if not (nb.upper_bracket[0] <= fr <= nb.upper_bracket[1]):
            violations += 1
    assert violations == 0


def test_criterion_05_standardization():
    growth = parse("2^(j)")
    failures = 0
    sigmas = [product(geometric(r), log_power(b))
              for r in (Fraction(-2), Fraction(-1, 2), Fraction(0),
                        Fraction(1, 2), Fraction(1))
              for b in (Fraction(0), Fraction(1), Fraction(-1), Fraction(2))]
    assert len(sigmas) == 20
    for sigma in sigmas:
        out = standardize(sigma, growth, kappa0=1).result
        if equivalent(out, sigma).status != "yes":
            failures += 1
    for s in (1, 2, 3):
        out = standardize(parse(f"2^({s}*j)"), parse("4^(j)"), kappa0=1).result
        target = product(geometric(Fraction(s, 2)))
        if equivalent(out, target).status != "yes":
            failures += 1
    assert failures == 0


def test_criterion_06_nuclear_oracles():
    t0 = time.perf_counter()
    for n in range(1, 1001):
        sec = FiniteSection((1.0,), (n,), 2, 2, 2, 2)
        assert nuclear_norm_tong(sec) == pytest.approx(float(n), rel=1e-9)

    for beta, M in [((1.0, 2.0), (3, 5)), ((0.5, 1.0, 4.0), (2, 10, 20)),
                    ((1.0,), (64,))]:
        sec = FiniteSection(beta, M, 2, 2, 2, 2)
        out = nuclear_norm_oracle(sec)
        expected = sum(m / b for b, m in zip(beta, M))
        assert out["hilbert_trace"] == pytest.approx(expected, rel=1e-9)
        assert nuclear_norm_tong(sec) == pytest.approx(out["hilbert_trace"],
                                                       rel=1e-9)

    for beta, M, q2 in [((1.0, 4.0), (2, 4), 1), ((2.0,), (6,), 2),
                        ((1.0, 1.0, 8.0), (1, 4, 16), INF)]:
        sec = FiniteSection(beta, M, INF, INF, 2, q2)
        out = nuclear_norm_oracle(sec)
        assert nuclear_norm_tong(sec) == pytest.approx(
            out["cube_source_exact"], rel=1e-9)

    rng = random.Random(99)
    pool = (Fraction(1), Fraction(3, 2), Fraction(2), Fraction(4), INF)
    for _ in range(100):
        nblocks = rng.randint(1, 4)
        M = tuple(rng.randint(1, 6) for _ in range(nblocks))
        beta = tuple(2.0 ** rng.uniform(-2, 2) for _ in range(nblocks))
        sec = FiniteSection(beta, M, rng.choice(pool), rng.choice(pool),
                            rng.choice(pool), rng.choice(pool))
        out = nuclear_norm_oracle(sec)
        assert out["coordinate_upper"] >= nuclear_norm_tong(sec) - 1e-9
    assert time.perf_counter() - t0 < 5.0


def test_criterion_07_norm_search_agreement():
    t0 = time.perf_counter()
    rng = random.Random(SEED)
    pool = (Fraction(1), Fraction(4, 3), Fraction(3, 2), Fraction(2),
            Fraction(3), Fraction(4), Fraction(6), INF)
    for _ in range(200):
        nblocks = rng.randint(1, 5)
        M = tuple(rng.randint(1, 12) for _ in range(nblocks))
        beta = tuple(2.0 ** rng.uniform(-3, 3) for _ in range(nblocks))
        sec = FiniteSection(beta, M, rng.choice(pool), rng.choice(pool),
                            rng.choice(pool), rng.choice(pool))
        assert sec.n <= 64
        closed = embedding_norm_closed(sec)
        found = embedding_norm_search(sec)
        assert found <= closed + 1e-9
        assert found >= 0.99 * closed
    assert time.perf_counter() - t0 < 8.0


def test_criterion_08_entropy_sandwich_and_slope():
    t0 = time.perf_counter()
    sections = [
        FiniteSection((1.0, 2.0, 4.0), (1, 2, 4), INF, INF, INF, INF),
        FiniteSection((1.0, 3.0), (2, 4), 2, 1, 2, 2),
        FiniteSection((0.5, 1.0, 2.0), (1, 2, 4), 1, 1, 2, 2),
        FiniteSection((2.0,), (1,), 2, 2, 2, 2),
        FiniteSection((1.0, 2.0), (3, 3), 2, INF, 4, 1),
    ]
    for sec in sections:
        for k in range(1, 13):
            up = entropy_upper(sec, k).value
            lo = entropy_lower(sec, k).value
            assert lo <= up * (1 + 1e-9)

    one = FiniteSection((2.0,), (1,), 2, 2, 2, 2)
    for k in (1, 2, 7):
        up = entropy_upper(one, k).value
        lo = entropy_lower(one, k).value
        assert up == pytest.approx(lo, rel=1e-12)

    for s in (1, 2):
        pr = EmbeddingProblem(f"2^({s}*j)", "1", INF, INF, INF, INF, 1)
        fit = rate_fit(pr, levels=[1, 2, 3, 4])
        assert fit.predicted_slope == pytest.approx(-float(s))
        assert 0.7 <= fit.ratio <= 1.3
    assert time.perf_counter() - t0 < 60.0


def test_criterion_09_entropy_rate_catalog():
    cases = [c for c in load_cases() if c.check["op"] == "entropy_rate"]
    kinds = {c.check["expect"]["kind"] for c in cases}
    assert {"non-limiting", "limiting-log", "limiting-coupled-log",
            "limiting-sv-integral"} <= kinds
    coupled = [c for c in cases
               if c.check["expect"]["kind"] == "limiting-coupled-log"]
    assert len(coupled) == 3
    for c in cases:
        result = run_case(c)
        assert result["passed"], (c.id, result)


def test_criterion_10_nuclear_implies_compact_and_reproduce(sweep_problems,
                                                            capsys):
    violations = 0
    for pr, _, _ in sweep_problems:
        if nuclearity(pr).status == "holds" and \
                compactness(pr).status != "holds":
            violations += 1
    for case in load_cases():
        ch = case.check
        if "sigma" not in ch:
            continue
        pr = EmbeddingProblem.from_dict(ch)
        if not pr.is_banach():
            continue
        if nuclearity(pr).status == "holds" and \
                compactness(pr).status != "holds":
            violations += 1
    assert violations == 0

    code = cli.run(["reproduce", "all"])
    out = capsys.readouterr().out
    assert code == 0
    assert json.loads(out)["all_pass"]
