"""Finite-section laboratory against closed-form oracles."""

import math
import random
import time
import warnings
from fractions import Fraction

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import assume, given

from conftest import banach_exponents
from gsembed import (
    EmbeddingProblem,
    EntropyBound,
    FiniteSection,
    INF,
    SectionRangeError,
    dual_star,
    embedding_norm_closed,
    embedding_norm_search,
    entropy_lower,
    entropy_properties,
    entropy_upper,
    finite_section,
    nuclear_norm_oracle,
    nuclear_norm_tong,
    rate_fit,
    recip,
    seqspacelab,
    tong,
)
from gsembed.seqdsl import log2_value
from gsembed.seqspacelab import (MAX_ENTROPY_K, MAX_ENTROPY_N, MAX_SEARCH_N,
                                 _cover_error, _grid_centers, _log_ball_volume,
                                 _lp_norm)


def sec(beta, M, p1, q1, p2, q2):
    return FiniteSection(tuple(beta), tuple(M), p1, q1, p2, q2)


class TestFiniteSection:
    def test_validation(self):
        with pytest.raises(ValueError):
            sec((), (), 1, 1, 1, 1)
        with pytest.raises(ValueError):
            sec((1.0,), (1, 2), 1, 1, 1, 1)
        with pytest.raises(ValueError):
            sec((0.0,), (1,), 1, 1, 1, 1)
        with pytest.raises(ValueError):
            sec((1.0,), (0,), 1, 1, 1, 1)
        with pytest.raises(ValueError, match="positive and finite"):
            sec((math.nan,), (1,), 1, 1, 1, 1)
        with pytest.raises(ValueError, match="p1 must be positive"):
            sec((1.0,), (1,), -2, 1, 1, 1)

    @pytest.mark.parametrize("weight", [True, math.nan, "1", None, math.inf])
    def test_beta_must_be_a_real_number(self, weight):
        with pytest.raises(ValueError, match="positive and finite"):
            sec((1.0, weight), (1, 1), 2, 2, 2, 2)

    def test_beta_reads_reals_as_floats(self):
        s = sec((2, Fraction(1, 4), np.float64(0.5)), (1, 1, 1), 2, 2, 2, 2)
        assert s.beta == (2.0, 0.25, 0.5)
        assert all(type(b) is float for b in s.beta)

    def test_weights_absorb_integrability_gap(self):
        pr = EmbeddingProblem("2^(2*j)", "1", 1, 1, 2, 2, 1)
        s = finite_section(pr, 2)
        # beta_j = 2^(2j) * 2^(-j(1 - 1/2)) = 2^(3j/2)
        assert s.beta == pytest.approx((1.0, 2.0 ** 1.5, 8.0))
        assert s.M == (1, 2, 4)
        assert s.n == 7 and s.levels == 2
        with pytest.raises(ValueError, match="levels"):
            finite_section(pr, -1)

    def test_weight_out_of_float_range(self):
        up = EmbeddingProblem("2^(2*j)", "1", 2, 2, 2, 2, 1)
        with pytest.raises(SectionRangeError, match="level 512"):
            finite_section(up, 600)
        down = EmbeddingProblem("2^(-2*j)", "1", 2, 2, 2, 2, 1)
        with pytest.raises(SectionRangeError, match="underflows"):
            finite_section(down, 600)

    def test_equal_huge_weights_build(self):
        # sigma = tau: every beta_j is 1 although tau_j alone leaves the
        # float range at j = 1
        w = "2^(1100*j)"
        s = finite_section(EmbeddingProblem(w, w, 2, 2, 2, 2, 1), 1)
        assert s.beta == (1.0, 1.0)
        assert embedding_norm_closed(s) == 1.0

    def test_caches_follow_the_fields(self):
        # closed_norm, cover_scales, cover_radius and log2_ball_volumes are
        # cached on the instance: a replaced weight must get its own, and
        # filled caches must not enter equality or the hash
        s = sec((1.0, 2.0), (1, 3), 2, 1, 4, 2)
        entropy_upper(s, 5)
        entropy_lower(s, 5)
        t = s._replace(beta=(0.5, 2.0))
        fresh_t = sec((0.5, 2.0), (1, 3), 2, 1, 4, 2)
        assert embedding_norm_closed(t) == embedding_norm_closed(fresh_t) \
            != embedding_norm_closed(s)
        assert t.log2_ball_volumes == fresh_t.log2_ball_volumes \
            != s.log2_ball_volumes
        assert t.cover_scales == fresh_t.cover_scales != s.cover_scales
        assert entropy_upper(t, 5) == entropy_upper(fresh_t, 5)
        fresh_s = sec((1.0, 2.0), (1, 3), 2, 1, 4, 2)
        assert s == fresh_s and hash(s) == hash(fresh_s)
        assert s != t and len({s, fresh_s, t}) == 2


class TestOperatorNorm:
    def test_summed_gains(self):
        s = sec((1.0, 2.0), (1, 1), 2, INF, 2, 1)
        assert embedding_norm_closed(s) == pytest.approx(1.5)

    def test_sup_of_gains(self):
        s = sec((1.0, 2.0), (1, 1), 2, 1, 2, INF)
        assert embedding_norm_closed(s) == pytest.approx(1.0)

    def test_block_shape_factor(self):
        s = sec((1.0,), (4,), INF, 2, 1, 2)
        assert embedding_norm_closed(s) == pytest.approx(4.0)

    def test_hoelder_exponent(self):
        s = sec((1.0, 2.0), (1, 1), 2, 2, 2, 1)
        assert embedding_norm_closed(s) == pytest.approx(math.sqrt(1.25))

    def test_search_brackets_closed(self):
        fixtures = [
            sec((1.0, 2.0), (1, 1), 2, INF, 2, 1),
            sec((1.0, 2.0, 4.0), (1, 2, 4), 1, 1, 2, 2),
            sec((1.0,), (4,), INF, 2, 1, 2),
            sec((0.5, 1.0), (2, 3), 2, 2, INF, INF),
        ]
        for s in fixtures:
            closed = embedding_norm_closed(s)
            found = embedding_norm_search(s)
            assert found <= closed + 1e-9
            assert found >= 0.99 * closed

    def test_search_random_sections(self):
        rng = np.random.default_rng(20240817)
        exps = [1, Fraction(4, 3), 2, 4, INF]
        for _ in range(12):
            nblocks = int(rng.integers(1, 4))
            beta = tuple(float(b) for b in rng.uniform(0.5, 4.0, nblocks))
            M = tuple(int(m) for m in rng.integers(1, 4, nblocks))
            pick = lambda: exps[int(rng.integers(0, len(exps)))]
            s = sec(beta, M, pick(), pick(), pick(), pick())
            closed = embedding_norm_closed(s)
            found = embedding_norm_search(s)
            assert found <= closed + 1e-9
            assert found >= 0.99 * closed

    def test_search_powers_beyond_float_range(self):
        # block powers x^p overflow (Hoelder candidate, grown entries) or
        # underflow (outer sum of tiny weighted norms); the search rescales
        fixtures = [
            finite_section(EmbeddingProblem("2^(-1/4*j)", "2^(8*j)", 3,
                                            Fraction(3, 2), 8,
                                            Fraction(4, 3), 1), 4),
            sec((1.0, 2.0 ** -200), (2, 3), 2, 6, 2, 6),
            sec((1.0, 2.0 ** -100), (2, 3), 3, 6, 8, 2),
        ]
        for s in fixtures:
            closed = embedding_norm_closed(s)
            found = embedding_norm_search(s)
            assert found <= closed * (1 + 1e-9)
            assert found >= 0.99 * closed

    def test_search_is_deterministic(self):
        s = sec((1.0, 3.0), (2, 2), 2, 2, 2, 1)
        assert embedding_norm_search(s) == embedding_norm_search(s)

    def test_ascent_keywords_are_ignored(self):
        # gsbench's worker still passes the keywords of the deleted ascent
        for s in (sec((1.0, 3.0), (2, 2), 2, 2, 2, 1),
                  sec((0.05, 3.0, 40.0), (7, 2, 3), 20, Fraction(3, 2), 3, 2)):
            assert embedding_norm_search(s, seed=17, restarts=1, iters=40) \
                == embedding_norm_search(s)

    # values of the whole-section (numpy) search, before its random ascent
    # became incremental and then was deleted: the structural candidates
    # attain them.  The middle column is the seed each value was pinned
    # with; the search draws nothing now, and the column keeps the test ids
    PINNED = [
        (sec((1.0, 2.0, 0.5), (2, 3, 1), Fraction(4, 3), 2, 3, 2), 1, 2.0),
        (sec((0.7, 1.5), (4, 2), 4, 2, Fraction(3, 2), 2), 2,
         2.545424908972398),
        (sec((1.0, 0.25), (3, 2), INF, 3, 2, INF), 3, 5.656854249492381),
        (sec((2.0, 1.0, 3.0), (1, 2, 2), 2, INF, 1, 4), 4,
         1.4240006242195884),
        (sec((1.0, 2.0, 4.0), (2, 1, 3), 2, 4, 2, Fraction(4, 3)), 5,
         1.14564392373896),
        (sec((1.5,), (12,), 3, 1, Fraction(3, 2), 2), 6, 1.5262856567377756),
        (finite_section(EmbeddingProblem("2^(j)", "1", 2, 3, 4, 2, 2), 1), 7,
         1.0198244513277528),
        # a max-tracked target block, a max-tracked source block under
        # finite outer indices, and p1 = 20 over weights 800 apart, where
        # trial power sums cancel and the block is recomputed
        (sec((0.8, 1.7, 0.4), (3, 4, 2), Fraction(3, 2), 2, INF, 3), 8, 2.5),
        (sec((1.2, 0.5, 2.5), (4, 3, 2), INF, 4, 2, Fraction(3, 2)), 9,
         3.71884878786839),
        (sec((0.05, 3.0, 40.0), (7, 2, 3), 20, Fraction(3, 2), 3, 2), 11,
         34.71158463719866),
    ]

    @pytest.mark.parametrize("s, seed, value", PINNED)
    def test_search_pinned_values(self, s, seed, value):
        found = embedding_norm_search(s)
        assert found == pytest.approx(value, rel=1e-12)

    def test_search_default_lab_norm_section(self):
        # the largest section `lab norm --from-problem` builds by default
        # (dim 3, 3 levels, one block of 512)
        s = finite_section(EmbeddingProblem("2^(j)", "1", 4, 2, 2, 1, 3), 3)
        assert s.n == 585
        closed = embedding_norm_closed(s)
        t0 = time.perf_counter()
        found = embedding_norm_search(s)
        assert time.perf_counter() - t0 < 2.0
        assert 0.99 * closed <= found <= closed * (1 + 1e-9)

    def test_search_is_linear_in_n(self):
        # MAX_SEARCH_N blocks of one coordinate: candidates that each
        # rebuilt every block cost O(nblocks * n), 3.1 s on a 2-core VM
        rng = random.Random(13)
        s = sec([2.0 ** rng.uniform(-8, 8) for _ in range(MAX_SEARCH_N)],
                [1] * MAX_SEARCH_N, Fraction(4, 3), 3, 2, Fraction(3, 2))
        t0 = time.perf_counter()
        found = embedding_norm_search(s)
        assert time.perf_counter() - t0 < 0.5
        closed = embedding_norm_closed(s)
        assert closed * (1 - 1e-12) <= found <= closed * (1 + 1e-12)

    @given(data=st.data())
    def test_search_attains_closed(self, data):
        # the candidates attain the closed norm, quasi-Banach indices
        # included; each ratio comes from an explicit vector, so it never
        # exceeds the norm
        nblocks = data.draw(st.integers(1, 64))
        beta = data.draw(st.lists(st.floats(-16, 16), min_size=nblocks,
                                  max_size=nblocks))
        M = data.draw(st.lists(st.integers(1, 16), min_size=nblocks,
                               max_size=nblocks))
        pick = st.sampled_from([Fraction(1, 2), 1, Fraction(4, 3), 2, 3, INF])
        s = sec([2.0 ** b for b in beta], M, *(data.draw(pick) for _ in range(4)))
        closed = embedding_norm_closed(s)
        found = embedding_norm_search(s)
        assert closed * (1 - 1e-12) <= found <= closed * (1 + 1e-12)


class TestNuclearNorm:
    def test_banach_required(self):
        s = sec((1.0,), (2,), 0.5, 1, 2, 2)
        with pytest.raises(ValueError):
            nuclear_norm_tong(s)

    def test_identity_is_dimension(self):
        for n in (1, 5, 30):
            s = sec((1.0,) * 1, (n,), 2, 2, 2, 2)
            assert nuclear_norm_tong(s) == pytest.approx(float(n))

    def test_hilbert_svd_oracle(self):
        s = sec((1.0, 2.0), (2, 3), 2, 2, 2, 2)
        out = nuclear_norm_oracle(s)
        assert out["hilbert_trace"] == pytest.approx(3.5)
        assert nuclear_norm_tong(s) == pytest.approx(out["hilbert_trace"])

    def test_cube_source_oracle(self):
        s = sec((1.0, 4.0), (2, 4), INF, INF, 2, 1)
        out = nuclear_norm_oracle(s)
        assert out["cube_source_exact"] == pytest.approx(3.0)
        assert nuclear_norm_tong(s) == pytest.approx(3.0)

    def test_scaled_identity_oracle(self):
        s = sec((2.0, 2.0), (2, 2), 3, 3, 3, 3)
        out = nuclear_norm_oracle(s)
        assert out["scaled_identity"] == pytest.approx(2.0)
        assert nuclear_norm_tong(s) == pytest.approx(2.0)

    def test_gains_beyond_float_powers(self):
        # the gain 1e200 squared leaves the float range, the norm does not
        s = sec((1e-200, 1.0), (1, 1), 1, 1, 1, 2)
        assert nuclear_norm_tong(s) == 1e200

    def test_coordinate_upper_dominates(self):
        fixtures = [
            sec((1.0, 2.0), (1, 2), 1, 2, 4, INF),
            sec((0.5, 1.0, 3.0), (1, 2, 4), 2, 1, INF, 2),
            sec((1.0,), (6,), INF, 1, 1, INF),
        ]
        for s in fixtures:
            out = nuclear_norm_oracle(s)
            assert out["coordinate_upper"] >= nuclear_norm_tong(s) - 1e-9


@st.composite
def banach_sections(draw):
    n = draw(st.integers(1, 4))
    beta = draw(st.lists(st.floats(2.0 ** -40, 2.0 ** 40), min_size=n, max_size=n))
    M = draw(st.lists(st.integers(1, 5), min_size=n, max_size=n))
    return sec(beta, M, *(draw(banach_exponents) for _ in range(4)))


class TestReciprocalRoute:
    """The section's cached recips and gains against the public exponent
    laws, bit for bit."""

    @staticmethod
    def reference(s, law):
        e = float(recip(law(s.p1, s.p2)))
        terms = [float(m) ** e / b for b, m in zip(s.beta, s.M)]
        return _lp_norm(law(s.q1, s.q2))(terms)

    @given(banach_sections())
    def test_closed_norm(self, s):
        assert embedding_norm_closed(s) == self.reference(s, dual_star)

    @given(banach_sections())
    def test_nuclear_norm(self, s):
        assert nuclear_norm_tong(s) == self.reference(s, tong)


class TestBallVolumes:
    def test_interval(self):
        assert _log_ball_volume((1,), 2, INF) == pytest.approx(1.0)

    def test_euclidean_disc(self):
        assert _log_ball_volume((2,), 2, INF) == pytest.approx(math.log2(math.pi))

    def test_cross_polytope(self):
        # ell_1^3 ball has volume 2^3 / 3!
        assert _log_ball_volume((1, 1, 1), 2, 1) == \
            pytest.approx(math.log2(8.0 / 6.0))

    def test_cube(self):
        assert _log_ball_volume((2, 2), INF, INF) == pytest.approx(4.0)

    def test_weights_shrink_volume(self):
        v = _log_ball_volume((2,), 2, INF, beta=[2.0])
        assert v == pytest.approx(math.log2(math.pi) - 2.0)


def trial_radius_greedy(s, k):
    """Reference allocator by trial radii: try every affordable refinement
    and keep the one with the smallest cover radius, then the largest
    current error, then the lowest index.  Returns
    (refinements, centers, value, tied); tied says that some step met an
    exact tie among the largest affordable errors."""
    budget, scales = 1 << (k - 1), s.cover_scales
    ms = [0] * len(scales)
    errs = [_cover_error(c, 0) for c in scales]
    count, tied = 1, False
    while True:
        best, affordable = None, []
        for j, (m, size) in enumerate(zip(ms, s.M)):
            grown = count // _grid_centers(m, size) * _grid_centers(m + 1, size)
            if grown > budget:
                continue
            affordable.append(errs[j])
            trial = errs.copy()
            trial[j] = _cover_error(scales[j], m + 1)
            key = (s.cover_radius(trial), -errs[j])
            if best is None or key < best[0]:
                best = (key, j, grown, trial)
        if best is None:
            # entropy_upper's rule: the norm itself while no refinement fits
            nrm = embedding_norm_closed(s)
            value = nrm if count == 1 else min(s.cover_radius(errs), nrm)
            return tuple(ms), count, value, tied
        tied |= affordable.count(max(affordable)) > 1
        _, j, count, errs = best
        ms[j] += 1


def scan_every_block_greedy(s, k):
    """entropy_upper's lattice cover as it was before the greedy kept its
    grid counts: every step scans every block and rebuilds both of its
    counts, blocks that can never be refined again included."""
    budget, scales = 1 << (k - 1), s.cover_scales
    ms = [0] * len(scales)
    errs = [_cover_error(c, 0) for c in scales]
    count = 1
    while True:
        best = None
        for j, (m, size) in enumerate(zip(ms, s.M)):
            grown = count // _grid_centers(m, size) * _grid_centers(m + 1, size)
            if grown <= budget and (best is None or (-errs[j], grown) < best[:2]):
                best = (-errs[j], grown, j)
        if best is None:
            break
        _, count, j = best
        ms[j] += 1
        errs[j] = _cover_error(scales[j], ms[j])
    nrm = embedding_norm_closed(s)
    value = nrm if count == 1 else min(s.cover_radius(errs), nrm)
    return EntropyBound(value, k, "lattice-cover",
                        {"refinements": tuple(ms), "norm": nrm, "centers": count})


@st.composite
def tie_sections(draw, size=8):
    """A section of 1-8 blocks of up to size coordinates, with weights
    often equal so that block errors tie, and a permutation of its blocks."""
    M = draw(st.lists(st.integers(1, size), min_size=1, max_size=8)
             .filter(lambda M: 2 <= sum(M) <= MAX_ENTROPY_N))
    weight = st.one_of(st.sampled_from([0.25, 0.5, 1.0, 2.0, 3.0]),
                       st.floats(-4, 4).map(lambda b: 2.0 ** b))
    beta = draw(st.lists(weight, min_size=len(M), max_size=len(M)))
    pick = st.sampled_from([Fraction(1, 2), Fraction(2, 3), 1, Fraction(4, 3),
                            2, 3, 6, INF])
    s = sec(beta, M, *(draw(pick) for _ in range(4)))
    return s, draw(st.permutations(range(len(M))))


class TestEntropyBounds:
    def test_argument_validation(self):
        s = sec((1.0,), (2,), 2, 2, 2, 2)
        with pytest.raises(ValueError):
            entropy_upper(s, 0)
        with pytest.raises(ValueError, match="index k .* limit"):
            entropy_upper(s, MAX_ENTROPY_K + 1)
        big = sec((1.0,), (MAX_ENTROPY_N + 1,), 2, 2, 2, 2)
        with pytest.raises(ValueError, match="section size n .* limit"):
            entropy_upper(big, 1)
        with pytest.raises(ValueError):
            entropy_lower(s, 0)

    def test_one_dimensional_exact(self):
        s = sec((2.0,), (1,), 2, 2, 2, 2)
        for k in (1, 2, 5):
            ub = entropy_upper(s, k)
            lb = entropy_lower(s, k)
            assert ub.method == "exact-1d"
            assert ub.value == pytest.approx(0.5 * 2.0 ** -(k - 1))
            assert lb.value == pytest.approx(ub.value)

    def test_first_bound_is_norm(self):
        s = sec((1.0, 2.0, 4.0), (1, 2, 4), INF, INF, INF, INF)
        nrm = embedding_norm_closed(s)
        assert entropy_upper(s, 1).value == pytest.approx(nrm)

    def test_sandwich_report(self):
        s = sec((1.0, 2.0, 4.0), (1, 2, 4), INF, INF, INF, INF)
        rep = entropy_properties(s, ks=(1, 2, 3, 4, 6, 8, 12))
        assert rep["sound"] and rep["monotone"] and rep["first_is_norm"]

    def test_sandwich_mixed_indices(self):
        s = sec((1.0, 3.0), (2, 4), 2, 1, 2, 2)
        rep = entropy_properties(s, ks=(1, 2, 4, 8))
        assert rep["sound"] and rep["monotone"] and rep["first_is_norm"]
        # up to the limits, n = 21, 40 and 64 (64 blocks of size 1 too)
        for M in ((1, 4, 16), (8, 32), (1,) * 64, (4, 20, 40)):
            s = sec(tuple(1.0 + 0.25 * j for j in range(len(M))), M, 2, 1, 4, 2)
            rep = entropy_properties(s, ks=(1, 2, 40, 80, 160))
            assert rep["sound"] and rep["first_is_norm"], M

    def test_errors_beyond_float_powers(self):
        # the final radius squares a block error of about 1e200, and the
        # greedy halves errors of that size; neither may overflow to inf
        s = sec((1e-200, 1.0), (1, 1), 1, 1, 1, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = [entropy_upper(s, k).value for k in (1, 2, 3, 4)]
        assert values == [1e200, 1e200, 5e199, 2.5e199]

    # ladders computed with the center count rebuilt for every trial, before
    # the section cached its norm, cover scales and ball volumes: the
    # docstring's non-monotone pair, the 64-coordinate section of
    # test_sandwich_mixed_indices up to MAX_ENTROPY_K, and the 1e-200 row of
    # test_errors_beyond_float_powers.  Rows are (section name, k, upper
    # value, refinements, centers, norm, lower value), compared with ==.
    # The cap rows at k = 40 and 160 meet equal errors; their refinements
    # and centers follow the tie rule of entropy_upper, the value does not
    # move
    SECTIONS = {
        "non-monotone": finite_section(EmbeddingProblem(
            "2^(-2/3*j)", "2^(-7*j)", Fraction(2, 3), 3, 4, 1, 1), 2),
        "cap": sec(tuple(1.0 + 0.25 * j for j in range(64)), (1,) * 64,
                   2, 1, 4, 2),
        "tiny-weight": sec((1e-200, 1.0), (1, 1), 1, 1, 1, 2),
    }
    LADDER = [
        ("non-monotone", 9, 0.044119830659955867, (7, 0, 0), 129,
         1.0033914206113983, 0.002034345543216639),
        ("non-monotone", 10, 0.05001886115512191, (5, 1, 0), 297,
         1.0033914206113983, 0.0018425548997811204),
        ("cap", 1, 1.0, (0,) * 64, 1, 1.0, 0.022404873978073687),
        ("cap", 2, 1.0, (0,) * 64, 1, 1.0, 0.022163528971191233),
        ("cap", 40, 0.8619937015260014,
         (3,) * 2 + (2,) * 7 + (1,) * 10 + (0,) * 45, 373669453125, 1.0,
         0.014685960367177573),
        ("cap", 80, 0.573299881047529,
         (4,) * 2 + (3,) * 5 + (2,) * 10 + (1,) * 20 + (0,) * 27,
         581079464603062119140625, 1.0, 0.00952266715109647),
        ("cap", 160, 0.2604067319195866,
         (5,) * 2 + (4,) * 6 + (3,) * 11 + (2,) * 24 + (1,) * 21,
         514298745574691745604932003194510936737060546875, 1.0,
         0.004003788335505663),
        ("tiny-weight", 1, 1e200, (0, 0), 1, 1e200, 7.978845608028783e+99),
        ("tiny-weight", 2, 1e200, (0, 0), 1, 1e200, 5.641895835477654e+99),
        ("tiny-weight", 3, 5e199, (1, 0), 3, 1e200, 3.9894228040143913e+99),
        ("tiny-weight", 4, 2.5e199, (2, 0), 5, 1e200, 2.820947917738827e+99),
    ]

    @pytest.mark.parametrize("name, k, value, ms, centers, norm, lower", LADDER,
                             ids=[f"{row[0]}-k{row[1]}" for row in LADDER])
    def test_ladder_pinned(self, name, k, value, ms, centers, norm, lower):
        s = self.SECTIONS[name]
        assert entropy_upper(s, k) == EntropyBound(
            value, k, "lattice-cover",
            {"refinements": ms, "norm": norm, "centers": centers})
        assert entropy_lower(s, k).value == lower

    @given(data=st.data())
    def test_centers_count_the_cover(self, data):
        # block j holds a grid of 2^m_j + 1 points per coordinate, or the
        # single center for m_j = 0; the count fits the budget 2^(k-1), and
        # the greedy stops only when no one refinement still fits
        M = data.draw(st.lists(st.integers(1, 8), min_size=1, max_size=16)
                      .filter(lambda M: 2 <= sum(M) <= MAX_ENTROPY_N))
        beta = data.draw(st.lists(st.floats(-12, 12), min_size=len(M),
                                  max_size=len(M)))
        pick = st.sampled_from([Fraction(1, 2), 1, Fraction(4, 3), 2, 3, INF])
        s = sec([2.0 ** b for b in beta], M, *(data.draw(pick) for _ in range(4)))
        k = data.draw(st.integers(1, 40))
        detail = entropy_upper(s, k).detail
        ms = detail["refinements"]

        def grid(m, size):
            return ((1 << m) + 1) ** size if m else 1

        centers = math.prod(grid(m, size) for m, size in zip(ms, M))
        assert detail["centers"] == centers <= 2 ** (k - 1)
        assert all(centers // grid(m, size) * grid(m + 1, size) > 2 ** (k - 1)
                   for m, size in zip(ms, M))

    @given(data=st.data())
    def test_matches_trial_radius_greedy_off_ties(self, data):
        s, _ = data.draw(tie_sections())
        k = data.draw(st.integers(1, MAX_ENTROPY_K))
        ms, centers, value, tied = trial_radius_greedy(s, k)
        assume(not tied)
        ub = entropy_upper(s, k)
        assert (ub.detail["refinements"], ub.detail["centers"], ub.value) == (
            ms, centers, value)

    @given(data=st.data())
    def test_matches_scan_every_block_greedy(self, data):
        # keeping the grid counts and dropping blocks past the budget moves
        # no bound, no refinement and no center count, ties included
        s, _ = data.draw(st.one_of(tie_sections(), tie_sections(size=12)))
        k = data.draw(st.integers(1, MAX_ENTROPY_K))
        assert entropy_upper(s, k) == scan_every_block_greedy(s, k)

    def test_cap_section_is_fast(self):
        # 64 blocks of one coordinate at MAX_ENTROPY_K: rebuilding every
        # block's grid counts at every step took about 9 ms on a 2-core VM
        s = self.SECTIONS["cap"]
        t0 = time.perf_counter()
        ub = entropy_upper(s, MAX_ENTROPY_K)
        assert time.perf_counter() - t0 < 0.5
        assert ub == scan_every_block_greedy(s, MAX_ENTROPY_K)

    @given(data=st.data())
    def test_block_order_does_not_matter(self, data):
        s, perm = data.draw(tie_sections())
        t = sec([s.beta[i] for i in perm], [s.M[i] for i in perm],
                s.p1, s.q1, s.p2, s.q2)
        k = data.draw(st.integers(1, MAX_ENTROPY_K))
        a, b = entropy_upper(s, k), entropy_upper(t, k)
        assert b.value == pytest.approx(a.value, rel=1e-12)
        assert b.detail["centers"] == a.detail["centers"]
        assert (sorted(zip(t.beta, t.M, b.detail["refinements"]))
                == sorted(zip(s.beta, s.M, a.detail["refinements"])))

    def test_tie_between_equal_errors(self):
        # blocks 1 and 2 tie at errors 12.0 and 6.0, blocks 0 and 5 at 8.0;
        # trial radii told them apart by rounding, which gave 21.4566 with
        # refinements (2,1,3,0,2,1,0)
        beta = (0.25, 0.25, 0.25, 2.0, 0.25, 0.25, 2.0)
        M = (8, 3, 6, 6, 7, 2, 6)
        exps = (6, Fraction(2, 3), 1, Fraction(4, 3))
        ub = entropy_upper(sec(beta, M, *exps), 63)
        assert ub.value == 20.414404345937122
        assert ub.detail["refinements"] == (2, 2, 2, 0, 2, 2, 0)
        assert ub.detail["centers"] == 1490116119384765625
        rev = entropy_upper(sec(beta[::-1], M[::-1], *exps), 63)
        assert rev.value == pytest.approx(ub.value, rel=1e-12)
        assert rev.detail["refinements"] == (0, 2, 2, 0, 2, 2, 2)

    def test_lower_positive(self):
        s = sec((1.0, 2.0), (1, 2), 2, 2, 2, 2)
        assert entropy_lower(s, 3).value > 0.0

    def test_lower_at_most_norm(self):
        # the volume ratio read 0.6666666666666667 here, an ulp above the
        # norm that entropy_upper returns at k = 1
        s = sec((1.5,), (6,), 4, 1, 4, 2)
        assert entropy_lower(s, 1).value <= entropy_upper(s, 1).value

    @given(data=st.data())
    def test_lower_below_upper_at_k1(self, data):
        s, _ = data.draw(tie_sections())
        assert entropy_lower(s, 1).value <= entropy_upper(s, 1).value


class TestRateFit:
    def test_needs_two_levels(self):
        pr = EmbeddingProblem("2^(j)", "1", INF, INF, INF, INF, 1)
        for levels in ([2], [2, 2]):
            with pytest.raises(ValueError, match="two levels"):
                rate_fit(pr, levels=levels)

    def test_cube_slope_tracks_smoothness_gap(self):
        pr = EmbeddingProblem("2^(j)", "1", INF, INF, INF, INF, 1)
        fit = rate_fit(pr, levels=[1, 2, 3])
        assert fit.predicted_slope == pytest.approx(-1.0)
        assert 0.5 <= fit.ratio <= 1.5
        assert not fit.non_decaying

    def test_flat_weights_do_not_decay(self):
        pr = EmbeddingProblem("1", "1", INF, INF, INF, INF, 1)
        fit = rate_fit(pr, levels=[1, 2, 3])
        assert fit.non_decaying

    def test_prediction_comes_from_entropy_rate(self):
        # a table prefix does not move the law; a non-compact embedding has none
        pr = EmbeddingProblem("(table[3] then 2^(j))", "1", INF, INF, INF, INF, 1)
        fit = rate_fit(pr, levels=[1, 2, 3])
        assert fit.predicted_slope == pytest.approx(-1.0)
        assert fit.ratio == pytest.approx(fit.slope / -1.0)
        flat = rate_fit(EmbeddingProblem("1", "1", INF, INF, INF, INF, 1), levels=[1, 2])
        assert flat.predicted_slope is None and flat.ratio is None

    def test_each_block_is_computed_once(self):
        # the fit's sections are finite_section's, built from one pass
        pr = EmbeddingProblem("2^(j)*(1+j)", "(table[3] then 1)", 2, 1, 4, INF, 1)
        calls = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(seqspacelab, "log2_value",
                       lambda e, j: calls.append(j) or log2_value(e, j))
            fit = rate_fit(pr, levels=[4, 1, 3, 2, 3])
        assert sorted(calls) == sorted(2 * list(range(5)))
        sections = [finite_section(pr, L) for L in (1, 2, 3, 4)]
        assert fit.ks == tuple(2 * s.n for s in sections)
        assert fit.bounds == tuple(entropy_upper(s, 2 * s.n).value for s in sections)

    def test_errors_come_level_by_level(self):
        # level 2 passes the entropy cap (n = 73) before level 4's weight,
        # 2^1200, leaves the float range, so the cap is reported
        pr = EmbeddingProblem("2^(300*j)", "1", 2, 2, 2, 2, 3)
        with pytest.raises(SectionRangeError, match="level 4 is 2\\^\\(1200\\)"):
            finite_section(pr, 4)
        with pytest.raises(ValueError, match="n = 73 exceeds the limit of 64"):
            rate_fit(pr, levels=[4, 2])
        with pytest.raises(SectionRangeError, match="level 4 is 2\\^\\(1200\\)"):
            rate_fit(pr, levels=[1, 4])
        with pytest.raises(ValueError, match="levels must be >= 0"):
            rate_fit(pr, levels=[2, -1])
