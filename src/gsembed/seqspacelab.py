"""Finite sections of weighted mixed-norm embeddings: norms, nuclear norms,
entropy bounds.

A finite section keeps blocks j = 0..L of the diagonal embedding

    id: ell_q1(beta_j ell_p1^{M_j}) -> ell_q2(ell_p2^{M_j}),

i.e. vectors x = (x_0, ..., x_L) with x_j of dimension M_j, source norm
|| (beta_j ||x_j||_p1)_j ||_q1 and target norm || (||x_j||_p2)_j ||_q2.
Everything here is numeric and cross-checks the exact sequence-space
formulas: the closed operator norm, the exact nuclear norm of the diagonal,
and two-sided entropy bounds that are sound rather than asymptotically
sharp.  The norm search checks the closed norm from below with the ratios
of explicit extremal vectors, one per block and one Hoelder-coupled over
all blocks, in O(n).

A section validates its exponents through the engine's Exponents base and
derives everything that does not depend on an entropy index k once, as
cached properties:
  - inner and outer, the engine's reciprocal laws of (p1, p2) and (q1, q2),
    which equal pairs share, and from which every routine here reads the
    reciprocals of the exponents;
  - gains = (beta_j^-1 M_j^(1/p*))_j, the norms of the diagonal blocks;
  - closed_norm, the exact operator norm that embedding_norm_closed returns;
  - cover_scales = ((M_j^(1/p2), 1/beta_j))_j and cover_radius, the ell_q2
    norm, from which entropy_upper builds the radius of every lattice cover;
  - log2_ball_volumes, the log2 volumes of the source-ball image and of the
    target ball that entropy_lower compares.
Every routine here reads these instead of inverting exponents itself, so an
entropy ladder over many k pays for them once.  Every ell_p aggregate goes
through one rescaling _lp_norm on Python floats, since the blocks are small.
"""

from __future__ import annotations

import math
from fractions import Fraction
from numbers import Real
from typing import NamedTuple, Optional, Sequence

from .seqdsl import _Record, _cached, log2_value
from .embanalyzer import (INF, EmbeddingProblem, Exponents, ExtReal, _from_recip,
                          _require_banach, entropy_rate)

__all__ = [
    "FiniteSection",
    "SectionRangeError",
    "finite_section",
    "embedding_norm_closed",
    "embedding_norm_search",
    "nuclear_norm_tong",
    "nuclear_norm_oracle",
    "EntropyBound",
    "entropy_upper",
    "entropy_lower",
    "entropy_properties",
    "RateFit",
    "rate_fit",
]

# bound on embedding_norm_search, checked before anything is allocated: the
# candidates cost O(n) float operations, so the section size n is capped;
# the default section of `lab norm` (3 levels, dim 3) has n = 585 and takes
# 0.3 ms, 1024 blocks of one coordinate 6 ms
MAX_SEARCH_N = 1024

# bounds on entropy_upper, checked before any work: the greedy refinement
# keeps one exact center count, so each step costs a big-integer divide and
# multiply per block whose refinement still fits the budget, and a block
# past it is dropped for good; 64 blocks of size 1 at k = 160 take 2.5 ms
MAX_ENTROPY_N = 64
MAX_ENTROPY_K = 160


class FiniteSection(_Record, Exponents):
    """Truncated diagonal embedding with explicit block weights and sizes:
    tuples of float weights in (0, inf) and of positive ints."""

    _fields = ("beta", "M", "p1", "q1", "p2", "q2")

    def __init__(self, beta: tuple, M: tuple, p1: ExtReal, q1: ExtReal,
                 p2: ExtReal, q2: ExtReal):
        for name, v in (("beta", beta), ("M", M)):
            if not isinstance(v, (list, tuple)):
                raise ValueError(f"{name} must be a list")
        if len(beta) != len(M) or not M:
            raise ValueError("beta and M must be nonempty and of equal length")
        beta = tuple(b if type(b) is float else float(b)
                     if isinstance(b, Real) and not isinstance(b, bool)
                     else math.nan for b in beta)
        if not all(0 < b < math.inf for b in beta):
            raise ValueError("beta: block weights must be positive and finite")
        if any(type(m) is not int or m < 1 for m in M):
            raise ValueError("M: block sizes must be positive integers")
        self.__dict__.update(beta=beta, M=tuple(M))
        self._set_exponents(p1, q1, p2, q2)

    @_cached
    def gains(self) -> tuple:
        """Block norms beta_j^-1 M_j^(1/p*): beta_j^-1 times the norm of the
        ell_p1^M -> ell_p2^M identity, 1 for p1 <= p2 and M^(1/p2 - 1/p1)
        otherwise."""
        excess = float(self.inner.star)
        return tuple(float(m) ** excess / b for b, m in zip(self.beta, self.M))

    @_cached
    def closed_norm(self) -> float:
        """The exact operator norm that embedding_norm_closed returns."""
        return _lp_norm(_from_recip(self.outer.star))(self.gains)

    @_cached
    def cover_scales(self) -> tuple:
        """(M_j^(1/p2), 1/beta_j) per block: a cube of half-width c in block
        j has target ell_p2 radius M_j^(1/p2) c, and the source ball's image
        spans c = 1/beta_j there.  The first entry is 1.0 for p2 = inf."""
        inv_p2 = float(self.inner.rb)
        return tuple((float(m) ** inv_p2, 1.0 / b)
                     for b, m in zip(self.beta, self.M))

    @_cached
    def cover_radius(self):
        """The ell_q2 norm, which turns a list of block cover errors into
        the radius of the cover."""
        return _lp_norm(self.q2)

    @_cached
    def log2_ball_volumes(self) -> tuple:
        """(log2 volume of the source ball's image, log2 volume of the target
        ball) in dimension n."""
        return (_log_ball_volume(self.M, self.p1, self.q1, self.beta),
                _log_ball_volume(self.M, self.p2, self.q2))

    @property
    def levels(self) -> int:
        return len(self.M) - 1

    @_cached
    def n(self) -> int:
        return sum(self.M)


class SectionRangeError(ValueError):
    """A weight or block size of a finite section leaves the float range."""

    def __init__(self, name: str, level: int, log2, outcome: str):
        super().__init__(f"{name} at level {level} is 2^({log2}), which "
                         f"{outcome} as a float; use fewer levels")


def _pow2(log2, name: str, level: int) -> float:
    try:
        return 2.0 ** float(log2)
    except OverflowError:
        raise SectionRangeError(name, level, log2, "overflows") from None


def finite_section(problem: EmbeddingProblem, levels: int) -> FiniteSection:
    """Section of an embedding problem with blocks j = 0..levels.

    beta_j = sigma_j / tau_j * 2^(-j dim (1/p1 - 1/p2)) absorbs both weights
    and the block-size mismatch of the integrability change; block sizes are
    M_j = 2^(j dim).  Raises SectionRangeError when a
    weight or block size at some level leaves the float range.
    """
    return next(_sections(problem, (levels,)))


def _sections(problem: EmbeddingProblem, levels: Sequence[int]):
    """finite_section(problem, L) for each L of the ascending levels, lazily:
    each section is built from the blocks of the one before and those up to
    its own L, so every block is computed once."""
    if levels[0] < 0:
        raise ValueError("levels must be >= 0")
    d = problem.dim
    inner = problem.inner
    gap = d * (inner.ra - inner.rb)
    beta, M = [], []
    for L in levels:
        for j in range(len(beta), L + 1):
            lg = log2_value(problem.sigma, j) - log2_value(problem.tau, j) - j * gap
            b = _pow2(lg, "block weight beta_j", j)
            if b == 0.0:
                raise SectionRangeError("block weight beta_j", j, lg,
                                        "underflows to 0")
            beta.append(b)
            M.append(round(_pow2(j * d, "block size 2^(j dim)", j)))
        yield FiniteSection(tuple(beta), tuple(M), problem.p1, problem.q1,
                            problem.p2, problem.q2)


# ---------------------------------------------------------------------------
# operator norm

def embedding_norm_closed(section: FiniteSection) -> float:
    """Exact operator norm of the section: the diagonal of block gains
    measured from ell_q1 to ell_q2 (sup for q1 <= q2, else the ell_r norm
    with 1/r = 1/q2 - 1/q1).  Computed once per section, as
    section.closed_norm."""
    return section.closed_norm


def _lp_norm(p: ExtReal):
    """The ell_p norm of a sequence of non-negative floats, with the exponent
    converted once rather than on every call."""
    if type(p) is not Fraction and p == INF:
        return max
    fp = float(p)
    inv = 1.0 / fp

    def norm(v: Sequence[float]) -> float:
        try:
            total = sum([x ** fp for x in v])
            if 0.0 < total < math.inf:
                return total ** inv
        except OverflowError:
            pass
        # zero, or the powers left the float range: rescale by the largest
        # entry, which costs a second pass but only in these cases
        top = max(v)
        if top == 0.0:
            return 0.0
        return top * sum([(x / top) ** fp for x in v]) ** inv

    return norm


def _search_winner(section: FiniteSection) -> tuple:
    """The (label, ratio) of the first explicit vector of
    embedding_norm_search with the largest ratio: "block j" for the
    extremal shape on block j alone, "hoelder" for the Hoelder-coupled
    vector over all blocks.  A section size n above MAX_SEARCH_N raises
    ValueError."""
    if section.n > MAX_SEARCH_N:
        raise ValueError(f"norm search: section size n = {section.n} exceeds "
                         f"the limit of {MAX_SEARCH_N}")
    beta = section.beta
    inner1, inner2 = _lp_norm(section.p1), _lp_norm(section.p2)
    outer1, outer2 = _lp_norm(section.q1), _lp_norm(section.q2)

    def ratio(src: list, tgt: list) -> float:
        s = outer1(src)
        return outer2(tgt) / s if s != 0.0 else 0.0

    # extremal block vector: flat when the inner index shrinks (Hoelder
    # equality), spike when it grows
    flat = section.inner.rb > section.inner.ra
    shapes = [[1.0] * m if flat else [1.0] + [0.0] * (m - 1)
              for m in section.M]

    # a vector on block j alone has one nonzero block norm; the one-element
    # lists give the outer norms the same floats as the zero-padded vector,
    # since a 0.0 adds nothing to a sum and never wins a max
    found = [(f"block {j}", ratio([beta[j] * inner1(x)], [inner2(x)]))
             for j, x in enumerate(shapes)]

    # coupled weights matter when the outer index shrinks; with unit-p1
    # block shapes the optimal source amplitudes follow a Hoelder pattern
    gap = section.outer.rb - section.outer.ra
    if gap > 0:
        r = 1.0 / float(gap)
        w_exp = 0.0 if section.q1 == INF else r / float(section.q1)
        gains = section.gains
        # the ratio is scale-invariant, so the weights g^w_exp are taken
        # relative to the largest gain, which keeps the powers in range
        top = max(gains)
        blocks = []
        for j, shape in enumerate(shapes):
            w = (gains[j] / top) ** w_exp / beta[j]
            unit = max(inner1(shape), 1e-300)
            blocks.append([w * (v / unit) for v in shape])
        found.append(("hoelder",
                      ratio([b * inner1(x) for b, x in zip(beta, blocks)],
                            [inner2(x) for x in blocks])))
    return max(found, key=lambda c: c[1])


def embedding_norm_search(section: FiniteSection, *, seed=None,
                          restarts=None, iters=None) -> float:
    """Largest ratio ||x||_target / ||x||_source over the structural
    candidates of _search_winner: for each block the extremal shape on
    that block alone (flat when p1 > p2, where Hoelder's inequality is an
    equality, a spike otherwise), and for q1 > q2 the vector whose block
    amplitudes attain the outer Hoelder inequality.  Between them they
    attain embedding_norm_closed, and each ratio is computed from an
    explicit vector, so the value is attained and an independent check of
    the closed form from below.

    Each single-block candidate is evaluated on its own block, so the
    search costs O(n) float operations.  A section size n above
    MAX_SEARCH_N raises ValueError.

    seed, restarts and iters are accepted and ignored.  They drove a
    random coordinate ascent that never raised the candidates' value, and
    gsbench's worker still passes them.
    """
    return _search_winner(section)[1]


# ---------------------------------------------------------------------------
# nuclear norm

def nuclear_norm_tong(section: FiniteSection) -> float:
    """Exact nuclear norm of the section for Banach parameters:
    || (beta_j^-1 M_j^(1/t(p1,p2)))_j ||_{t(q1,q2)}."""
    _require_banach(section)
    tp = float(section.inner.tong)
    terms = [float(m) ** tp / b for b, m in zip(section.beta, section.M)]
    return _lp_norm(_from_recip(section.outer.tong))(terms)


def nuclear_norm_oracle(section: FiniteSection) -> dict:
    """Independent nuclear-norm values for structurally special sections.

    Always contains the coordinate-representation upper bound
    sum_j M_j / beta_j; adds exact values when the section is a cube source
    (p1 = q1 = inf), a Hilbert pair (all indices 2: the trace norm), or a
    scaled identity (p1 = p2, q1 = q2, constant weight).  The trace norm of
    the positive diagonal is the sum of its entries, so hilbert_trace
    always equals coordinate_upper and is no independent check of the
    Tong formula.
    """
    out = {"coordinate_upper": sum(m / b for b, m in zip(section.beta, section.M))}
    if section.p1 == INF and section.q1 == INF:
        # from a sup-normed cube the nuclear norm is the sum of the column
        # norms, which the coordinate representation attains
        out["cube_source_exact"] = out["coordinate_upper"]
    if all(getattr(section, nm) == 2 for nm in ("p1", "q1", "p2", "q2")):
        out["hilbert_trace"] = out["coordinate_upper"]
    if section.p1 == section.p2 and section.q1 == section.q2 and \
            len(set(section.beta)) == 1:
        out["scaled_identity"] = section.n / section.beta[0]
    return out


# ---------------------------------------------------------------------------
# entropy bounds

class EntropyBound(NamedTuple):
    value: float
    k: int
    method: str
    detail: dict


# block j is covered by a symmetric grid of 2^m + 1 points per coordinate on
# [-c, c], which leaves per-coordinate rounding error c / 2^m; m = 0 is the
# single center with error c

def _grid_centers(m: int, size: int) -> int:
    return ((1 << m) + 1) ** size if m else 1


def _cover_error(scale: tuple, m: int) -> float:
    # scale = (M_j^(1/p2), 1/beta_j), an entry of section.cover_scales
    f, c = scale
    return f * (c / (1 << m))


def entropy_upper(section: FiniteSection, k: int) -> EntropyBound:
    """Sound upper bound on the k-th entropy number via lattice coverings.

    Budget: 2^(k-1) centers.  Each block gets a symmetric grid with 2^m + 1
    points per coordinate.  Each greedy step refines the largest error whose
    refinement fits the budget: refining halves it exactly, so every ell_q2
    radius falls most.  Equal errors go to the fewer centers, then the lower
    index; only blocks of one size and error tie on both, so the result does
    not depend on block order.  The exact center count and each block's grid
    counts before and after its next refinement are kept, so a step rebuilds
    the counts of the refined block only, and a block whose refinement
    passes the budget is never scanned again, since the count only grows.
    The value is min(lattice radius, operator norm), and the norm itself
    while no refinement fits, so e_1 equals the norm.  It is sound but not
    monotone in k: with sigma 2^(-2/3*j), tau 2^(-7*j), (p1, q1, p2, q2) =
    (2/3, 3, 4, 1), dim 1 and levels 2 it is 0.0441 at k = 9 and 0.0500 at
    k = 10.  One-dimensional sections use the exact interval covering.
    k < 1, a section size n above MAX_ENTROPY_N or an index k above
    MAX_ENTROPY_K raises ValueError.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    for name, value, cap in (("section size n", section.n, MAX_ENTROPY_N),
                             ("index k", k, MAX_ENTROPY_K)):
        if value > cap:
            raise ValueError(f"entropy bound: {name} = {value} exceeds the "
                             f"limit of {cap}")
    nrm = embedding_norm_closed(section)
    if section.n == 1:
        return EntropyBound(nrm * 2.0 ** (-(k - 1)), k, "exact-1d",
                            {"norm": nrm})

    budget = 1 << (k - 1)
    scales, sizes = section.cover_scales, section.M
    ms = [0] * len(scales)
    errs = [_cover_error(s, 0) for s in scales]
    count = 1  # exact number of centers, the product of the block grids
    # each block's grid count now and after its next refinement
    cur, nxt = [1] * len(sizes), [_grid_centers(1, size) for size in sizes]
    live = [j for j in range(len(sizes)) if nxt[j] <= budget]
    while True:
        j, fits = None, []
        for i in live:
            grown = count // cur[i] * nxt[i]
            if grown <= budget:
                fits.append(i)
                # largest error, then fewer centers, then lower index
                e = errs[i]
                if j is None or e > top or (e == top and grown < fewest):
                    j, top, fewest = i, e, grown
        live = fits
        if j is None:
            break
        count = fewest
        m = ms[j] = ms[j] + 1
        errs[j] = _cover_error(scales[j], m)
        cur[j], nxt[j] = nxt[j], _grid_centers(m + 1, sizes[j])
    # the single center 0 covers at radius exactly the norm, which the ell_q2
    # radius of the block errors can miss by an ulp
    value = nrm if count == 1 else min(section.cover_radius(errs), nrm)
    return EntropyBound(value, k, "lattice-cover",
                        {"refinements": tuple(ms), "norm": nrm,
                         "centers": count})


def _log_ball_volume(M: Sequence[int], p: ExtReal, q: ExtReal,
                     beta: Optional[Sequence[float]] = None) -> float:
    """log2 of the volume of the mixed-norm unit ball
    {x : || (beta_j ||x_j||_p)_j ||_q <= 1} in dimension sum(M)."""
    if beta is None:
        beta = [1.0] * len(M)
    log2e = math.log2(math.e)
    fp = None if p == INF else float(p)

    def log2_gamma(x: float) -> float:
        return math.lgamma(x) * log2e

    def log2_vol_lp(m: int) -> float:
        if fp is None:
            return float(m)
        return m * (1.0 + log2_gamma(1.0 / fp + 1.0)) - log2_gamma(m / fp + 1.0)

    total = 0.0
    for m, b in zip(M, beta):
        total += log2_vol_lp(m) - m * math.log2(b)
    if q == INF:
        return total
    fq = float(q)
    n = sum(M)
    total += sum(math.log2(m) for m in M)
    total -= len(M) * math.log2(fq)
    total += sum(log2_gamma(m / fq) for m in M)
    total -= log2_gamma(1.0 + n / fq)
    return total


def entropy_lower(section: FiniteSection, k: int) -> EntropyBound:
    """Volume lower bound: e_k >= 2^(-(k-1)/n) (vol source-ball-image /
    vol target ball)^(1/n).  Exact Dirichlet-type formulas for mixed-norm
    ball volumes keep the bound honest in every dimension.  The value is
    at most the operator norm, since e_k <= e_1 = ||id||: in floats the
    volume ratio can pass it by an ulp, where entropy_upper is the norm."""
    if k < 1:
        raise ValueError("k must be >= 1")
    n = section.n
    lv_src, lv_tgt = section.log2_ball_volumes
    lg = -(k - 1) / n + (lv_src - lv_tgt) / n
    return EntropyBound(min(2.0 ** lg, section.closed_norm), k, "volume",
                        {"log2_vol_source_image": lv_src,
                         "log2_vol_target_ball": lv_tgt})


def entropy_properties(section: FiniteSection, ks: Sequence[int]) -> dict:
    """Consistency report for the entropy bounds over a ladder of indices:
    lower <= upper at each k (sound), the first upper bound equal to the
    operator norm (first_is_norm), and whether the upper bounds are
    non-increasing (monotone).  A violation of the first two indicates a
    soundness bug; entropy_upper does not guarantee the third."""
    ks = sorted(set(ks))
    nrm = embedding_norm_closed(section)
    uppers, lowers = [], []
    for k in ks:
        uppers.append(entropy_upper(section, k).value)
        lowers.append(entropy_lower(section, k).value)
    report = {
        "ks": tuple(ks),
        "upper": tuple(uppers),
        "lower": tuple(lowers),
        "norm": nrm,
        "sound": all(l <= u * (1 + 1e-9) for l, u in zip(lowers, uppers)),
        "monotone": all(uppers[i + 1] <= uppers[i] * (1 + 1e-12)
                        for i in range(len(uppers) - 1)),
        "first_is_norm": (not ks or ks[0] != 1 or
                          abs(uppers[0] - nrm) <= 1e-12 * max(1.0, nrm)),
    }
    return report


# ---------------------------------------------------------------------------
# rate fitting

class RateFit(NamedTuple):
    ks: tuple
    bounds: tuple
    slope: float
    predicted_slope: Optional[float]
    ratio: Optional[float]
    non_decaying: bool


def rate_fit(problem: EmbeddingProblem, levels: Sequence[int]) -> RateFit:
    """Fit the decay exponent of the entropy upper bounds across sections.

    For each L the section keeps blocks up to L and the bound is taken at
    k_L = 2 * n_L, twice the section dimension, where the covering bound
    transitions into its decaying regime.  The slope of log2(bound) against
    log2(k) estimates the entropy decay power; predicted_slope is
    -k_exponent of entropy_rate, None when the catalog gives no exponent.
    Fewer than two distinct levels raise ValueError, and a section beyond
    MAX_ENTROPY_N raises entropy_upper's ValueError.  The sections come
    from one pass over the blocks (_sections), level by level, so a lower
    level's error comes before a higher level's.
    """
    levels = sorted(set(levels))
    if len(levels) < 2:
        raise ValueError("need at least two levels to fit a slope")
    ks, bounds = [], []
    for sec in _sections(problem, levels):
        k = 2 * sec.n
        ks.append(k)
        bounds.append(entropy_upper(sec, k).value)

    # least-squares slope of log2(bound) on log2(k), mean-centred
    xs = [math.log2(k) for k in ks]
    ys = [math.log2(b) for b in bounds]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    slope = (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
             / sum((x - mx) ** 2 for x in xs))

    k_exponent = entropy_rate(problem).k_exponent
    predicted = None if k_exponent is None else -float(k_exponent)
    ratio = slope / predicted if predicted else None
    non_decaying = bounds[-1] >= bounds[0] * (1 - 1e-12)
    return RateFit(tuple(ks), tuple(bounds), slope, predicted, ratio,
                   non_decaying)
