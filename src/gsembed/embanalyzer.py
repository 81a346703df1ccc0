"""Compactness, nuclearity and entropy asymptotics of weighted embeddings.

The embeddings analysed here act between smoothness spaces modelled on
weighted mixed-norm sequence spaces: a source space with weight sequence
sigma and integrability (p1, q1), a target with weight tau and (p2, q2),
over a domain of dimension dim.  Every decision reduces to an exact
membership test of a single criterion sequence in ell_r or c0, with the
exponent r built from the integrability parameters by reciprocal-space
arithmetic.  Exponents are validated in one place: the Exponents base of
EmbeddingProblem and of the lab's FiniteSection normalises (p1, q1, p2,
q2) with ext, rejects values that are not positive or inf, and holds
recips = (1/p1, 1/q1, 1/p2, 1/q2) and is_banach(); its from_dict is the
one JSON decoder of both models.  A problem also derives, once each,
weight_ratio = sigma^-1 tau, its two criteria (compact_criterion,
nuclear_criterion), which criterion_sequence reads, so compactness and
entropy_rate share one compact criterion, and b_sandwich, the two scale-B
problems that scale F asks every question.  These are cached properties,
not fields: they take no part in equality or hashing, and a problem from
_replace derives its own.  EmbeddingProblem and Target are frozen records
on seqdsl's _Record base, with hand-written constructors, so no command
imports dataclasses.

ext keeps the values of the MAX_EXT_CACHE exponent strings of at most
MAX_CACHED_TEXT characters that it read most recently, and returns the same
object when it reads one again, as parse does for weights: a sweep asks the
same few exponents over and over.  Sharing a value is safe, since a
Fraction and math.inf are immutable, and a string that raises is not kept,
so it raises the same ValueError again.

Conventions: extended parameters live in [something positive, inf]; inf is
math.inf and all arithmetic happens on reciprocals, where inf becomes the
exact Fraction 0.  Index space is dyadic throughout: weight entry j is the
weight at frequency 2^j, and a function-space weight w evaluated at t
corresponds to the entry log2(t).
"""

from __future__ import annotations

import math
import re
from functools import cached_property, lru_cache
from fractions import Fraction
from typing import NamedTuple, Optional, Union

from .seqdsl import (
    MAX_CACHED_TEXT,
    MAX_NUMERAL_DIGITS,
    SequenceExpr,
    _OSC_ANCHORS,
    _Record,
    decompose,
    parse,
    power,
    product,
    render,
)

__all__ = [
    "INF",
    "ExtReal",
    "ext",
    "recip",
    "dual_star",
    "tong",
    "EmbeddingProblem",
    "Target",
    "Verdict",
    "Band",
    "RateFormula",
    "criterion_sequence",
    "ellr_membership",
    "compactness",
    "nuclearity",
    "compact_not_nuclear_band",
    "entropy_rate",
]

INF = math.inf
ExtReal = Union[Fraction, float]

# ext reads a decimal exponent |e| in a string such as "1e-30" up to
# MAX_NUMERAL_DIGITS; Fraction builds 10^e in full, so "1e99999999" would hang
_DECIMAL_EXPONENT = re.compile(r"e[-+]?(\d+(?:_\d+)*)$")
_DIGIT_RUN = re.compile(r"[\d_]+")

# exponent strings whose values ext keeps per process; a sweep draws its
# exponents from a few strings
MAX_EXT_CACHE = 256


def ext(x) -> ExtReal:
    """Normalize an integrability parameter to Fraction or a float infinity.

    A str of at most MAX_CACHED_TEXT characters goes through a cache of the
    MAX_EXT_CACHE strings read most recently, so reading it again returns
    the same object.  A Fraction, not a subclass, comes back as itself."""
    if type(x) is Fraction:
        return x
    if isinstance(x, str):
        if type(x) is str and len(x) <= MAX_CACHED_TEXT:
            return _ext_text_cached(x)
        return _ext_text(x)
    if isinstance(x, float):
        if math.isinf(x):
            return x  # -inf is kept for the positivity check to reject
        return Fraction(x)
    if isinstance(x, (int, Fraction)) and not isinstance(x, bool):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an extended parameter")


def _ext_text(x: str) -> ExtReal:
    """ext of a string."""
    if not x.isascii():
        c = next(c for c in x if not c.isascii())
        raise ValueError(f"non-ASCII character {c!r} in a numeral")
    s = x.strip().lower()
    if s in ("inf", "infinity", "oo"):
        return INF
    m = _DECIMAL_EXPONENT.search(s)
    if m:
        digits = m.group(1).replace("_", "").lstrip("0")
        if len(digits) > len(str(MAX_NUMERAL_DIGITS)) or \
                int(digits or "0") > MAX_NUMERAL_DIGITS:
            raise ValueError(f"decimal exponent above the limit of "
                             f"{MAX_NUMERAL_DIGITS}")
    if len(s) > MAX_NUMERAL_DIGITS and any(
            len(run) - run.count("_") > MAX_NUMERAL_DIGITS
            for run in _DIGIT_RUN.findall(s)):
        raise ValueError(f"numeral with more than {MAX_NUMERAL_DIGITS} "
                         f"digits in a row")
    return Fraction(s)


_ext_text_cached = lru_cache(maxsize=MAX_EXT_CACHE)(_ext_text)


def recip(x: ExtReal) -> ExtReal:
    """1/x on (0, inf], with 1/inf = 0 and 1/0 = inf, kept exact."""
    if isinstance(x, Fraction):  # the common case: no float comparison, no copy
        return Fraction(x.denominator, x.numerator) if x else INF
    if x == INF:
        return Fraction(0)
    if x == 0:
        return INF
    return 1 / Fraction(x)


def _exponent(name: str, x) -> ExtReal:
    """x normalised by ext; it must be positive or inf.  Every failure is a
    ValueError that starts with the name."""
    try:
        v = ext(x)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"{name}: {exc}") from None
    # ext returns an exact Fraction or a float infinity
    if v.numerator <= 0 if type(v) is Fraction else v != INF:
        raise ValueError(f"{name} must be positive or inf, got {v}")
    return v


def _banach(recips) -> bool:
    """Every exponent in [1, inf], read on reciprocals."""
    return all(r <= 1 for r in recips)


def _from_recip(r: Fraction) -> ExtReal:
    return INF if r == 0 else 1 / r


def _star_recip(a: Fraction, b: Fraction) -> Fraction:
    """1/r* = (b - a)+ from a = 1/r1 and b = 1/r2."""
    return b - a if b > a else Fraction(0)


def _tong_recip(a: Fraction, b: Fraction) -> Fraction:
    """1/t(r1, r2) = 1 - (a - b)+ from a = 1/r1 and b = 1/r2."""
    return 1 - (a - b) if a > b else Fraction(1)


def _tong_params(r1, r2) -> tuple:
    """(1/r1, 1/r2) for the parameters of Tong's formula, which need [1, inf]."""
    rs = (recip(_exponent("r1", r1)), recip(_exponent("r2", r2)))
    if not _banach(rs):
        raise ValueError(
            f"tong exponent needs parameters in [1, inf], got ({r1}, {r2})")
    return rs


def dual_star(r1, r2) -> ExtReal:
    """Exponent r* with 1/r* = (1/r2 - 1/r1)+; equals inf when r1 <= r2.
    Both parameters must be positive or inf."""
    return _from_recip(_star_recip(recip(_exponent("r1", r1)),
                                   recip(_exponent("r2", r2))))


def tong(r1, r2) -> ExtReal:
    """Exponent t with 1/t = 1 - (1/r1 - 1/r2)+, defined for r1, r2 in [1, inf].

    On reciprocals 1/t >= 1/r* always holds, i.e. t <= dual_star(r1, r2),
    with equality exactly when {r1, r2} = {1, inf}.
    """
    return _from_recip(_tong_recip(*_tong_params(r1, r2)))


# ---------------------------------------------------------------------------
# problems and verdicts

class Exponents:
    """Integrability exponents (p1, q1, p2, q2) of an embedding.

    Base of the frozen records EmbeddingProblem and FiniteSection, which
    list the four among their _fields and pass them to _set_exponents from
    __init__.  Their __init__ is the only validator, and from_dict the only
    JSON decoder, of both models.
    """

    @classmethod
    def from_dict(cls, doc):
        """The model from a decoded JSON object: every field of _fields by
        name, its default when the key is absent (KeyError if it has none),
        other keys ignored.  Values are not coerced; __init__ judges them."""
        if not isinstance(doc, dict):
            raise ValueError(f"{cls.__name__} must be a JSON object, "
                             f"got {type(doc).__name__}")
        # the fields with a default are the last ones of __init__
        required = len(cls._fields) - len(cls.__init__.__defaults__ or ())
        return cls(**{f: doc[f] for i, f in enumerate(cls._fields)
                      if i < required or f in doc})

    def _set_exponents(self, *values) -> None:
        for name, v in zip(("p1", "q1", "p2", "q2"), values):
            self.__dict__[name] = _exponent(name, v)

    @cached_property
    def recips(self) -> tuple:
        """(1/p1, 1/q1, 1/p2, 1/q2) as exact Fractions, with 1/inf = 0."""
        return tuple(recip(v) for v in (self.p1, self.q1, self.p2, self.q2))

    def is_banach(self) -> bool:
        """All four exponents in [1, inf], where Tong's formula applies."""
        return _banach(self.recips)


class EmbeddingProblem(_Record, Exponents):
    """Embedding of a (sigma, p1, q1) space into a (tau, p2, q2) space.

    sigma and tau are SequenceExprs (a string is parsed), p1..q2 ExtReals
    and dim a positive int.  scale "B" is the plain mixed-norm model; scale
    "F" swaps the order of integration, where criteria transfer only
    through sandwich embeddings.
    """

    _fields = ("sigma", "tau", "p1", "q1", "p2", "q2", "dim", "scale")

    def __init__(self, sigma, tau, p1, q1, p2, q2, dim: int, scale: str = "B"):
        for name, w in (("sigma", sigma), ("tau", tau)):
            if isinstance(w, str):
                w = parse(w)
            elif not isinstance(w, SequenceExpr):
                raise ValueError(f"{name} must be a weight expression string")
            self.__dict__[name] = w
        self._set_exponents(p1, q1, p2, q2)
        if type(dim) is not int or dim < 1:
            raise ValueError(f"dim must be a positive integer, got {dim!r}")
        if scale not in ("B", "F"):
            raise ValueError("scale must be 'B' or 'F'")
        self.__dict__.update(dim=dim, scale=scale)

    @cached_property
    def weight_ratio(self) -> SequenceExpr:
        """sigma^-1 tau, the weight part of every criterion sequence."""
        return product(power(self.sigma, Fraction(-1)), self.tau)

    @cached_property
    def compact_criterion(self) -> tuple:
        """(criterion sequence, Target) deciding compactness."""
        return _criterion(self, "compact")

    @cached_property
    def nuclear_criterion(self) -> tuple:
        """(criterion sequence, Target) deciding nuclearity; ValueError
        unless the exponents are Banach."""
        return _criterion(self, "nuclear")

    @cached_property
    def b_sandwich(self) -> tuple:
        """The (sufficient, necessary) scale-B problems of a scale-F problem:
        B_{p,min(p,q)} embeds into F_{p,q} and F_{p,q} into B_{p,max(p,q)},
        so id_F factors through (q1 -> max(p1, q1), q2 -> min(p2, q2)), and
        (q1 -> min, q2 -> max) factors through id_F.  Compact and nuclear
        maps form ideals, and e_k(R T S) <= |R| e_k(T) |S|."""
        p1, q1, p2, q2 = self.p1, self.q1, self.p2, self.q2
        return (self._replace(scale="B", q1=max(p1, q1), q2=min(p2, q2)),
                self._replace(scale="B", q1=min(p1, q1), q2=max(p2, q2)))


class Target(_Record):
    """Membership space for a criterion sequence: ell_r or c0."""

    _fields = ("kind", "r")

    def __init__(self, kind: str, r: Optional[ExtReal] = None):
        if kind not in ("ell", "c0"):
            raise ValueError("target kind must be 'ell' or 'c0'")
        if kind == "ell" and r is None:
            raise ValueError("ell target needs an exponent")
        self.__dict__.update(kind=kind, r=r)

    def __str__(self) -> str:
        if self.kind == "c0":
            return "c0"
        return "ell_inf" if self.r == INF else f"ell_{self.r}"


class Verdict(NamedTuple):
    status: str  # holds | fails | inconclusive
    criterion: Optional[SequenceExpr]
    target: Optional[Target]
    tag: str
    evidence: dict


class Band(NamedTuple):
    """Half-open interval of gap values (lower, upper] where an embedding is
    compact but not nuclear."""

    lower: Fraction
    upper: Fraction

    @property
    def empty(self) -> bool:
        return not (self.upper > self.lower)


def criterion_sequence(problem: EmbeddingProblem, kind: str):
    """Criterion sequence and membership target deciding the given property.

    kind "compact": weight_ratio 2^(j d (1/p1 - 1/p2)) 2^(j d / p*) in
    ell_{q*}, that is weight_ratio with its rate shifted by
    d (1/p1 - 1/p2 + 1/p*); kind "nuclear": p* and q* replaced by the tong
    exponents of (p1,p2) and (q1,q2), which needs Banach exponents.  Both
    are read off problem.recips, and a zero reciprocal target exponent
    means c0.  The problem derives each criterion once (compact_criterion,
    nuclear_criterion); this reads it.
    """
    if kind == "compact":
        return problem.compact_criterion
    if kind == "nuclear":
        return problem.nuclear_criterion
    raise ValueError("kind must be 'compact' or 'nuclear'")


def _criterion(problem: EmbeddingProblem, kind: str) -> tuple:
    """The criterion of kind: weight_ratio with its rate shifted, which is
    the normal form of its product with the geometric factor."""
    rp1, rq1, rp2, rq2 = problem.recips
    if kind == "compact":
        star, fine = _star_recip(rp1, rp2), _star_recip(rq1, rq2)
    else:
        _require_banach(problem)
        star, fine = _tong_recip(rp1, rp2), _tong_recip(rq1, rq2)
    ratio = problem.weight_ratio
    expr = ratio._replace(rate=ratio.rate + problem.dim * (rp1 - rp2 + star))
    target = Target("c0") if fine == 0 else Target("ell", 1 / fine)
    return expr, target


# ---------------------------------------------------------------------------
# exact membership

def ellr_membership(expr: SequenceExpr, target: Target) -> Verdict:
    """Exact membership of a sequence in ell_r / c0 / ell_inf.

    Finite prefixes of positive entries never change membership, so table
    atoms are stripped first.  The exponents of the monomial are then read
    in order of tail dominance,

        (rate, log_exp + s, explog coefficients by descending kappa, iterlog + s)

    with s = 1/r for a finite ell_r target and s = 0 for c0 and ell_inf.
    The sign of the first non-zero entry decides: negative means the
    sequence lies in the target, positive that it does not.  If every entry
    is zero only ell_inf holds: the sequence has a positive limit, or for
    finite r its r-th powers sum like the harmonic series.

    A monomial with osc != 0 is decided along the two anchor subsequences
    j_l = 2^l of pw2(s0=0,s1=1): its anchor rates are rate + osc*2/3 at
    even l and rate + osc/3 at odd l, and rate is the larger of the two.
    When it is zero the other is negative, so the zero anchors are
    exponentially sparse and the sequence decays geometrically away from
    them: a block contributes a bounded multiple of its anchor term.  Along
    j = 2^l the log power is geometric in l and the iterated log is the
    power l^iterlog, so the key shifts one level: (log_exp, explog
    coefficients..., iterlog + s).

    evidence["decided_by"] names the entry that fired, one of

        rate, log, explog, iterlog, limit          smooth key
        anchor-rate                                larger anchor rate
        anchor-log, anchor-explog, anchor-iterlog,
        anchor-limit                               sparse zero anchors

    and evidence["value"] holds that entry as a Fraction.  A monomial with
    osc != 0 also reports anchor_rate_even and anchor_rate_odd.
    """
    d = decompose(expr)
    ev = {"target": str(target)}
    lead, sparse = ("rate", d.rate), False
    if d.osc:
        even, odd = (d.rate + d.osc * a for a in _OSC_ANCHORS)
        ev["anchor_rate_even"], ev["anchor_rate_odd"] = str(even), str(odd)
        lead = ("anchor-rate", max(even, odd))
        sparse = lead[1] == 0
    pre = "anchor-" if sparse else ""

    def key():  # lazy: most sequences are decided by their rate
        yield lead
        s = recip(target.r) if target.kind == "ell" else Fraction(0)
        yield pre + "log", d.log_exp if sparse else d.log_exp + s
        for _, c in reversed(d.explog):
            yield pre + "explog", c
        yield pre + "iterlog", d.iterlog + s

    for rule, value in key():
        if value:
            status = "holds" if value < 0 else "fails"
            break
    else:
        rule, value = pre + "limit", Fraction(0)
        status = "holds" if target.kind == "ell" and target.r == INF else "fails"
    ev["decided_by"], ev["value"] = rule, value
    return Verdict(status, expr, target, "sequence-membership", ev)


# ---------------------------------------------------------------------------
# compactness / nuclearity

def compactness(problem: EmbeddingProblem) -> Verdict:
    """Compactness of the embedding; exact on scale B, transferred through
    the B-sandwich on scale F (its two sides may fall apart)."""
    if problem.scale == "F":
        return _sandwich_verdict(problem, compactness)
    return _criterion_verdict(problem, "compact", "compactness")


def nuclearity(problem: EmbeddingProblem) -> Verdict:
    """Nuclearity of the embedding.  Only Banach parameters admit the
    criterion; scale F transfers it through the B-sandwich."""
    if problem.scale == "F":
        _require_banach(problem)  # before either side, one of which may be Banach
        return _sandwich_verdict(problem, nuclearity)
    return _criterion_verdict(problem, "nuclear", "nuclearity")


def _criterion_verdict(problem: EmbeddingProblem, kind: str, name: str) -> Verdict:
    """Scale-B verdict: membership of the criterion sequence of kind."""
    expr, target = criterion_sequence(problem, kind)
    v = ellr_membership(expr, target)
    ev = dict(v.evidence, criterion=render(expr))
    return Verdict(v.status, expr, target, f"sequence-{name}-criterion", ev)


def _require_banach(model: Exponents) -> None:
    if not model.is_banach():
        raise ValueError(
            "nuclearity criterion requires Banach exponents: all of p1, q1, p2, q2 "
            "must lie in [1, inf]; quasi-Banach values below 1 are not covered")


def _sandwich_verdict(problem: EmbeddingProblem, decide) -> Verdict:
    """The verdict of decide on scale F: holds if the sufficient side
    holds, fails if the necessary side fails, else inconclusive."""
    suff, nec = problem.b_sandwich
    v_suff, v_nec = decide(suff), decide(nec)
    ev = {
        "route": "via-B-sandwich",
        "sufficient_fine_indices": (str(suff.q1), str(suff.q2)),
        "necessary_fine_indices": (str(nec.q1), str(nec.q2)),
        "sufficient_status": v_suff.status,
        "necessary_status": v_nec.status,
    }
    if v_suff.status == "holds":
        return Verdict("holds", v_suff.criterion, v_suff.target, "via-B-sandwich", ev)
    if v_nec.status == "fails":
        return Verdict("fails", v_nec.criterion, v_nec.target, "via-B-sandwich", ev)
    ev["reason"] = "sandwich bounds disagree; scale-F boundary case"
    return Verdict("inconclusive", v_suff.criterion, v_suff.target, "via-B-sandwich", ev)


def compact_not_nuclear_band(p1, p2, dim: int) -> Band:
    """Gap values delta where the classical embedding is compact but not
    nuclear: the half-open band (dim/p*, dim/tong(p1,p2)].  Empty exactly
    when {p1, p2} = {1, inf}."""
    r1, r2 = _tong_params(p1, p2)
    return Band(dim * _star_recip(r1, r2), dim * _tong_recip(r1, r2))


# ---------------------------------------------------------------------------
# entropy asymptotics

class RateFormula(NamedTuple):
    """Asymptotic law e_k ~ k^(-k_exponent) (1+log k)^(-log_exponent) x residual.

    kind names the regime; exponents are exact rationals when known and
    None when the law is carried entirely by ratio/residual.
    ratio, when set, is the weight-ratio in dyadic index space: its
    value at index log2(k)/dim is the predicted e_k up to constants.
    """

    kind: str
    k_exponent: Optional[Fraction]
    log_exponent: Optional[Fraction]
    residual: Optional[str]
    ratio: Optional[SequenceExpr]
    tag: str
    notes: tuple = ()


def entropy_rate(problem: EmbeddingProblem) -> RateFormula:
    """Entropy-number asymptotics of a compact embedding.

    The regime is read off the upper rate of the compact criterion, the
    weight ratio with a shifted rate.  Non-limiting regime (upper rate
    negative): e_k behaves like the weight ratio at frequency k^(1/dim).
    Limiting regimes are matched against the catalog of sharp results:
    pure-log for equal p, the slowly-varying integral formula for q1 > q2,
    and the three-branch coupled-log law for p1 < p2 with q2 <= q1.  Scale
    F reads the B-sandwich: not-compact when its necessary side is not
    compact, the law of both sides when they agree, else inconclusive.
    """
    if problem.scale == "F":
        suff, nec = problem.b_sandwich
        law = entropy_rate(nec)
        if law.kind != "not-compact" and law != entropy_rate(suff):
            law = RateFormula("inconclusive", None, None, None, None,
                              "entropy-rate", ("sandwich entropy laws differ",))
        return law._replace(notes=law.notes + ("via-B-sandwich",))
    crit, target = criterion_sequence(problem, "compact")
    if ellr_membership(crit, target).status == "fails":
        return RateFormula("not-compact", None, None, None, None,
                           "entropy-rate", ("embedding is not compact",))

    crit = decompose(crit)
    ratio = decompose(problem.weight_ratio)
    if crit.rate_interval[1] < 0:
        notes = ("value of the weight ratio at frequency k^(1/dim)",)
        if not ratio.osc:
            u = -ratio.rate / problem.dim
            v = -ratio.log_exp
            residual = None
            if ratio.sv_nodes:
                residual = " * ".join(render(n) for n in ratio.sv_nodes) + \
                    " at j = log2(k)/dim"
            return RateFormula("non-limiting", u, v, residual, ratio,
                               "entropy-nonlimiting-ratio", notes)
        return RateFormula("non-limiting", None, None,
                           render(ratio) + " at j = log2(k)/dim", ratio,
                           "entropy-nonlimiting-ratio", notes)

    rp1, rq1, rp2, rq2 = problem.recips
    qstar_recip = _star_recip(rq1, rq2)
    if not crit.osc and crit.rate == 0:
        pure_log = not crit.explog and crit.iterlog == 0
        beta = -crit.log_exp
        if pure_log and rp1 == rp2:
            return RateFormula("limiting-log", Fraction(0), beta - qstar_recip,
                               None, None, "entropy-limiting-log",
                               ("equal integrability, logarithmic criterion",))
        if pure_log and rp1 > rp2 and rq2 >= rq1:
            alpha = rp1 - rp2
            pivot = qstar_recip + 2 * alpha
            if beta > pivot:
                return RateFormula("limiting-coupled-log", alpha,
                                   beta - 2 * alpha - qstar_recip, None, None,
                                   "entropy-limiting-coupled-log", ())
            if beta == pivot:
                return RateFormula("limiting-coupled-log", alpha,
                                   -(alpha + qstar_recip), None, None,
                                   "entropy-limiting-coupled-log",
                                   ("log factor grows at the pivot",))
            return RateFormula("limiting-coupled-log",
                               (beta + qstar_recip) / 2, Fraction(0), None, None,
                               "entropy-limiting-coupled-log", ())
        if not pure_log and rp1 == rp2 and rq2 > rq1:
            psi = power(crit, Fraction(-1))
            residual = (
                f"(integral_(k^(1/dim))^inf PSI(t)^(-qs) dt/t)^(1/qs) with "
                f"PSI = {render(psi)} and 1/qs = {qstar_recip}")
            return RateFormula("limiting-sv-integral", Fraction(0), None,
                               residual, None, "entropy-limiting-sv-integral",
                               ("assumes the reciprocal criterion is increasing",))
        if not pure_log and rp1 == rp2:
            return RateFormula("inconclusive", None, None, None, None,
                               "entropy-rate",
                               ("slowly varying limiting case with q1 <= q2 "
                                "is outside the implemented catalog",))
    return RateFormula("inconclusive", None, None, None, None, "entropy-rate",
                       ("limiting case outside the implemented catalog",))
