"""Admissibility, Boyd indices, equivalence and standardization of sequences.

Positive sequences with bounded consecutive ratios d0 <= w_{j+1}/w_j <= d1
are the admissible ones; their upper/lower Boyd indices

    upper = lim_j log2(sup_k w_{j+k}/w_k) / j
    lower = lim_j log2(inf_k w_{j+k}/w_k) / j

measure extreme growth along shifted windows.  Both are tail quantities:
a finite table prefix moves sup_k w_{j+k}/w_k by a bounded factor only, so
every index is read off the table-free normal form decompose(e), exactly,
and equivalent decides on the quotient of two normal forms, with no scan.
Ratio bounds are reported as log2(d0) and log2(d1), never as powers.
boyd_indices_numeric, a window scan of BOYD_DEPTH terms, is kept as an
independent check of the exact indices.

Its users are seq boyd/admissible/standardize, acceptance criteria 04 and
05 (boyd_indices_numeric, equivalent), and gsbench's span table, which
names boyd_indices, is_almost_strongly_increasing and certify_admissible.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from typing import NamedTuple, Optional, Union

from .seqdsl import (
    MAX_NUMERAL_DIGITS,
    MAX_TABLE_ENTRIES,
    SequenceExpr,
    _add,
    const,
    decompose,
    evaluate,
    log2_value,
    power,
    product,
    table,
)

__all__ = [
    "AdmissibilityCertificate",
    "BoydIndices",
    "EquivalenceResult",
    "AsiResult",
    "Standardized",
    "StandardizeError",
    "certify_admissible",
    "boyd_indices",
    "boyd_indices_numeric",
    "equivalent",
    "standardize",
    "is_almost_strongly_increasing",
]


BOYD_DEPTH = 256  # the numeric Boyd bracket scans w_0..w_BOYD_DEPTH


class StandardizeError(ValueError):
    """standardize cannot resample: the growth scale or sigma is outside
    its scope, or kappa0 is too small or too large."""


class AdmissibilityCertificate(NamedTuple):
    """log2_d0 <= log2(w_{j+1}/w_j) <= log2_d1 for every j, each a Fraction
    whenever every part of it is exact.  The normal form proves the bound
    for the table-free tail; window counts the ratios that touch a table
    prefix and were scanned (0 without tables).  strongly_increasing is
    log2_d0 > 0, read exactly."""

    log2_d0: Union[Fraction, float]
    log2_d1: Union[Fraction, float]
    window: int
    strongly_increasing: bool


def _ratio_log_range(d: SequenceExpr) -> tuple:
    """Range of log2(w_{j+1}/w_j) proven factorwise.

    Each atom's consecutive ratio moves monotonically from its j=0 value to
    its limit, so the per-factor range is the hull of those two; ranges add
    in log space across a product.
    """
    lo: Union[Fraction, float] = Fraction(0)
    hi: Union[Fraction, float] = Fraction(0)

    def add(a, b):
        nonlocal lo, hi
        a, b = sorted((a, b))
        lo = _add(lo, a)
        hi = _add(hi, b)

    add(d.rate, d.rate)
    if d.log_exp != 0:
        add(Fraction(0), d.log_exp)  # ratio factor ((2+j)/(1+j))^b runs from 2^b to 1
    if d.iterlog != 0:
        add(Fraction(0), d.iterlog)
    for kappa, coeff in d.explog:
        add(0.0, float(coeff) * math.log2(math.e))
    if d.osc:
        add(Fraction(0), d.osc)  # log2 steps of pw2(s0=0,s1=1) lie in [0, 1]
    return lo, hi


def certify_admissible(e: SequenceExpr) -> AdmissibilityCertificate:
    """Certified (log2_d0, log2_d1) with d0 <= all consecutive ratios <= d1.

    The ratios that touch a table prefix are scanned and folded in,
    compared by _key, so the structural bound wins a float tie, which an
    exact comparison would lose to the scan's rounding.
    """
    lo, hi = _ratio_log_range(decompose(e))
    J = _max_prefix_len(e) + 2 if e.tables else 0
    if J:
        logs = [log2_value(e, j) for j in range(J + 1)]
        ratios = [_add(logs[j + 1], -logs[j]) for j in range(J)]
        lo = min([lo, *ratios], key=_key)
        hi = max([hi, *ratios], key=_key)
    return AdmissibilityCertificate(lo, hi, J, lo > 0)


def _key(x: Union[Fraction, float]) -> Union[Fraction, float]:
    """float(x) where it fits a float, else x, which compares exactly."""
    return float(x) if abs(x) <= sys.float_info.max else x


def _max_prefix_len(e: SequenceExpr) -> int:
    return max((max(len(prefix), _max_prefix_len(cont)) for prefix, cont, _ in e.tables),
               default=0)


class BoydIndices(NamedTuple):
    """Exact indices (lower/upper rationals, the bracket fields None) from
    boyd_indices, or a numeric bracket of depth terms (lower/upper None)
    from boyd_indices_numeric."""

    exact: bool
    lower: Optional[Fraction]
    upper: Optional[Fraction]
    lower_bracket: Optional[tuple]
    upper_bracket: Optional[tuple]
    depth: Optional[int]


def boyd_indices(e: SequenceExpr) -> BoydIndices:
    """Exact Boyd indices of e: the rate interval of its normal form
    decompose(e), for every input, tables included."""
    return BoydIndices(True, *decompose(e).rate_interval, None, None, None)


def boyd_indices_numeric(e: SequenceExpr) -> BoydIndices:
    """Window-scan bracket for the Boyd indices of a table-free input, an
    independent check of boyd_indices.  The widening is calibrated to
    contain the exact index of canonical inputs with |log exponent| <= 8;
    a long table prefix defeats it."""
    K = BOYD_DEPTH
    logs = [float(log2_value(e, j)) for j in range(K + 1)]
    alpha_est = math.inf
    beta_est = -math.inf
    for j in (K // 4, K // 2):
        diffs = [logs[j + k] - logs[k] for k in range(K - j + 1)]
        alpha_est = min(alpha_est, max(diffs) / j)
        beta_est = max(beta_est, min(diffs) / j)
    cert = certify_admissible(e)
    env_lo, env_hi = float(cert.log2_d0), float(cert.log2_d1)
    # slowly varying factors drift the windowed slopes by at most their
    # one-step envelope spread times log2(1+j)/j, so widening by that much
    # keeps the exact index inside the bracket for classified profiles
    j0 = K // 4
    w = 0.125 + 16.0 * math.log2(K) / K
    w += (env_hi - env_lo) * math.log2(1 + j0) / j0

    upper_bracket = (max(alpha_est - w, env_lo), min(alpha_est + w, env_hi))
    lower_bracket = (max(beta_est - w, env_lo), min(beta_est + w, env_hi, upper_bracket[1]))
    return BoydIndices(
        lower=None, upper=None,
        lower_bracket=lower_bracket,
        upper_bracket=upper_bracket,
        exact=False, depth=K,
    )


class EquivalenceResult(NamedTuple):
    """yes iff ratio, the quotient of the normal forms with constant
    factors dropped, is trivial; then every log2(e1_j/e2_j) lies in
    [log2_c_lower, log2_c_upper], each a Fraction whenever the ratios it
    hulls are exact.  no carries the non-constant ratio and no band."""

    status: str  # yes | no
    log2_c_lower: Optional[Union[Fraction, float]]
    log2_c_upper: Optional[Union[Fraction, float]]
    ratio: SequenceExpr


def equivalent(e1: SequenceExpr, e2: SequenceExpr) -> EquivalenceResult:
    """Decide whether e1 and e2 stay within constant factors of each other.

    Explicit prefixes touch finitely many entries and constant factors
    never change the class, so the answer is read off ratio, the product
    of decompose(e1) and decompose(e2)^-1 with constants dropped: yes iff
    it is the constant 1; else it is a non-constant monomial, unbounded or
    tending to 0 along the even or odd pw2 anchors.  Past the longest
    table prefix P both inputs take their continuations' values at j, so
    the ratio of a yes is the quotient of their constants there, and the
    band is the hull of the log2 ratios at j = 0..P.
    """
    d1, d2 = (decompose(e)._replace(const=Fraction(1), roots=()) for e in (e1, e2))
    ratio = product(d1, power(d2, -1))
    if ratio != SequenceExpr():
        return EquivalenceResult("no", None, None, ratio)
    P = max(_max_prefix_len(e1), _max_prefix_len(e2))
    qs = [_add(log2_value(e1, j), -log2_value(e2, j)) for j in range(P + 1)]
    return EquivalenceResult("yes", min(qs), max(qs), ratio)


_NUMERAL_BITS = (10 ** MAX_NUMERAL_DIGITS).bit_length()  # 2^n has more digits iff |n| >= this


def _pow2(n: int) -> Fraction:
    """2^n, refused when render would print more digits than parse reads."""
    if abs(n) >= _NUMERAL_BITS:
        raise StandardizeError(f"a value 2^{n} of the result has more than "
                               f"{MAX_NUMERAL_DIGITS} digits")
    return Fraction(2) ** n


class Standardized(NamedTuple):
    """A standardized sequence (result) and the kappa0 it was resampled
    with."""

    result: SequenceExpr
    kappa0: int


def standardize(sigma: SequenceExpr, growth: SequenceExpr,
                kappa0: Optional[int] = None) -> Standardized:
    """Resample sigma along the inverse of a strongly increasing growth scale.

    The result is the sequence beta_j = sigma_{k(j)} with
    k(j) = min{k >= 0 : 2^(j-1) <= N_{k+kappa0}}, rendered as an explicit
    prefix of max(16, 4*kappa0 + 8) values followed by an equivalent
    closed-form continuation.  Without kappa0 the smallest one with
    d0^kappa0 >= 2 is used, and returned with the result.  A longer prefix
    than MAX_TABLE_ENTRIES is refused.  Requires a decomposable sigma and a
    decomposable, oscillation-free growth scale.
    """
    cert = certify_admissible(growth)
    if not cert.strongly_increasing:
        raise StandardizeError("growth sequence is not strongly increasing (d0 <= 1)")
    lg = cert.log2_d0
    if kappa0 is None:  # the least kappa0 with kappa0 * log2(d0) >= 1
        kappa0 = max(1, math.ceil(1 / lg if isinstance(lg, Fraction) else 1 / lg - 1e-12))
    elif kappa0 * lg < (1 if isinstance(lg, Fraction) else 1 - 1e-12):
        # d0^kappa0 < 2, in logs, exactly where log2(d0) is exact
        raise StandardizeError("kappa0 too small: d0^kappa0 < 2")
    if 4 * kappa0 + 8 > MAX_TABLE_ENTRIES:
        raise StandardizeError(f"kappa0 too large: its prefix of 4*kappa0 + 8 "
                               f"values exceeds {MAX_TABLE_ENTRIES}")

    if sigma == const(sigma.const):
        return Standardized(sigma, kappa0)

    ds = decompose(sigma)
    dn = decompose(growth)
    if ds.osc:
        raise StandardizeError("sigma must decompose into geometric/log/slowly-varying atoms")
    if dn.osc or dn.explog or dn.iterlog != 0:
        raise StandardizeError("growth scale must be geometric with at most a log-power factor")
    lam = dn.rate
    if lam <= 0:
        raise StandardizeError("growth scale must have positive rate")

    prefix_len = max(16, 4 * kappa0 + 8)

    # k(j) is non-decreasing in j; walk both indices together
    ks = []
    k = 0
    for j in range(prefix_len + 1):
        target = j - 1
        while True:
            lg = log2_value(growth, k + kappa0)
            ok = (lg >= target) if isinstance(lg, Fraction) else (float(lg) >= target - 1e-9)
            if ok:
                break
            k += 1
        ks.append(k)

    prefix_vals = []
    for j in range(prefix_len):
        lg = log2_value(sigma, ks[j])
        if isinstance(lg, Fraction) and lg.denominator == 1:
            prefix_vals.append(_pow2(lg.numerator))
        else:
            prefix_vals.append(Fraction(evaluate(sigma, ks[j])))

    # the slowly varying atoms carry over unchanged
    cont = ds._replace(const=Fraction(1), roots=(), rate=ds.rate / lam,
                       log_exp=ds.log_exp - ds.rate * dn.log_exp / lam)

    # pin the continuation to the true value at the seam index
    seam_true = float(log2_value(sigma, ks[prefix_len]))
    seam_cont = float(log2_value(cont, prefix_len))
    shift = seam_true - seam_cont
    if abs(shift) > 1e-12:
        if not (shift.is_integer() or -1075 < shift < 1024):  # 2.0 ** shift is 0 or inf
            raise StandardizeError(f"seam constant 2^{shift} is out of float range")
        pin = _pow2(int(shift)) if shift.is_integer() else 2.0 ** shift
        cont = product(const(pin), cont)

    return Standardized(table(prefix_vals, cont), kappa0)


class AsiResult(NamedTuple):
    status: str  # yes | no
    boyd: BoydIndices


def is_almost_strongly_increasing(e: SequenceExpr) -> AsiResult:
    """A sequence is almost strongly increasing iff its lower Boyd index,
    read exactly off the normal form, is positive."""
    b = boyd_indices(e)
    return AsiResult("yes" if b.lower > 0 else "no", b)
