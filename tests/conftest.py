"""Shared strategies for the property-based tests.

Expressions drawn here stay in the classified fragment (products of the
atom types with exact rational parameters) so that structural answers can
be checked against numeric probes.
"""

from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import settings

from gsembed import (
    exp_log_pow,
    geometric,
    iter_log,
    log_power,
    product,
    pw2,
)

settings.register_profile("suite", deadline=None, max_examples=60)
settings.load_profile("suite")


def small_fractions(lo=-6, hi=6, dens=(1, 2, 3, 4)):
    # draw the denominator first so the value stays inside [lo, hi]
    return st.sampled_from(dens).flatmap(
        lambda d: st.integers(min_value=lo * d, max_value=hi * d).map(
            lambda n: Fraction(n, d)
        )
    )


rates = small_fractions(-4, 4)
log_exponents = small_fractions(-6, 6)
iterlog_exponents = small_fractions(-4, 4)
explog_coeffs = small_fractions(-2, 2)
explog_kappas = st.sampled_from([Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(3, 4)])


@st.composite
def canonical_exprs(draw):
    """Geometric x log-power x optional slowly varying atoms; returns
    (expr, rate, log_exponent)."""
    r = draw(rates)
    b = draw(log_exponents)
    parts = [geometric(r), log_power(b)]
    if draw(st.booleans()):
        parts.append(iter_log(draw(iterlog_exponents)))
    if draw(st.booleans()):
        parts.append(exp_log_pow(draw(explog_coeffs), draw(explog_kappas)))
    return product(*parts), r, b


@st.composite
def oscillating_exprs(draw):
    """pw2 slopes with an optional canonical multiplier; returns
    (expr, s0, s1, extra_rate)."""
    s0 = draw(small_fractions(0, 2))
    s1 = s0 + draw(small_fractions(1, 3, dens=(1, 2)).filter(lambda f: f > 0))
    r = draw(rates)
    return product(pw2(s0, s1), geometric(r)), s0, s1, r


# factors of a parsed product, each of which takes an exponent: roots,
# constant powers, tables, pw2 and explog factors among them; constants are
# parenthesized and exponents written p/q, since a numeral before '/' reads
# as a fraction (3/2^(j) asks for base 3/2, (1+j)^2/2^(j) for the exponent
# 2/2)
FOLD_FACTORS = ["2^(j)", "2^(-3/2*j)", "(1+j)^2/1", "(1+log(1+j))^-1/3",
                "exp(1/2*log(1+j)^1/3)", "pw2(s0=0,s1=1)", "pw2(s0=1/2,s1=2)",
                "(3)", "(12)", "(2)", "(5/4)", "(0.5)", "((3)^1/2)", "((12)^1/2)",
                "2^(1/3)", "(table[1,2] then 2^(j))", "(table[1,2] then (1+j)^-2)",
                "(table[3] then (1+j))",
                "(table[1/2] then (3)^1/2*pw2(s0=0,s1=1))",
                "((3)^1/2*2^(j))", "(2^(j)/(12)^1/2*(1+j))"]


banach_exponents = st.sampled_from(
    [Fraction(1), Fraction(6, 5), Fraction(3, 2), Fraction(2), Fraction(3),
     Fraction(7), float("inf")])

quasi_exponents = st.sampled_from(
    [Fraction(1, 2), Fraction(2, 3), Fraction(1), Fraction(3, 2), Fraction(2),
     Fraction(4), float("inf")])


@pytest.fixture(scope="session")
def fixed_seed():
    return 20240817
