import math
from fractions import Fraction

import pytest
from hypothesis import given
import hypothesis.strategies as st

from gsembed import (
    StandardizeError,
    boyd_indices,
    boyd_indices_numeric,
    certify_admissible,
    const,
    decompose,
    equivalent,
    evaluate,
    geometric,
    is_almost_strongly_increasing,
    iter_log,
    log2_value,
    log_power,
    parse,
    power,
    product,
    pw2,
    render,
    standardize,
    table,
)

from gsembed.seqdsl import MAX_TABLE_ENTRIES, _add

from conftest import FOLD_FACTORS, canonical_exprs, oscillating_exprs, small_fractions

# products of one to four FOLD_FACTORS (tables among them) under powers
fold_products = st.lists(st.tuples(st.sampled_from(FOLD_FACTORS), small_fractions(-2, 2)),
                         min_size=1, max_size=4).map(
    lambda fs: product(*(power(parse(f), x) for f, x in fs)))


class TestAdmissibility:
    def test_geometric_exact(self):
        cert = certify_admissible(geometric(Fraction(3, 2)))
        assert cert.log2_d0 == cert.log2_d1 == Fraction(3, 2)
        assert cert.strongly_increasing
        assert cert.window == 0  # no table, nothing scanned

    def test_log_factor_widens_above(self):
        # ratio of 2^j (1+j): largest at j=0 (factor 4), tending to 2
        cert = certify_admissible(parse("2^(j)*(1+j)"))
        assert cert.log2_d0 == 1
        assert cert.log2_d1 == 2

    def test_decreasing_log(self):
        # (1+j)^-1 has increasing ratios approaching 1 from below
        cert = certify_admissible(parse("(1+j)^-1"))
        assert cert.log2_d1 == 0
        assert cert.log2_d0 == -1
        assert not cert.strongly_increasing

    def test_pw2_range(self):
        cert = certify_admissible(pw2(0, 1))
        assert cert.log2_d0 == 0 and cert.log2_d1 == 1

    def test_table_spike_seen(self):
        e = table([1, 100, 1], geometric(1))
        cert = certify_admissible(e)
        assert cert.log2_d1 == pytest.approx(math.log2(100))
        assert cert.log2_d0 == pytest.approx(-math.log2(100))
        assert cert.window == 5  # the ratios up to one past the prefix

    @given(canonical_exprs().map(lambda triple: triple[0]) | fold_products)
    def test_certificate_bounds_observed_ratios(self, e):
        # only the ratios that touch a table prefix are scanned; the normal
        # form has to bound every later one
        cert = certify_admissible(e)
        logs = [log2_value(e, j) for j in range(301)]
        for prev, cur in zip(logs, logs[1:]):
            r = _add(cur, -prev)
            if all(isinstance(x, Fraction) for x in (r, cert.log2_d0, cert.log2_d1)):
                assert cert.log2_d0 <= r <= cert.log2_d1
            else:
                assert float(cert.log2_d0) - 1e-9 <= float(r) <= float(cert.log2_d1) + 1e-9


class TestBoyd:
    def test_geometric_fixture(self):
        for s in (Fraction(1), Fraction(-2), Fraction(5, 3)):
            b = boyd_indices(geometric(s))
            assert b.exact and b.lower == b.upper == s

    def test_oscillating_fixture(self):
        b = boyd_indices(pw2(0, 1))
        assert b.exact
        assert b.lower == 0 and b.upper == 1

        b2 = boyd_indices(product(pw2(Fraction(1, 2), 2), geometric(-1)))
        assert b2.exact
        assert b2.lower == Fraction(-1, 2) and b2.upper == 1

        # oscillations that cancel leave a geometric sequence
        b3 = boyd_indices(parse("pw2(s0=0,s1=3)*(pw2(s0=0,s1=6))^-1/2"))
        assert b3.exact and b3.lower == b3.upper == 0
        b4 = boyd_indices(parse("pw2(s0=0,s1=1)*(pw2(s0=1,s1=2))^-1"))
        assert b4.exact and b4.lower == b4.upper == -1

    def test_log_factors_are_invisible(self):
        b = boyd_indices(parse("(1+j)^4*(1+log(1+j))^-2"))
        assert b.exact and b.lower == b.upper == 0

    @given(canonical_exprs())
    def test_numeric_bracket_contains_exact(self, triple):
        e, r, _ = triple
        nb = boyd_indices_numeric(e)
        assert nb.lower_bracket[0] <= float(r) <= nb.lower_bracket[1]
        assert nb.upper_bracket[0] <= float(r) <= nb.upper_bracket[1]

    @given(fold_products)
    def test_exact_indices_inside_the_certificate(self, e):
        # every consecutive ratio lies in [d0, d1], so both indices do: the
        # tail's structure and the prefix scan check each other
        b, cert = boyd_indices(e), certify_admissible(e)
        d0, d1 = cert.log2_d0, cert.log2_d1
        if isinstance(d0, Fraction) and isinstance(d1, Fraction):
            assert d0 <= b.lower <= b.upper <= d1
        else:
            assert float(d0) - 1e-9 <= b.lower <= b.upper <= float(d1) + 1e-9

    @given(oscillating_exprs())
    def test_numeric_bracket_oscillating(self, quad):
        # dyadic oscillation only carries a containment promise for the
        # ratio envelope; the point estimates stay inside it and ordered
        e, s0, s1, r = quad
        nb = boyd_indices_numeric(e)
        cert = certify_admissible(e)
        assert float(cert.log2_d0) - 1e-9 <= nb.lower_bracket[0]
        assert nb.upper_bracket[1] <= float(cert.log2_d1) + 1e-9
        assert nb.lower_bracket[0] <= nb.upper_bracket[1]


class TestEquivalence:
    def test_constant_factors(self):
        e = parse("2^(j)*(1+j)^-1")
        r = equivalent(product(const(Fraction(7, 3)), e), e)
        assert r.status == "yes"
        assert r.log2_c_lower <= math.log2(7 / 3) <= r.log2_c_upper

    def test_fast_growth_against_a_constant(self):
        # the answer is the quotient of the normal forms, and the band stays
        # in exact log2, so neither 2^(100*j) nor 2^(N*j), N = 400 nines,
        # overflows
        N = "9" * 400
        r = equivalent(parse("2^(100*j)"), const(1))
        assert (r.status, r.ratio) == ("no", parse("2^(100*j)"))
        r = equivalent(parse(f"2^({N}*j)"), const(1))
        assert (r.status, r.ratio) == ("no", parse(f"2^({N}*j)"))
        # the prefix's ratio at j = 1 is 2^-N, outside the float range
        r = equivalent(parse(f"table[1,1] then 2^({N}*j)"), parse(f"2^({N}*j)"))
        assert (r.status, r.log2_c_lower, r.log2_c_upper) == ("yes", -int(N), 0)
        assert isinstance(r.log2_c_lower, Fraction) and isinstance(r.log2_c_upper, Fraction)

    def test_log_divergence(self):
        r = equivalent(parse("2^(j)"), parse("2^(j)*(1+j)"))
        assert (r.status, r.ratio) == ("no", parse("(1+j)^-1"))

    def test_iterated_log_divergence(self):
        r = equivalent(iter_log(2), const(1))
        assert r.status == "no"
        # a ratio that grows slower than any scan could see is still no
        r = equivalent(parse("(1+log(1+j))^1/100"), const(1))
        assert (r.status, r.ratio) == ("no", parse("(1+log(1+j))^1/100"))

    def test_pw2_shares_one_normal_form(self):
        r = equivalent(parse("pw2(s0=1,s1=2)"), parse("pw2(s0=0,s1=1)*2^(j)"))
        assert r.status == "yes"

    def test_table_prefix_ignored(self):
        e = parse("2^(j)")
        r = equivalent(table([5, 1, 9], e), e)
        assert r.status == "yes"

    @given(fold_products, fold_products,
           st.sampled_from(["other", "times-3", "padded"]))
    def test_yes_iff_trivial_ratio_and_band_holds(self, e1, other, pairing):
        e2 = {"other": other, "times-3": product(const(3), e1),
              "padded": product(table([5, 1, 9], const(1)), e1)}[pairing]
        r = equivalent(e1, e2)
        assert (r.status == "yes") == (r.ratio == const(1))
        if r.status == "no":
            return
        for j in range(301):
            q = _add(log2_value(e1, j), -log2_value(e2, j))
            if all(isinstance(x, Fraction) for x in (q, r.log2_c_lower, r.log2_c_upper)):
                assert r.log2_c_lower <= q <= r.log2_c_upper
            else:
                assert r.log2_c_lower - 1e-9 <= q <= r.log2_c_upper + 1e-9


class TestStandardize:
    def test_dyadic_growth_is_identity_like(self):
        sigma = parse("2^(3/2*j)*(1+j)")
        out = standardize(sigma, parse("2^(j)"), kappa0=1).result
        assert equivalent(out, sigma).status == "yes"

    def test_quartic_growth_halves_rate(self):
        out = standardize(parse("2^(j)"), parse("4^(j)"), kappa0=1).result
        # k(j) = max(0, ceil((j-3)/2)) gives the frozen prefix
        assert decompose(out) != out
        vals = [evaluate(out, j) for j in range(8)]
        assert vals == [1, 1, 1, 1, 2, 2, 4, 4]
        assert equivalent(out, parse("2^(1/2*j)")).status == "yes"

    @given(canonical_exprs())
    def test_equivalence_property(self, triple):
        sigma, _, _ = triple
        out = standardize(sigma, geometric(1), kappa0=1).result
        assert equivalent(out, sigma).status == "yes"

    def test_rejects_flat_growth(self):
        with pytest.raises(StandardizeError):
            standardize(parse("2^(j)"), log_power(1))

    def test_rejects_small_kappa0(self):
        with pytest.raises(StandardizeError):
            standardize(parse("2^(j)"), parse("2^(1/4*j)"), kappa0=1)
        out = standardize(parse("2^(j)"), parse("2^(1/4*j)"), kappa0=4).result
        assert equivalent(out, parse("2^(4*j)")).status == "yes"
        # an exact log2(d0) 1e-15 below 1 is compared exactly, with no slack,
        # and agrees with the default kappa0
        growth = parse("2^(999999999999999/1000000000000000*j)")
        with pytest.raises(StandardizeError, match="kappa0 too small"):
            standardize(parse("2^(j)"), growth, kappa0=1)
        assert standardize(parse("2^(j)"), growth).kappa0 == 2

    def test_large_kappa0_is_checked_in_logs(self):
        # d0^kappa0 = 2^1024 leaves the float range; kappa0 * log2(d0) does not
        out = standardize(parse("2^(j)"), parse("2^(j)"), kappa0=1024)
        assert out.kappa0 == 1024
        assert len(out.result.tables[0][0]) == 4 * 1024 + 8
        assert parse(render(out.result)) == out.result

    def test_rejects_kappa0_past_the_table_cap(self):
        # the largest kappa0 whose prefix 4*kappa0 + 8 fits MAX_TABLE_ENTRIES
        top = (MAX_TABLE_ENTRIES - 8) // 4
        out = standardize(parse("(1+j)"), parse("2^(j)"), kappa0=top)
        assert len(out.result.tables[0][0]) == MAX_TABLE_ENTRIES
        assert parse(render(out.result)) == out.result
        for kappa0 in (top + 1, 10**6):
            with pytest.raises(StandardizeError, match="kappa0 too large"):
                standardize(parse("(1+j)"), parse("2^(j)"), kappa0=kappa0)
        # the minimal kappa0 of a slow growth, 10^4, is refused the same way
        with pytest.raises(StandardizeError, match="kappa0 too large"):
            standardize(parse("(1+j)"), parse("2^(1/10000*j)"))

    def test_returns_minimal_kappa0(self):
        # d0 = 2^(1/4) needs kappa0 = 4 for d0^kappa0 >= 2
        out = standardize(parse("2^(j)"), parse("2^(1/4*j)"))
        assert out.kappa0 == 4
        assert equivalent(out.result, parse("2^(4*j)")).status == "yes"
        assert standardize(parse("3"), parse("2^(j)")).kappa0 == 1

    def test_whole_seam_shift_is_pinned_exactly(self):
        # the seam constant 2^-1201 is below the float range: 2.0 ** -1201
        # is 0.0
        out = standardize(parse("2^(j)"), parse("2^(j)"), kappa0=1200).result
        _, cont, _ = out.tables[0]
        assert cont == product(power(const(2), -1201), geometric(1))
        assert parse(render(out)) == out
        # in the float range the exact pin is the float one
        for n in (-1074, -3, 1, 1023):
            assert power(const(2), n) == const(2.0 ** n)

    @pytest.mark.parametrize("sigma, growth, kappa0, message", [
        ("2^(40*j)", "2^(1/100*j)", None, r"2\^16000 of the result has more than 4300 digits"),
        ("2^(500*j)", "2^(1/100*j)", None, r"2\^50000 of the result has more than 4300 digits"),
        ("2^(-3*j)", "2^(1/2*j)", 1200, r"2\^-14286 of the result has more than 4300 digits"),
        ("2^(j)", "2^(3*j)*(1+j)", 1200, r"seam constant 2\^-1199.58\d* is out of float range"),
        ("2^(-3*j)", "2^(3*j)*(1+j)", 1200, r"seam constant 2\^3598.76\d* is out of float range"),
    ])
    def test_refuses_values_it_cannot_write(self, sigma, growth, kappa0, message):
        # a prefix value or seam constant that render could not print for
        # parse to read back, or that leaves the float range, is refused
        with pytest.raises(StandardizeError, match=message):
            standardize(parse(sigma), parse(growth), kappa0)

    def test_rejects_oscillating_sigma(self):
        with pytest.raises(StandardizeError):
            standardize(pw2(0, 1), parse("2^(j)"))


class TestAsi:
    def test_exact_cases(self):
        assert is_almost_strongly_increasing(parse("2^(j)")).status == "yes"
        assert is_almost_strongly_increasing(parse("2^(-1/2*j)")).status == "no"
        assert is_almost_strongly_increasing(log_power(3)).status == "no"
        assert is_almost_strongly_increasing(pw2(0, 1)).status == "no"
        assert is_almost_strongly_increasing(product(pw2(0, 1), geometric(1))).status == "yes"
        flat = parse("pw2(s0=0,s1=3)*(pw2(s0=0,s1=6))^-1/2")
        assert is_almost_strongly_increasing(product(flat, geometric(1))).status == "yes"

    def test_numeric_certifies_yes(self):
        e = table([1, 2], parse("2^(j)"))
        res = is_almost_strongly_increasing(e)
        assert res.status == "yes"
        # the 250 equal values that left a 256-term window scan undecided
        e = table([1] * 250, parse("2^(-250)*2^(j)"))
        assert is_almost_strongly_increasing(e).status == "yes"
