"""Embedding verdicts against hand-computed exponent arithmetic."""

from fractions import Fraction

import pytest
from hypothesis import assume, example, given
import hypothesis.strategies as st

from gsembed import (
    EmbeddingProblem,
    INF,
    Target,
    boyd_indices,
    compact_not_nuclear_band,
    compactness,
    criterion_sequence,
    decompose,
    dual_star,
    ellr_membership,
    entropy_rate,
    ext,
    geometric,
    is_almost_strongly_increasing,
    log_power,
    nuclearity,
    parse,
    power,
    product,
    recip,
    render,
    tong,
)
import gsembed.embanalyzer as embanalyzer

from conftest import (FOLD_FACTORS, banach_exponents, canonical_exprs,
                      oscillating_exprs, quasi_exponents, small_fractions)

HALF = Fraction(1, 2)

# products of up to three factors, each with an optional exponent p/q
weights = st.lists(
    st.tuples(st.sampled_from(FOLD_FACTORS), st.none() | small_fractions(-2, 2)),
    min_size=1, max_size=3).map(lambda ts: "*".join(
        f if r is None else f"{f}^{r.numerator}/{r.denominator}" for f, r in ts))


def reference_criterion(problem, kind):
    """The criterion as the product of weight_ratio and the geometric factor
    2^(j dim (1/p1 - 1/p2 + 1/r)), with its target, from the public
    exponent functions."""
    gap = dual_star if kind == "compact" else tong
    rate = problem.dim * (recip(problem.p1) - recip(problem.p2)
                          + recip(gap(problem.p1, problem.p2)))
    fine = gap(problem.q1, problem.q2)
    target = Target("c0") if fine == INF else Target("ell", fine)
    return product(problem.weight_ratio, geometric(rate)), target


class TestExponentArithmetic:
    def test_ext_parses_strings(self):
        assert ext("inf") == INF
        assert ext("3/2") == Fraction(3, 2)
        assert ext(2) == Fraction(2)
        assert ext(0.5) == HALF
        with pytest.raises(TypeError):
            ext(object())

    def test_ext_numeral_digit_cap(self):
        # without the cap Fraction builds 10^(10^6) before int() refuses
        with pytest.raises(ValueError, match="more than 4300 digits"):
            ext("0." + "0" * 10**6 + "1")
        with pytest.raises(ValueError, match="more than 4300 digits"):
            ext("1_" * 4300 + "1")
        assert ext("0." + "0" * 4299 + "1") == Fraction(1, 10**4300)
        assert ext("1" * 4300 + "/" + "3" * 4300) > 0

    def test_ext_refuses_non_ascii(self):
        # Fraction reads the Arabic-Indic digit as 3
        with pytest.raises(ValueError, match="non-ASCII character"):
            ext("\u0663")
        with pytest.raises(ValueError, match="^p1: non-ASCII character"):
            EmbeddingProblem("1", "1", "\u0663", 2, 2, 2, 1)

    def test_ext_shares_string_values(self):
        cache = embanalyzer._ext_text_cached
        assert ext("4/3") is ext("4/3") == Fraction(4, 3)
        assert ext(" INF ") is INF
        # other types, and strings over the length cap, are read every time
        before = cache.cache_info()
        for x, want in ((1.5, Fraction(3, 2)), (Fraction(4, 3), Fraction(4, 3)),
                        (3, Fraction(3)), (INF, INF),
                        ("3/2".rjust(embanalyzer.MAX_CACHED_TEXT + 1), Fraction(3, 2))):
            got = ext(x)
            assert got == want and type(got) is type(want)
        assert cache.cache_info() == before

    def test_ext_returns_a_fraction_itself(self):
        q = Fraction(4, 3)
        assert ext(q) is q

        class Ratio(Fraction):
            pass

        got = ext(Ratio(4, 3))
        assert got == q and type(got) is Fraction

    @pytest.mark.parametrize("text, error", [
        ("1/0", ZeroDivisionError), ("abc", ValueError), ("1e5000", ValueError),
        ("\u0663", ValueError)])
    def test_ext_errors_repeat(self, text, error):
        raised = []
        for _ in range(2):
            with pytest.raises(error) as err:
                ext(text)
            raised.append(str(err.value))
        assert raised[0] == raised[1]

    def test_recip_endpoints(self):
        assert recip(INF) == 0
        assert recip(Fraction(0)) == INF
        assert recip(Fraction(2, 3)) == Fraction(3, 2)

    def test_recip_of_a_fraction_is_one_over_it(self):
        # recip swaps numerator and denominator; the sign moves to the top
        # and a subclass comes back as a plain Fraction, as 1 / x does
        class Ratio(Fraction):
            pass

        for x in (Fraction(2, 3), Fraction(7), Fraction(-3, 2), Fraction(-1, 5),
                  Ratio(4, 9), Ratio(-5, 2)):
            got = recip(x)
            assert got == 1 / x and type(got) is Fraction
            assert got.denominator > 0
        assert recip(Fraction(0)) == INF and recip(Ratio(0)) == INF

    @pytest.mark.parametrize("value, text", [
        (Fraction(0), "p1 must be positive or inf, got 0"),
        (Fraction(-3, 2), "p1 must be positive or inf, got -3/2"),
        (-INF, "p1 must be positive or inf, got -inf"),
        ("0", "p1 must be positive or inf, got 0")])
    def test_exponent_error_texts(self, value, text):
        with pytest.raises(ValueError) as err:
            embanalyzer._exponent("p1", value)
        assert str(err.value) == text

    @pytest.mark.parametrize("fn, args, want", [
        (recip, (2,), Fraction(1, 2)),
        (recip, (Fraction(4, 3),), Fraction(3, 4)),
        (recip, (0.25,), Fraction(4)),
        (recip, (INF,), Fraction(0)),
        (recip, (Fraction(0),), INF),
        (recip, (0,), INF),
        (recip, (0.0,), INF),
        (dual_star, (3, 2), Fraction(6)),
        (dual_star, (Fraction(3), 2.0), Fraction(6)),
        (dual_star, ("inf", Fraction(1)), Fraction(1)),
        (dual_star, (INF, 4), Fraction(4)),
        (dual_star, (2, Fraction(3)), INF),
        (dual_star, (Fraction(2), Fraction(2)), INF),
        (tong, (2, 4), Fraction(4, 3)),
        (tong, (Fraction(2), 4.0), Fraction(4, 3)),
        (tong, (1.5, INF), Fraction(3)),
        (tong, (INF, Fraction(1)), Fraction(1)),
        (tong, (1, INF), INF),
        (tong, (4, 2), Fraction(1)),
    ])
    def test_reciprocal_contract(self, fn, args, want):
        # recip reads a Fraction first; every argument type meets the
        # same exact value, inf stays the float infinity
        got = fn(*args)
        assert got == want and type(got) is type(want)

    def test_dual_star_values(self):
        assert dual_star(2, 3) == INF
        assert dual_star(3, 2) == 6
        assert dual_star("inf", 1) == 1
        assert dual_star(1, "inf") == INF
        assert dual_star(2, 2) == INF

    @pytest.mark.parametrize("r1, r2", [(0, 2), (-1, 2), ("-3", "inf")])
    def test_dual_star_rejects_what_tong_rejects(self, r1, r2):
        for fn in (dual_star, tong):
            with pytest.raises(ValueError, match="r1 must be positive or inf"):
                fn(r1, r2)

    def test_tong_values(self):
        assert tong(1, "inf") == INF
        assert tong("inf", 1) == 1
        assert tong(2, 2) == 1
        assert tong(4, 2) == 1
        assert tong(2, 4) == Fraction(4, 3)

    def test_tong_rejects_quasi_banach(self):
        with pytest.raises(ValueError):
            tong(HALF, 2)

    @given(banach_exponents, banach_exponents)
    def test_tong_below_dual_star(self, r1, r2):
        # on reciprocals: 1/tong >= 1/dual_star, equality only at {1, inf}
        t, s = tong(r1, r2), dual_star(r1, r2)
        assert recip(t) >= recip(s)
        if {ext(r1), ext(r2)} == {Fraction(1), INF}:
            assert recip(t) == recip(s)
        else:
            assert recip(t) > recip(s)


class TestProblems:
    def test_string_weights_are_parsed(self):
        pr = EmbeddingProblem("2^(j)", "1", 1, 1, "inf", "inf", 1)
        assert decompose(pr.sigma).rate == 1
        assert pr.p2 == INF

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            EmbeddingProblem(geometric(1), geometric(0), 0, 1, 1, 1, 1)
        with pytest.raises(ValueError, match="q1 must be positive"):
            EmbeddingProblem(geometric(1), geometric(0), 1, -INF, 1, 1, 1)
        with pytest.raises(ValueError):
            EmbeddingProblem(geometric(1), geometric(0), 1, 1, 1, 1, 0)
        with pytest.raises(ValueError):
            EmbeddingProblem(geometric(1), geometric(0), 1, 1, 1, 1, 1, scale="X")

    def test_is_banach(self):
        assert EmbeddingProblem("1", "1", 1, "inf", 2, 2, 1).is_banach()
        assert not EmbeddingProblem("1", "1", HALF, 1, 2, 2, 1).is_banach()

    def test_derived_members(self):
        pr = EmbeddingProblem("2^(j)*(1+j)", "(table[3] then 1)", 2, "inf", 4, 1, 1)
        assert pr.recips == (HALF, 0, Fraction(1, 4), 1)
        assert pr.weight_ratio == product(power(pr.sigma, -1), pr.tau)
        # cached members stay out of equality, hashing, repr and _replace
        twin = EmbeddingProblem("2^(j)*(1+j)", "(table[3] then 1)", 2, "inf", 4, 1, 1)
        assert pr == twin and hash(pr) == hash(twin) and repr(pr) == repr(twin)
        assert "recips" not in repr(pr)
        assert pr._replace(p1=1).recips == (1, 0, Fraction(1, 4), 1)

    def test_target_validation(self):
        with pytest.raises(ValueError):
            Target("ball")
        with pytest.raises(ValueError):
            Target("ell")
        assert str(Target("ell", INF)) == "ell_inf"
        assert str(Target("c0")) == "c0"


class TestCriterionSequence:
    def test_compact_rate_and_target(self):
        pr = EmbeddingProblem("2^(j)", "1", 1, 2, 2, 1, 1)
        expr, target = criterion_sequence(pr, "compact")
        # -1 from the weights, +1/2 conjugation, dual_star(1,2)=inf adds 0
        assert decompose(expr).rate == -HALF
        assert target == Target("ell", Fraction(2))

    def test_nuclear_rate_and_target(self):
        pr = EmbeddingProblem("2^(j)", "1", 1, 2, 2, 1, 1)
        expr, target = criterion_sequence(pr, "nuclear")
        # tong(1,2)=2 contributes 1/2 on top of the compact rate,
        # and tong(2,1)=1 closes the fine target down to ell_1
        assert decompose(expr).rate == 0
        assert target == Target("ell", Fraction(1))

    def test_c0_target_when_fine_gap_closed(self):
        pr = EmbeddingProblem("2^(j)", "1", 2, 1, 2, 1, 1)
        _, target = criterion_sequence(pr, "compact")
        assert target == Target("c0")

    @given(banach_exponents, banach_exponents, banach_exponents, banach_exponents)
    def test_each_criterion_is_built_once(self, p1, q1, p2, q2):
        built = []
        build = embanalyzer._criterion

        def counted(problem, kind):
            built.append(kind)
            return build(problem, kind)

        weights = ("2^(3/2*j)*(1+j)^-1", "(table[2] then (1+log(1+j)))*(3)^1/2")
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(embanalyzer, "_criterion", counted)
            pr = EmbeddingProblem(*weights, p1, q1, p2, q2, 2)
            compactness(pr), nuclearity(pr), entropy_rate(pr)
            assert sorted(built) == ["compact", "nuclear"]
            # a problem from _replace derives its own criteria
            other = pr._replace(p1=q2, q2=p1)
            fresh = EmbeddingProblem(*weights, q2, q1, p2, p1, 2)
            for kind in ("compact", "nuclear"):
                assert criterion_sequence(other, kind) == \
                    criterion_sequence(fresh, kind)
            assert compactness(other) == compactness(fresh)
            assert nuclearity(other) == nuclearity(fresh)
            assert entropy_rate(other) == entropy_rate(fresh)
        # the cached criteria stay out of equality, hashing and repr
        twin = EmbeddingProblem(*weights, p1, q1, p2, q2, 2)
        assert pr == twin and hash(pr) == hash(twin) and repr(pr) == repr(twin)

    @given(banach_exponents, banach_exponents, banach_exponents, banach_exponents)
    def test_f_scale_builds_each_side_criterion_once(self, p1, q1, p2, q2):
        # classify on scale F: the sandwich is built once, and each of its
        # two sides derives its compact and its nuclear criterion once
        built = []
        build = embanalyzer._criterion

        def counted(problem, kind):
            built.append((id(problem), kind))
            return build(problem, kind)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(embanalyzer, "_criterion", counted)
            pr = EmbeddingProblem("2^(2*j)*(1+j)", "(1+j)^3", p1, q1, p2, q2, 1,
                                  scale="F")
            compactness(pr), nuclearity(pr), entropy_rate(pr)
        assert sorted(built) == sorted((id(side), kind) for side in pr.b_sandwich
                                       for kind in ("compact", "nuclear"))

    @given(banach_exponents, banach_exponents, banach_exponents, banach_exponents)
    def test_f_scale_sandwich_problems_are_fresh(self, p1, q1, p2, q2):
        # both bounding problems of the sandwich come from _replace; each
        # decides as a problem built from scratch with its fine indices
        weights = ("2^(j)*(1+j)^1/2", "(1+j)^-1/2")
        pr = EmbeddingProblem(*weights, p1, q1, p2, q2, 1, scale="F")
        criterion_sequence(pr, "compact")  # fills the F problem's own cache
        v = compactness(pr)
        for side in ("sufficient", "necessary"):
            fq1, fq2 = v.evidence[f"{side}_fine_indices"]
            fresh = EmbeddingProblem(*weights, p1, fq1, p2, fq2, 1)
            assert compactness(fresh).status == v.evidence[f"{side}_status"]
        if v.status != "inconclusive":
            side = "sufficient" if v.status == "holds" else "necessary"
            fq1, fq2 = v.evidence[f"{side}_fine_indices"]
            fresh = EmbeddingProblem(*weights, p1, fq1, p2, fq2, 1)
            assert (v.criterion, v.target) == criterion_sequence(fresh, "compact")

    @pytest.mark.parametrize("kind, exponents", [("compact", quasi_exponents),
                                                  ("nuclear", banach_exponents)])
    @given(data=st.data(), sigma=weights, tau=weights, dim=st.integers(1, 3))
    def test_criterion_is_the_ratio_with_shifted_rate(self, kind, exponents, data,
                                                      sigma, tau, dim):
        pr = EmbeddingProblem(sigma, tau, *(data.draw(exponents) for _ in range(4)),
                              dim)
        expr, target = criterion_sequence(pr, kind)
        want_expr, want_target = reference_criterion(pr, kind)
        assert (expr, target) == (want_expr, want_target)
        assert render(expr) == render(want_expr)
        assert expr._replace(rate=pr.weight_ratio.rate) == pr.weight_ratio

    def test_kind_checked(self):
        pr = EmbeddingProblem("1", "1", 1, 1, 1, 1, 1)
        with pytest.raises(ValueError):
            criterion_sequence(pr, "trace")
        # the nuclear criterion needs Banach exponents
        quasi = EmbeddingProblem("1", "1", HALF, 1, 1, 1, 1)
        with pytest.raises(ValueError, match="Banach"):
            criterion_sequence(quasi, "nuclear")
        criterion_sequence(quasi, "compact")


class TestMembership:
    def test_geometric_decay(self):
        v = ellr_membership(geometric(-1), Target("ell", Fraction(2)))
        assert v.status == "holds"

    def test_log_boundary_is_exact(self):
        inside = ellr_membership(log_power(-1), Target("ell", Fraction(2)))
        boundary = ellr_membership(log_power(-HALF), Target("ell", Fraction(2)))
        assert inside.status == "holds"
        assert boundary.status == "fails"

    def test_c0_and_ell_inf_split_at_constant(self):
        assert ellr_membership(log_power(0), Target("c0")).status == "fails"
        assert ellr_membership(log_power(0), Target("ell", INF)).status == "holds"
        assert ellr_membership(log_power(-1), Target("c0")).status == "holds"
        assert ellr_membership(log_power(1), Target("ell", INF)).status == "fails"

    def test_growth_fails_everything(self):
        for t in (Target("ell", Fraction(1)), Target("c0"), Target("ell", INF)):
            assert ellr_membership(geometric(HALF), t).status == "fails"

    @given(st.data())
    def test_nonzero_rate_decides(self, data):
        from conftest import canonical_exprs

        e, r, _ = data.draw(canonical_exprs())
        assume(r != 0)
        v = ellr_membership(e, Target("ell", Fraction(2)))
        assert v.status == ("holds" if r < 0 else "fails")

    # every branch of the membership rule, on smooth and pw2 monomials; a
    # monomial with oscillation exponent osc has anchor rates rate + osc*2/3
    # (even) and rate + osc/3 (odd), so pw2(s0=0,s1=3)*2^(-2*j) has anchor
    # rates 0 and -1 (sparse), while pw2(s0=0,s1=3)*(pw2(s0=0,s1=6))^-1/2 has
    # osc = 3 - 6/2 = 0: it is the constant 1, and the smooth rule decides
    SPARSE = "pw2(s0=0,s1=3)*2^(-2*j)"
    FLAT = "pw2(s0=0,s1=3)*(pw2(s0=0,s1=6))^-1/2"

    @pytest.mark.parametrize("text, target, status", [
        # smooth: rate
        ("2^(-1*j)", "2", "holds"),
        ("2^(j)*(1+j)^-9", "2", "fails"),
        ("2^(-1*j)*(1+j)^9", "c0", "holds"),
        ("2^(1/2*j)", "inf", "fails"),
        # smooth, finite r: log exponent against -1/r
        ("(1+j)^-1", "2", "holds"),
        ("(1+j)^-1/4", "2", "fails"),
        ("(1+j)^-1", "1", "fails"),
        ("(1+j)^-2", "1/2", "fails"),
        ("(1+j)^-3", "1/2", "holds"),
        ("(1+j)^-3", "3/2", "holds"),
        # smooth, finite r, at r*log_exp = -1: explog, iterlog, bare
        ("(1+j)^-1/2", "2", "fails"),
        ("(1+j)^-1/2*exp(-1*log(1+j)^1/2)", "2", "holds"),
        ("(1+j)^-1/2*exp(1*log(1+j)^1/2)*(1+log(1+j))^-5", "2", "fails"),
        ("(1+j)^-1*exp(-1*log(1+j)^1/3)*exp(1*log(1+j)^1/2)", "1", "fails"),
        ("(1+j)^-1*exp(1*log(1+j)^1/3)*exp(-1*log(1+j)^1/2)", "1", "holds"),
        ("(1+j)^-1/2*(1+log(1+j))^-1", "2", "holds"),
        ("(1+j)^-1/2*(1+log(1+j))^-1/2", "2", "fails"),
        ("(1+j)^-1/2*(1+log(1+j))^-1/4", "2", "fails"),
        ("(1+j)^-2/3*(1+log(1+j))^-1", "3/2", "holds"),
        # smooth, c0 and ell_inf: log, explog, iterlog, limit
        ("(1+j)^-1/9", "c0", "holds"),
        ("(1+j)^1/9", "inf", "fails"),
        ("(1+j)^-1/9", "inf", "holds"),
        ("exp(-1*log(1+j)^1/2)", "c0", "holds"),
        ("exp(1*log(1+j)^1/2)*(1+log(1+j))^-3", "inf", "fails"),
        ("(1+log(1+j))^-1", "c0", "holds"),
        ("(1+log(1+j))^1", "inf", "fails"),
        ("(1+log(1+j))^-1/9", "inf", "holds"),
        ("1", "inf", "holds"),
        ("3", "c0", "fails"),
        ("(table[5,7] then 1)", "inf", "holds"),
        # pw2: both anchor rates negative, one positive
        ("pw2(s0=0,s1=3)*2^(-3*j)*(1+j)^9", "2", "holds"),
        ("pw2(s0=0,s1=3)*2^(-3*j)", "c0", "holds"),
        ("pw2(s0=0,s1=3)*2^(-3/2*j)*(1+j)^-9", "2", "fails"),
        ("(pw2(s0=1,s1=2))^-1*2^(5/3*j)", "inf", "fails"),
        ("pw2(s0=0,s1=3)*2^(-1*j)", "2", "fails"),
        # pw2 powers whose oscillation cancels: the smooth rule decides
        (FLAT + "*(1+j)^-1", "2", "holds"),
        (FLAT + "*(1+j)^-1/2", "2", "fails"),
        (FLAT + "*(1+j)^-1/2*(1+log(1+j))^-1", "2", "holds"),
        (FLAT + "*exp(-1*log(1+j)^1/2)", "c0", "holds"),
        (FLAT, "c0", "fails"),
        (FLAT, "inf", "holds"),
        # pw2, sparse zero anchors: log
        (SPARSE + "*(1+j)^-1/4", "2", "holds"),
        (SPARSE + "*(1+j)^-1/4", "c0", "holds"),
        (SPARSE + "*(1+j)^1/4", "inf", "fails"),
        (SPARSE + "*(1+j)^1/4*exp(-1*log(1+j)^1/2)", "2", "fails"),
        # pw2, sparse zero anchors: explog
        (SPARSE + "*exp(-1*log(1+j)^1/2)", "2", "holds"),
        (SPARSE + "*exp(-1*log(1+j)^1/2)", "c0", "holds"),
        (SPARSE + "*exp(1*log(1+j)^1/2)*(1+log(1+j))^-9", "inf", "fails"),
        (SPARSE + "*exp(1*log(1+j)^1/2)", "2", "fails"),
        # pw2, sparse zero anchors: iterlog, at and off r*a = -1
        (SPARSE + "*(1+log(1+j))^-1/2", "2", "fails"),
        (SPARSE + "*(1+log(1+j))^-1", "2", "holds"),
        (SPARSE + "*(1+log(1+j))^-1/4", "2", "fails"),
        (SPARSE + "*(1+log(1+j))^-1/2", "c0", "holds"),
        (SPARSE + "*(1+log(1+j))^-1/2", "inf", "holds"),
        (SPARSE + "*(1+log(1+j))^1/2", "inf", "fails"),
        (SPARSE + "*(1+log(1+j))^1/2", "c0", "fails"),
        # pw2, sparse zero anchors: bare limit
        (SPARSE, "inf", "holds"),
        (SPARSE, "2", "fails"),
        (SPARSE, "c0", "fails"),
        ("(pw2(s0=0,s1=3))^-1*2^(j)*(1+j)^-1/4", "2", "holds"),
        ("(pw2(s0=0,s1=3))^-1*2^(j)", "1/2", "fails"),
    ])
    def test_branch_table(self, text, target, status):
        tgt = Target("c0") if target == "c0" else Target("ell", ext(target))
        assert ellr_membership(parse(text), tgt).status == status

    @pytest.mark.parametrize("text, target, rule, value", [
        ("2^(-1*j)*(1+j)^9", "2", "rate", "-1"),
        ("(1+j)^-1", "2", "log", "-1/2"),
        ("(1+j)^-1/2*exp(1*log(1+j)^1/2)", "2", "explog", "1"),
        ("(1+j)^-1*exp(-1*log(1+j)^1/3)*exp(1*log(1+j)^1/2)", "1", "explog", "1"),
        ("(1+j)^-1/2*(1+log(1+j))^-1", "2", "iterlog", "-1/2"),
        ("(1+log(1+j))^-1", "c0", "iterlog", "-1"),
        ("3", "c0", "limit", "0"),
        ("(1+j)^-1/2", "2", "iterlog", "1/2"),
        ("pw2(s0=0,s1=3)*2^(-3*j)", "2", "anchor-rate", "-1"),
        (FLAT + "*(1+j)^-1", "2", "log", "-1/2"),
        (SPARSE + "*(1+j)^-1/4", "2", "anchor-log", "-1/4"),
        (SPARSE + "*exp(-1*log(1+j)^1/2)", "c0", "anchor-explog", "-1"),
        (SPARSE + "*(1+log(1+j))^-1/2", "2", "anchor-limit", "0"),
        ("(1+j)^-1/2*(1+log(1+j))^-1/2", "2", "limit", "0"),
        (SPARSE + "*(1+log(1+j))^-1", "2", "anchor-iterlog", "-1/2"),
        (SPARSE, "inf", "anchor-limit", "0"),
    ])
    def test_rule_ids(self, text, target, rule, value):
        tgt = Target("c0") if target == "c0" else Target("ell", ext(target))
        ev = ellr_membership(parse(text), tgt).evidence
        assert (ev["decided_by"], ev["value"]) == (rule, Fraction(value))
        assert ("anchor_rate_even" in ev) == (decompose(parse(text)).osc != 0)


class TestCompactness:
    def test_classical_threshold(self):
        holds = EmbeddingProblem("2^(2*j)", "1", 1, 1, "inf", "inf", 1)
        boundary = EmbeddingProblem("2^(j)", "1", 1, 1, "inf", "inf", 1)
        assert compactness(holds).status == "holds"
        assert compactness(boundary).status == "fails"

    def test_quasi_banach_allowed(self):
        pr = EmbeddingProblem("2^(j)", "1", HALF, HALF, 1, 1, 1)
        # gap 1 vs d(1/p1-1/p2)+ = 1: boundary, so not compact
        assert compactness(pr).status == "fails"

    def test_evidence_carries_criterion(self):
        pr = EmbeddingProblem("2^(2*j)", "1", 1, 1, "inf", "inf", 1)
        v = compactness(pr)
        assert "criterion" in v.evidence
        assert v.tag == "sequence-compactness-criterion"

    def test_f_scale_sandwich_agrees_when_clear(self):
        pr = EmbeddingProblem("2^(2*j)", "1", 2, 1, 3, 4, 1, scale="F")
        v = compactness(pr)
        assert v.status == "holds"
        assert v.tag == "via-B-sandwich"

    def test_f_scale_boundary_is_inconclusive(self):
        # fine-index boundary: criterion (1+j)^(-1/2) lands between the
        # sandwich targets ell_1 (fails) and c0 (holds)
        pr = EmbeddingProblem("(1+j)^1/2", "1", 2, "inf", 2, 1, 1, scale="F")
        v = compactness(pr)
        assert v.status == "inconclusive"
        assert v.evidence["sufficient_status"] == "fails"
        assert v.evidence["necessary_status"] == "holds"


class TestNuclearity:
    def test_classical_threshold(self):
        # for p1=inf, p2=1 the nuclearity threshold sits at gap zero
        holds = EmbeddingProblem("2^(2*j)", "1", "inf", "inf", 1, 1, 1)
        boundary = EmbeddingProblem("1", "1", "inf", "inf", 1, 1, 1)
        assert nuclearity(holds).status == "holds"
        assert nuclearity(boundary).status == "fails"

    def test_quasi_banach_rejected(self):
        pr = EmbeddingProblem("2^(4*j)", "1", HALF, 1, 2, 2, 1)
        with pytest.raises(ValueError):
            nuclearity(pr)

    def test_f_scale_via_sandwich(self):
        pr = EmbeddingProblem("2^(3*j)", "1", 2, 1, 3, 4, 2, scale="F")
        v = nuclearity(pr)
        assert v.status == "holds"
        assert v.tag == "via-B-sandwich"
        assert v.evidence["sufficient_status"] == "holds"

    def test_f_scale_equal_fine_indices_is_scale_b(self):
        # q = p on both sides makes F = B, and the gap 1 sits at the
        # nuclearity threshold d(1/p1 - 1/p2) = 1
        pr = EmbeddingProblem("2^(j)", "1", 1, 1, "inf", "inf", 1, scale="F")
        v = nuclearity(pr)
        assert v.status == "fails"
        assert v.evidence["sufficient_fine_indices"] == ("1", "inf")
        assert v.evidence["necessary_fine_indices"] == ("1", "inf")
        b = pr._replace(scale="B")
        assert nuclearity(b).status == "fails"
        assert (v.criterion, v.target) == criterion_sequence(b, "nuclear")

    def test_f_scale_quasi_banach_rejected(self, monkeypatch):
        # the sufficient side, q1 -> max(2, 1/2) = 2, is Banach and holds;
        # the refusal comes before either side is built
        pr = EmbeddingProblem("2^(4*j)", "1", 2, HALF, 2, 2, 1, scale="F")
        with monkeypatch.context() as mp:
            mp.setattr(EmbeddingProblem, "b_sandwich", None)
            with pytest.raises(ValueError) as f_err:
                nuclearity(pr)
        with pytest.raises(ValueError) as b_err:
            nuclearity(pr._replace(scale="B"))
        assert str(f_err.value) == str(b_err.value)
        assert nuclearity(pr._replace(scale="B", q1=2)).status == "holds"

    @given(st.one_of(canonical_exprs(), oscillating_exprs()), canonical_exprs(),
           banach_exponents, banach_exponents, banach_exponents,
           banach_exponents, st.integers(1, 3))
    def test_f_scale_agrees_with_the_boyd_rule(self, sigma, tau, p1, q1, p2,
                                               q2, d):
        # the former scale-F route, kept here as the reference: the Boyd
        # indices of the F problem's own nuclear criterion, which decide
        # when they do not straddle zero
        pr = EmbeddingProblem(sigma[0], tau[0], p1, q1, p2, q2, d, scale="F")
        b = boyd_indices(decompose(criterion_sequence(pr, "nuclear")[0]))
        assert b.exact
        v = nuclearity(pr)
        if b.upper < 0:
            assert v.status == "holds"
        elif b.lower > 0:
            assert v.status == "fails"


class TestBand:
    def test_generic_band(self):
        band = compact_not_nuclear_band(2, 3, 1)
        assert band.lower == 0
        assert band.upper == Fraction(5, 6)
        assert not band.empty

    def test_extreme_pairs_collapse(self):
        assert compact_not_nuclear_band(1, "inf", 3).empty
        b = compact_not_nuclear_band("inf", 1, 2)
        assert b.lower == b.upper == 2
        assert b.empty

    @given(banach_exponents, banach_exponents, st.integers(1, 4))
    def test_band_is_ordered(self, p1, p2, d):
        band = compact_not_nuclear_band(p1, p2, d)
        assert band.upper >= band.lower >= 0

    def test_interior_point_separates_verdicts(self):
        # delta = 2/3 sits inside (0, 5/6]
        pr = EmbeddingProblem("2^(2/3*j)", "1", 2, 1, 3, 1, 1)
        assert compactness(pr).status == "holds"
        assert nuclearity(pr).status == "fails"


class TestEntropyRate:
    def test_non_limiting_ratio_law(self):
        pr = EmbeddingProblem("2^(2*j)*(1+j)", "(1+j)^3", 2, 2, 2, 2, 2)
        r = entropy_rate(pr)
        assert r.kind == "non-limiting"
        assert r.k_exponent == 1
        assert r.log_exponent == -2
        assert r.residual is None

    def test_non_limiting_carries_sv_residual(self):
        pr = EmbeddingProblem("2^(j)*exp(1/2*log(1+j)^1/2)", "1",
                              2, 2, 2, 2, 1)
        r = entropy_rate(pr)
        assert r.kind == "non-limiting"
        assert r.k_exponent == 1
        assert "exp(" in r.residual

    def test_limiting_log(self):
        pr = EmbeddingProblem("2^(j)*(1+j)", "2^(j)", 1, 1, 1, 1, 1)
        r = entropy_rate(pr)
        assert r.kind == "limiting-log"
        assert (r.k_exponent, r.log_exponent) == (0, 1)

    def test_coupled_log_branches(self):
        mk = lambda s: EmbeddingProblem(s, "2^(1/2*j)", 1, "inf", 2, 2, 1)
        above = entropy_rate(mk("2^(j)*(1+j)^2"))
        at = entropy_rate(mk("2^(j)*(1+j)^3/2"))
        below = entropy_rate(mk("2^(j)*(1+j)"))
        assert (above.k_exponent, above.log_exponent) == (HALF, HALF)
        assert (at.k_exponent, at.log_exponent) == (HALF, -1)
        assert (below.k_exponent, below.log_exponent) == (Fraction(3, 4), 0)
        assert {above.kind, at.kind, below.kind} == {"limiting-coupled-log"}

    def test_sv_integral_residual(self):
        pr = EmbeddingProblem("2^(j)*(1+j)*exp(1/2*log(1+j)^1/2)", "2^(j)",
                              2, 2, 2, 1, 1)
        r = entropy_rate(pr)
        assert r.kind == "limiting-sv-integral"
        assert "integral" in r.residual

    @pytest.mark.parametrize("sigma, tau", [
        ("2^(j)", "1"),
        # the weight ratio is 2^(-j): the oscillations cancel
        ("2^(2*j)*pw2(s0=0,s1=1)", "pw2(s0=1,s1=2)"),
    ])
    def test_non_limiting_geometric_ratio(self, sigma, tau):
        r = entropy_rate(EmbeddingProblem(sigma, tau, 2, 2, 2, 2, 1))
        assert (r.kind, r.k_exponent, r.log_exponent) == ("non-limiting", 1, 0)
        assert r.residual is None

    @given(weights, weights, quasi_exponents, quasi_exponents, quasi_exponents,
           quasi_exponents, st.integers(1, 3))
    # compact, with rate -1 but upper rate 0: not non-limiting
    @example("2^(j)", "pw2(s0=0,s1=1)", 2, 2, 2, 2, 1)
    def test_non_limiting_is_the_boyd_decision(self, sigma, tau, p1, q1, p2, q2,
                                               dim):
        # the upper rate of the criterion decides what the lower Boyd index
        # of its reciprocal does
        pr = EmbeddingProblem(sigma, tau, p1, q1, p2, q2, dim)
        law = entropy_rate(pr)
        crit, target = criterion_sequence(pr, "compact")
        if ellr_membership(crit, target).status == "fails":
            assert law.kind == "not-compact"
            return
        asi = is_almost_strongly_increasing(power(decompose(crit), Fraction(-1)))
        assert (law.kind == "non-limiting") == (asi.status == "yes")

    def test_not_compact(self):
        pr = EmbeddingProblem("1", "2^(j)", 2, 2, 2, 2, 1)
        assert entropy_rate(pr).kind == "not-compact"

    def test_scale_f_sandwich_law(self):
        # q = p makes both sides of the sandwich the scale-B problem
        pr = EmbeddingProblem("2^(2*j)", "1", 1, 1, "inf", "inf", 1, scale="F")
        law = entropy_rate(pr._replace(scale="B"))
        assert law.kind == "non-limiting"
        assert entropy_rate(pr) == law._replace(notes=law.notes + ("via-B-sandwich",))

    def test_scale_f_not_compact(self):
        pr = EmbeddingProblem("1", "2^(j)", 2, 1, 2, 4, 1, scale="F")
        r = entropy_rate(pr)
        assert (r.kind, r.notes[-1]) == ("not-compact", "via-B-sandwich")

    def test_scale_f_laws_differ(self):
        # compact, but the limiting-log exponent 2 - 1/q* reads 5/4 on the
        # sufficient side (q1 = 4, q2 = 1) and 2 on the necessary (2, 2)
        pr = EmbeddingProblem("2^(j)*(1+j)^2", "2^(j)", 2, 4, 2, 1, 1, scale="F")
        assert compactness(pr).status == "holds"
        r = entropy_rate(pr)
        assert r.kind == "inconclusive"
        assert r.notes == ("sandwich entropy laws differ", "via-B-sandwich")

    @given(canonical_exprs(), canonical_exprs(), banach_exponents,
           banach_exponents, banach_exponents, banach_exponents)
    def test_scale_f_law_is_the_sandwich_law(self, sigma, tau, p1, q1, p2, q2):
        pr = EmbeddingProblem(sigma[0], tau[0], p1, q1, p2, q2, 1, scale="F")
        r = entropy_rate(pr)
        assert (r.kind == "not-compact") == (compactness(pr).status == "fails")
        assert r.notes[-1] == "via-B-sandwich"
        if r.kind not in ("inconclusive", "not-compact"):
            assert compactness(pr).status == "holds"
            suff = pr._replace(scale="B", q1=max(p1, q1), q2=min(p2, q2))
            nec = pr._replace(scale="B", q1=min(p1, q1), q2=max(p2, q2))
            assert entropy_rate(suff) == entropy_rate(nec) == \
                r._replace(notes=r.notes[:-1])

    @pytest.mark.parametrize("sigma, tau", [
        ("2^(2*j)*(1+j)", "(1+j)^3"),        # non-limiting
        ("2^(j)*(1+j)^2", "2^(1/2*j)"),      # coupled-log catalog
        ("1", "2^(j)"),                      # not compact
    ])
    def test_single_criterion_pass(self, monkeypatch, sigma, tau):
        # one compact criterion per call, decided in place: compactness is
        # not run a second time
        calls = {"criterion_sequence": 0, "compactness": 0}
        for name in calls:
            real = getattr(embanalyzer, name)

            def counted(*args, _real=real, _name=name, **kw):
                calls[_name] += 1
                return _real(*args, **kw)
            monkeypatch.setattr(embanalyzer, name, counted)
        embanalyzer.entropy_rate(EmbeddingProblem(sigma, tau, 1, "inf", 2, 2, 1))
        assert calls == {"criterion_sequence": 1, "compactness": 0}
