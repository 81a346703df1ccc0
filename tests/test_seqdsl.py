import gc
import math
import time
from fractions import Fraction

import pytest
from hypothesis import given
import hypothesis.strategies as st

from gsembed import (
    DepthError,
    EvalOverflow,
    ParseError,
    PositivityError,
    SequenceError,
    canonicalize,
    const,
    decompose,
    evaluate,
    exp_log_pow,
    geometric,
    iter_log,
    log2_value,
    log_power,
    parse,
    power,
    product,
    pw2,
    render,
    table,
)

from gsembed import seqdsl
from gsembed.seqdsl import (MAX_CACHED_TEXT, MAX_CONST_BITS, MAX_EXPR_TOKENS,
                           MAX_NUMERAL_DIGITS, MAX_TABLE_ENTRIES, _bits, _lex,
                           _offset)

from conftest import (FOLD_FACTORS, canonical_exprs, oscillating_exprs, rates,
                      small_fractions)

# characters and words of the DSL and whitespace, Unicode spaces among it
_DSL_PIECES = [
    *"0123456789.^()[],*/+-=j_", "log", "exp", "pw2", "table", "then", "s0",
    " ", "\t", "\n", "\u00a0", "\u3000", "\x1c",
]
# non-ASCII digits, a superscript, a fraction, a full-width digit, letters
# outside ASCII, a lone surrogate, a null and ASCII outside the language
_HOSTILE = ["\u00b2", "\u0663", "\u00bd", "\uff11", "\u00e9", "\u2160",
            "\ud800", "\x00", "!", "#"]


# every error branch of the lexer and the parser, with the message and the
# offset each raises, pinned so that how the tokens are scanned and walked
# cannot move them; a PositivityError or DepthError carries its offset in
# the message alone
HOSTILE_TEXTS = [
    pytest.param(" 1 *" * (MAX_EXPR_TOKENS // 2) + " 1", ParseError,
                 'expression with more than 50000 tokens (at offset 100001)', 100001,
                 id='token-cap'),
    pytest.param("1*" * (MAX_EXPR_TOKENS // 2) + "!", ParseError,
                 'expression with more than 50000 tokens (at offset 50000)', 50000,
                 id='token-cap-at-bad-char'),
    pytest.param("2 * " + "7" * (MAX_NUMERAL_DIGITS + 1), ParseError,
                 'numeral with more than 4300 digits in a row (at offset 4)', 4,
                 id='numeral-digits'),
    pytest.param("3/2*1." + "0" * (MAX_NUMERAL_DIGITS + 1), ParseError,
                 'numeral with more than 4300 digits in a row (at offset 4)', 4,
                 id='numeral-fraction-digits'),
    pytest.param("2*table[" + "1, " * MAX_TABLE_ENTRIES + "1] then 1", ParseError,
                 'table with more than 10000 entries (at offset 30006)', 30006,
                 id='table-entries'),
    pytest.param("2^(j) *\n !", ParseError,
                 "unexpected character '!' (at offset 9)", 9,
                 id='unexpected-ascii'),
    pytest.param("2*.5", ParseError,
                 "unexpected character '.' (at offset 2)", 2,
                 id='unexpected-point'),
    pytest.param("1.2.3", ParseError,
                 "unexpected character '.' (at offset 3)", 3,
                 id='unexpected-second-point'),
    pytest.param("(1+j)^\u00b2", ParseError,
                 "unexpected character '\u00b2' (at offset 6)", 6,
                 id='unexpected-superscript'),
    pytest.param("2^(\u0663*j)", ParseError,
                 "unexpected character '\u0663' (at offset 3)", 3,
                 id='unexpected-arabic-digit'),
    pytest.param("# " + "9" * (MAX_NUMERAL_DIGITS + 1), ParseError,
                 "unexpected character '#' (at offset 0)", 0,
                 id='bad-char-before-long-numeral'),
    pytest.param("2*!" + " " * MAX_EXPR_TOKENS + "1", ParseError,
                 "unexpected character '!' (at offset 2)", 2,
                 id='long-text-unexpected'),
    pytest.param("9" * (2 * MAX_EXPR_TOKENS), ParseError,
                 'numeral with more than 4300 digits in a row (at offset 0)', 0,
                 id='long-text-numeral-digits'),
    pytest.param("2^(j", ParseError,
                 "expected ')', found 'end of input' (at offset 4)", 4,
                 id='expect-close'),
    pytest.param("2^(j   ", ParseError,
                 "expected ')', found 'end of input' (at offset 7)", 7,
                 id='expect-close-trailing-space'),
    pytest.param("table[1 then 1", ParseError,
                 "expected ']', found 'then' (at offset 8)", 8,
                 id='expect-bracket'),
    pytest.param("table[1]  2", ParseError,
                 "expected 'then', found '2' (at offset 10)", 10,
                 id='expect-then'),
    pytest.param("pw2(s0 0,s1=1)", ParseError,
                 "expected '=', found '0' (at offset 7)", 7,
                 id='expect-equals'),
    pytest.param("exp(1*log(1+j)^1/2", ParseError,
                 "expected ')', found 'end of input' (at offset 18)", 18,
                 id='expect-close-exp'),
    pytest.param("exp(1*lg(1+j)^1/2)", ParseError,
                 "expected 'log', found 'lg' (at offset 6)", 6,
                 id='expect-log'),
    pytest.param("2^(j*x)", ParseError,
                 "expected number, found 'x' (at offset 5)", 5,
                 id='number-name'),
    pytest.param("(1+j)^", ParseError,
                 "expected number, found 'end of input' (at offset 6)", 6,
                 id='number-end'),
    pytest.param("-", ParseError,
                 "expected number, found 'end of input' (at offset 1)", 1,
                 id='number-minus-end'),
    pytest.param("--2", ParseError,
                 "expected number, found '-' (at offset 1)", 1,
                 id='number-double-minus'),
    pytest.param("3/0", ParseError,
                 'zero denominator (at offset 0)', 0,
                 id='zero-denominator'),
    pytest.param("2^( 1/0*j)", ParseError,
                 'zero denominator (at offset 4)', 4,
                 id='zero-denominator-rate'),
    pytest.param("2 * -3", PositivityError,
                 'constant -3 is not positive (at offset 4)', None,
                 id='positive-constant'),
    pytest.param("0", PositivityError,
                 'constant 0 is not positive (at offset 0)', None,
                 id='positive-zero'),
    pytest.param("  -2^(3)", PositivityError,
                 'constant -2 is not positive (at offset 2)', None,
                 id='positive-linear'),
    pytest.param("0^(1/2)", PositivityError,
                 'constant 0 is not positive (at offset 0)', None,
                 id='positive-linear-zero'),
    pytest.param("2^(j)*sigma", ParseError,
                 "unbound name 'sigma' (at offset 6)", 6,
                 id='unbound-name'),
    pytest.param("a\u00b2", ParseError,
                 "unbound name 'a\u00b2' (at offset 0)", 0,
                 id='unbound-unicode-name'),
    pytest.param("2*)", ParseError,
                 "expected a factor, found ')' (at offset 2)", 2,
                 id='factor-symbol'),
    pytest.param("2*", ParseError,
                 "expected a factor, found 'end of input' (at offset 2)", 2,
                 id='factor-end'),
    pytest.param("", ParseError,
                 "expected a factor, found 'end of input' (at offset 0)", 0,
                 id='factor-empty'),
    pytest.param("   ", ParseError,
                 "expected a factor, found 'end of input' (at offset 3)", 3,
                 id='factor-blank'),
    pytest.param("[1]", ParseError,
                 "expected a factor, found '[' (at offset 0)", 0,
                 id='factor-bracket'),
    pytest.param("(" * 33 + "2" + ")" * 33, DepthError,
                 'expression nesting exceeds limit 32 (at offset 33)', None,
                 id='depth-parentheses'),
    pytest.param("table[1] then " * 33 + "1", DepthError,
                 'expression nesting exceeds limit 32 (at offset 462)', None,
                 id='depth-tables'),
    pytest.param("2*3^(j)", ParseError,
                 'geometric atoms must use a power-of-two base (at offset 2)', 2,
                 id='power-of-two-base'),
    pytest.param("-4^(j)", ParseError,
                 'geometric atoms must use a power-of-two base (at offset 0)', 0,
                 id='power-of-two-base-negative'),
    pytest.param("(1+log(2+j))", ParseError,
                 "expected '1+j' (at offset 7)", 7,
                 id='one-plus-j-first'),
    pytest.param("exp(1*log(1+k)^1/2)", ParseError,
                 "expected '1+j' (at offset 12)", 12,
                 id='one-plus-j-third'),
    pytest.param("(1+log(1+", ParseError,
                 "expected '1+j' (at offset 9)", 9,
                 id='one-plus-j-end'),
    pytest.param("pw2(a=0,s1=1)", ParseError,
                 'pw2 expects parameters s0 and s1 (at offset 4)', 4,
                 id='pw2-name'),
    pytest.param("pw2(s0=0,s0=1) ", ParseError,
                 'pw2 expects parameters s0 and s1 (at offset 15)', 15,
                 id='pw2-missing'),
    pytest.param("pw2(", ParseError,
                 'pw2 expects parameters s0 and s1 (at offset 4)', 4,
                 id='pw2-end'),
    pytest.param("exp(1*log(1+j)^2) ", ParseError,
                 'exp-log exponent must lie strictly between 0 and 1 (at offset 18)', 18,
                 id='exp-kappa'),
    pytest.param("2^(j) 3", ParseError,
                 "unexpected trailing input '3' (at offset 6)", 6,
                 id='trailing'),
    pytest.param("2)", ParseError,
                 "unexpected trailing input ')' (at offset 1)", 1,
                 id='trailing-close'),
    pytest.param("(1+j", ParseError,
                 "expected ')', found '+' (at offset 2)", 2,
                 id='open-one-plus-j'),
]


class TestParsing:
    def test_geometric(self):
        assert parse("2^(j)") == geometric(1)
        assert parse("2^(1/2*j)") == geometric(Fraction(1, 2))
        assert parse("2^(j*3)") == geometric(3)
        assert parse("2^(-2*j)") == geometric(-2)

    def test_power_of_two_bases(self):
        # 4^(j/2) = 2^j and 8^(j/3) = 2^j; 1/2 base flips the sign
        assert parse("4^(1/2*j)") == geometric(1)
        assert parse("8^(1/3*j)") == geometric(1)
        assert parse("1/2^(j)") == geometric(-1)
        with pytest.raises(ParseError):
            parse("3^(j)")
        # p/q is one rational literal, so it is the base: 4/2^(j) is
        # (4/2)^j, and the quotient by 2^(j) needs parentheses
        assert render(parse("4/2^(j)")) == "2^(1*j)"
        assert render(parse("2/2^(j)")) == "1"
        assert render(parse("4/(2^(j))")) == "4 * 2^(-1*j)"
        with pytest.raises(ParseError) as err:
            parse("3/2^(j)")
        assert err.value.offset == 0
        assert "power-of-two base" in str(err.value)

    def test_log_atoms(self):
        assert parse("(1+j)^2") == log_power(2)
        assert parse("(1+j)") == log_power(1)
        assert parse("(1+log(1+j))^-1") == iter_log(-1)
        assert parse("exp(1/2*log(1+j)^1/2)") == exp_log_pow(Fraction(1, 2), Fraction(1, 2))

    def test_exp_kappa_range(self):
        with pytest.raises(ParseError):
            parse("exp(1*log(1+j)^1)")
        with pytest.raises(ParseError):
            parse("exp(1*log(1+j)^3/2)")

    def test_table(self):
        e = parse("table[1,2,4] then 2^(j)")
        assert decompose(e) == geometric(1)
        assert evaluate(e, 0) == 1.0
        assert evaluate(e, 2) == 4.0
        assert evaluate(e, 3) == 8.0  # continuation takes over at its own index
        # equal prefixes, and continuations past render's digit limit
        e = parse("(table[1] then (3)^20000)*(table[1] then (5)^20000)")
        assert [cont.const for _, cont, _ in e.tables] == [3 ** 20000, 5 ** 20000]

    @pytest.mark.parametrize("text, offset", [
        ("0." + "0" * 10**6 + "1", 0),
        ("2^(j) * " + "1" * 10**6, 8),
        ("1." + "0" * (MAX_NUMERAL_DIGITS + 1), 0),
    ], ids=["fraction-part", "whole-part", "one-past-the-cap"])
    def test_numeral_digit_cap(self, text, offset):
        # without the cap Fraction builds 10^(fraction digits) and int()
        # then fails with a bare ValueError
        with pytest.raises(ParseError) as err:
            parse(text)
        assert err.value.offset == offset
        assert f"more than {MAX_NUMERAL_DIGITS} digits" in str(err.value)

    @pytest.mark.parametrize("text, offset", [
        ("2^(j)*\u00b2", 6), ("\u0663", 0), ("2^(\u0663*j)", 3),
    ], ids=["superscript-two", "arabic-indic-three", "arabic-indic-rate"])
    def test_only_ascii_digits(self, text, offset):
        # str.isdigit accepts these, and int() then read them or failed
        # with a bare ValueError
        with pytest.raises(ParseError) as err:
            parse(text)
        assert err.value.offset == offset
        assert "unexpected character" in str(err.value)

    def test_numeral_at_the_digit_cap(self):
        tiny = "0." + "0" * (MAX_NUMERAL_DIGITS - 1) + "1"
        assert parse(tiny) == const(Fraction(1, 10 ** MAX_NUMERAL_DIGITS))

    @pytest.mark.parametrize("extra", [1, 10**6], ids=["one-past-the-cap", "2-MB"])
    def test_table_entry_cap(self, extra):
        # the lexer refuses the comma that starts entry MAX_TABLE_ENTRIES + 1,
        # so a longer prefix costs what one at the cap does
        at_cap = ",".join(["3"] * MAX_TABLE_ENTRIES)
        assert parse(f"table[{at_cap}] then 1").tables[0][0] == \
            (Fraction(3),) * MAX_TABLE_ENTRIES
        with pytest.raises(ParseError) as err:
            parse(f"table[{at_cap}{',3' * extra}] then 1")
        assert err.value.offset == len("table[") + len(at_cap)
        assert f"table with more than {MAX_TABLE_ENTRIES} entries" in str(err.value)

    def test_token_cap(self):
        # a full table prefix of fractions fits, with room to spare; the
        # lexer refuses the token that would pass the cap, at its offset
        prefix = "table[" + ",".join(["3/2"] * MAX_TABLE_ENTRIES) + "] then 1"
        at_cap = prefix + "*1" * ((MAX_EXPR_TOKENS - len(_lex(prefix)) + 1) // 2)
        assert len(_lex(at_cap)) == MAX_EXPR_TOKENS + 1  # and the end token
        assert parse(at_cap).tables[0][0] == (Fraction(3, 2),) * MAX_TABLE_ENTRIES
        with pytest.raises(ParseError) as err:
            parse(at_cap + "*1")
        assert err.value.offset == len(at_cap)
        assert f"expression with more than {MAX_EXPR_TOKENS} tokens" in \
            str(err.value)

    def test_long_product_is_refused_fast(self, monkeypatch):
        # 10^5 factors took 1.9 s to parse without the cap; the lexer stops
        # at the cap and builds no value on the way.  The CPU time of this
        # process is timed, so other processes on the machine are not
        # charged to the parser, and a full collection runs first, so a
        # collection of other tests' objects is not charged to it either.
        built = []
        monkeypatch.setattr(seqdsl, "_num", lambda text: built.append(text))
        text = "*".join(["1"] * 10**5)
        gc.collect()
        t0 = time.process_time()
        with pytest.raises(ParseError) as err:
            parse(text)
        assert time.process_time() - t0 < 0.1
        assert err.value.offset == MAX_EXPR_TOKENS
        assert built == []

    def test_constant_bits_are_capped_in_all(self):
        # 400 roots of distinct constants, each within MAX_CONST_BITS, held
        # 24,358,832 bits of root bases, and parsing their product took over
        # three times as long as reading the factors, most of it sorting the
        # roots; the total is refused before the sort, so refusing the
        # product costs about what reading its factors does
        factors = [f"(({1001 + i}/{1000 + i})^5957)^1/2" for i in range(400)]
        gc.collect()
        t0 = time.process_time()
        for f in factors:
            parse(f)
        t1 = time.process_time()
        with pytest.raises(SequenceError) as err:
            parse("*".join(factors))
        assert time.process_time() - t1 < 2 * (t1 - t0)
        assert str(err.value) == ("constant and roots need 24358833 bits in "
                                  f"all, above the limit of {MAX_CONST_BITS}")

    @pytest.mark.parametrize("text, bits", [
        ("((3)^19000)^1/2*((3)^19000)^1/2", None),
        ("((3)^19000)^1/2*((5)^10000)^1/2", None),
        ("((3)^12000)^1/2*((5)^20000)^1/2/((3)^12000)^1/2", None),
        ("((3)^30000)^1/2*((5)^20000)^1/2", 93989),
        ("((3)^19000)^5/2", 90344),
    ], ids=["folds-whole", "two-roots", "root-cancels", "two-large-roots",
            "root-and-its-whole-part"])
    def test_constant_and_roots_share_the_cap(self, text, bits):
        # the result's constant and root bases together, each of which
        # alone is within the cap; a cancelled root does not count
        if bits is None:
            e = parse(text)
            assert _bits(e.const) + sum(_bits(b) for b, _ in e.roots) <= \
                MAX_CONST_BITS
            return
        with pytest.raises(SequenceError, match=f"need {bits} bits in all, "
                                                f"above the limit of {MAX_CONST_BITS}"):
            parse(text)

    def test_refusal_leaves_nothing_long_lived(self):
        # lexing to the cap must not push its tokens into the oldest
        # generation, or the refusal pays for full collections of the whole
        # process heap; 50,000 tracked tokens used to reach it
        gc.collect()
        base = len(gc.get_objects(generation=2))
        peak = [base]

        def watch(phase, info):
            if phase == "stop" and info["generation"] == 1:
                peak[0] = max(peak[0], len(gc.get_objects(generation=2)))

        gc.callbacks.append(watch)
        try:
            with pytest.raises(ParseError):
                parse("*".join(["1"] * 10**5))
        finally:
            gc.callbacks.remove(watch)
        assert peak[0] < base + 1000

    def test_positivity(self):
        with pytest.raises(PositivityError):
            parse("-2")
        with pytest.raises(SequenceError):
            table([1, 0, 1], geometric(1))

    def test_pw2_constraint(self):
        with pytest.raises(SequenceError):
            pw2(1, 1)
        with pytest.raises(SequenceError):
            pw2(-1, 1)

    def test_nesting_limit(self):
        assert parse("(" * 32 + "2" + ")" * 32) == const(2)
        with pytest.raises(DepthError):
            parse("(" * 33 + "2" + ")" * 33)

    def test_unbound_name(self):
        with pytest.raises(ParseError):
            parse("sigma")

    @pytest.mark.parametrize("text, error, message, offset", HOSTILE_TEXTS)
    def test_hostile_text_errors(self, text, error, message, offset):
        with pytest.raises(error) as err:
            parse(text)
        assert type(err.value) is error
        assert str(err.value) == message
        assert getattr(err.value, "offset", None) == offset

    @given(st.one_of(st.lists(st.sampled_from(_DSL_PIECES), max_size=30),
                     st.lists(st.sampled_from(_DSL_PIECES + _HOSTILE), max_size=30))
           .map("".join))
    def test_scanner_tokens_tile_the_input(self, src):
        try:
            toks = _lex(src)
        except ParseError as err:
            assert 0 <= err.offset < len(src)
            return
        # the offsets come from the rescan that errors use; the end token's
        # is len(src)
        offsets = [_offset(src, k) for k in range(len(toks))]
        assert toks[-1] == "" and offsets[-1] == len(src)
        end = 0
        for text, offset in zip(toks[:-1], offsets):
            assert text and offset >= end  # so offsets strictly increase
            assert src[offset:offset + len(text)] == text
            assert src[end:offset].strip() == ""
            c = text[0]
            assert "0" <= c <= "9" or c.isalpha() or c == "_" or \
                text in "^()[],*/+-=" and len(text) == 1
            end = offset + len(text)
        assert src[end:].strip() == ""

    @given(canonical_exprs())
    def test_render_round_trip(self, triple):
        e, _, _ = triple
        assert parse(render(e)) == e

    @given(oscillating_exprs())
    def test_render_round_trip_pw(self, quad):
        e, _, _, _ = quad
        assert parse(render(e)) == e

    @pytest.mark.parametrize("text", [
        "(3)^20000", "2^({0}*j)*2^({0}*j)".format("9" * MAX_NUMERAL_DIGITS)])
    def test_render_refuses_numerals_parse_refuses(self, text):
        # 3^20000 has 9,543 digits and twice the rate 4,301: Python's own
        # digit limit raised ValueError from str() before
        e = parse(text)
        with pytest.raises(SequenceError, match=f"cannot render a numeral of "
                           f"more than {MAX_NUMERAL_DIGITS} digits"):
            render(e)

    def test_render_prints_numerals_at_the_limit(self):
        e = parse("2^({0}*j)".format("9" * MAX_NUMERAL_DIGITS))
        assert parse(render(e)) == e

    def test_render_checks_digit_runs_in_linear_time(self):
        # the digit check may not restart at every digit of a run, which
        # costs about 10^10 steps on these 4.3 MB
        big = 10 ** (MAX_NUMERAL_DIGITS - 1)
        e = table([big + i for i in range(1000)], const(1))
        t0 = time.perf_counter()
        text = render(e)
        assert time.perf_counter() - t0 < 5.0
        assert text.count(str(big + 999)) == 1


def _cache_state():
    return seqdsl._parse_cached.cache_info()


class TestParseCache:
    """parse reads a short str through a bounded cache and shares its
    result; anything else takes the path it took without the cache."""

    def test_same_text_same_object(self):
        text = "2^(5/7*j)*(1+j)^-3*exp(2*log(1+j)^1/5)*(table[1,2] then 3)"
        assert parse(text) is parse(text)
        assert parse(text) == product(
            geometric(Fraction(5, 7)), log_power(-3), exp_log_pow(2, Fraction(1, 5)),
            table([1, 2], const(3)))

    def test_text_over_the_length_cap_is_not_kept(self):
        text = "2^(11/13*j)".ljust(MAX_CACHED_TEXT + 1)
        before = _cache_state()
        assert parse(text) == geometric(Fraction(11, 13))
        assert parse(text) is not parse(text)
        assert _cache_state() == before
        kept = text[:MAX_CACHED_TEXT]
        assert parse(kept) is parse(kept)

    def test_result_over_the_bit_cap_is_not_kept(self):
        # 2^1023 needs 1,024 bits, 2^1024 one more
        assert parse("(2)^1023") is parse("(2)^1023")
        heavy = "((3)^700)^1/2*(2)^1024"
        before = _cache_state().currsize
        assert parse(heavy) == parse(heavy)
        assert parse(heavy) is not parse(heavy)
        assert _cache_state().currsize == before

    @pytest.mark.parametrize("text, error, offset", [
        ("2^(j)*)", ParseError, 6), ("3^(j)", ParseError, 0),
        ("(" * 40 + "2" + ")" * 40, DepthError, None),
        ("0*2^(j)", PositivityError, None)])
    def test_errors_repeat(self, text, error, offset):
        raised = []
        for _ in range(2):
            with pytest.raises(error) as err:
                parse(text)
            raised.append((str(err.value), getattr(err.value, "offset", None)))
        assert raised[0] == raised[1]
        assert raised[0][1] == offset

    @pytest.mark.parametrize("arg, error", [
        (None, AttributeError), ([], AttributeError), (b"2^(j)", TypeError)])
    def test_non_str_takes_the_uncached_path(self, arg, error):
        # the error is the one parse raised before it had a cache
        before = _cache_state()
        with pytest.raises(error):
            parse(arg)
        assert _cache_state() == before

    def test_str_subclass_is_parsed_uncached(self):
        class Text(str):
            pass

        before = _cache_state()
        assert parse(Text("2^(13/17*j)")) == geometric(Fraction(13, 17))
        assert _cache_state() == before


class TestNormalForm:
    def test_product_is_order_free(self):
        assert parse("pw2(s0=0,s1=1)*pw2(s0=1,s1=2)") == \
            parse("pw2(s0=1,s1=2)*pw2(s0=0,s1=1)")
        assert parse("(1+j)*2^(j)*exp(1*log(1+j)^1/2)") == \
            parse("exp(1*log(1+j)^1/2)*2^(j)*(1+j)")
        # pw2(s0,s1) is 2^(s0*j) * (pw2(s0=0,s1=1))^(s1-s0)
        assert parse("pw2(s0=1,s1=2)") == parse("2^(j)*pw2(s0=0,s1=1)")
        assert parse("pw2(s0=0,s1=1)*pw2(s0=1,s1=3)") == parse("pw2(s0=1,s1=4)")
        assert render(parse("pw2(s0=1,s1=3)")) == "2^(1*j) * (pw2(s0=0,s1=1))^2"

    def test_constant_roots_merge(self):
        e = parse("(3)^1/2 * (3)^1/2")
        assert e == const(3)
        assert render(e) == "3"
        assert render(parse("3^(1/2)*3^(1/4)")) == "(3)^3/4"

    def test_tables_are_order_free(self):
        a = parse("(table[1] then 2^(j))*(table[2] then 1)")
        b = parse("(table[2] then 1)*(table[1] then 2^(j))")
        assert a == b
        assert render(a) == render(b) == "(table[1] then 2^(1*j)) * (table[2] then 1)"
        # equal prefixes: the continuation breaks the tie, field by field
        c = parse("(table[1] then 2^(j))*(table[1] then 1)")
        assert c == parse("(table[1] then 1)*(table[1] then 2^(j))")
        assert render(c) == "(table[1] then 1) * (table[1] then 2^(1*j))"
        assert parse(render(c)) == c

    def test_tables_are_ordered_without_render(self, monkeypatch):
        def refuse(e):
            raise AssertionError("the normal form rendered an expression")

        monkeypatch.setattr(seqdsl, "render", refuse)
        texts = ["(table[1] then 2^(j))", "(table[1] then (3)^1/2*2^(j))",
                 "(table[1] then (table[2] then (1+j)))", "(table[1] then 1)"]
        # _parse reads past parse's cache, so every product is built here
        a = seqdsl._parse("*".join(texts))
        b = seqdsl._parse("*".join(reversed(texts)))
        assert a == b and len(a.tables) == 4
        assert product(a, power(b, Fraction(-1, 2))) == power(a, Fraction(1, 2))
        assert product(*map(seqdsl._parse, reversed(texts))) == a

    @given(st.permutations(FOLD_FACTORS))
    def test_factor_order_is_free(self, factors):
        # FOLD_FACTORS holds two tables with the prefix [1,2], so their
        # continuations decide their order
        e = parse("*".join(factors))
        assert e == parse("*".join(FOLD_FACTORS))
        assert render(e) == render(parse("*".join(FOLD_FACTORS)))
        assert parse(render(e)) == e

    @given(st.lists(st.tuples(small_fractions(0, 2), small_fractions(1, 3).filter(bool),
                              small_fractions(-2, 2)), min_size=1, max_size=4), rates)
    def test_pw2_products_reduce(self, atoms, r):
        # a product of pw2 powers is one geometric factor times one power
        # of pw2(s0=0,s1=1), and its log2 is the sum of the atoms' own
        e = product(geometric(r), *(power(pw2(s0, s0 + g), x) for s0, g, x in atoms))
        assert e == product(geometric(r + sum(x * s0 for s0, g, x in atoms)),
                            power(pw2(0, 1), sum(x * g for s0, g, x in atoms)))

        def pw2_log2(s0, s1, j):  # the block construction of the docstring
            if j == 0:
                return 0
            l = j.bit_length() - 1
            if l % 2 == 0:
                return Fraction(2 * s1 + s0, 3) * 2 ** l + s0 * (j - 2 ** l)
            return Fraction(s1 + 2 * s0, 3) * 2 ** l + s1 * (j - 2 ** l)

        for j in range(65):
            assert log2_value(e, j) == r * j + sum(
                x * pw2_log2(s0, s0 + g, j) for s0, g, x in atoms)

    def test_reciprocal_cancels(self):
        assert parse("pw2(s0=0,s1=1)/pw2(s0=0,s1=1)") == const(1)
        t = "(table[1,2] then 2^(j))"
        assert parse(f"{t}*2^(j)/{t}") == geometric(1)


# exponents p/q, so that a '/' after them divides; the large ones reach
# MAX_CONST_BITS on the constants
fold_exponents = st.one_of(
    small_fractions(-3, 3),
    st.integers(10_000, 45_000).flatmap(
        lambda n: st.sampled_from([Fraction(n), Fraction(-n), Fraction(n, 2)])))


def _outcome(build):
    """The expression build() returns, or the refusal it raises."""
    try:
        return build()
    except SequenceError as exc:
        return type(exc).__name__, str(exc)


def _composed(terms):
    """product(parse(A), parse(B), power(parse(C), -r), ...) of the terms
    (divide, factor text, exponent or None)."""
    xs = []
    for divide, text, r in terms:
        x = parse(text)
        if r is not None:
            x = power(x, r)
        xs.append(power(x, Fraction(-1)) if divide else x)
    return product(*xs)


def _fold_text(terms) -> str:
    text = ""
    for k, (divide, factor, r) in enumerate(terms):
        if k:
            text += "/" if divide else "*"
        text += factor if r is None else f"{factor}^{r.numerator}/{r.denominator}"
    return text


fold_terms = st.lists(st.tuples(st.booleans(), st.sampled_from(FOLD_FACTORS),
                                st.none() | fold_exponents),
                      min_size=1, max_size=5).map(
    lambda ts: [(False,) + ts[0][1:]] + ts[1:])


class TestOnePassFold:
    """parse folds a product's terms with one _combine; the result, and
    the MAX_CONST_BITS refusal, are those of composing product and power
    term by term."""

    @given(fold_terms)
    def test_fold_is_the_composed_product(self, terms):
        assert _outcome(lambda: parse(_fold_text(terms))) == \
            _outcome(lambda: _composed(terms))

    @pytest.mark.parametrize("text, terms", [
        ("(3)^1/2*(12)^1/2", [(False, "(3)", Fraction(1, 2)),
                              (False, "(12)", Fraction(1, 2))]),
        ("(2)^3/2/(2)^1/2", [(False, "(2)", Fraction(3, 2)),
                             (True, "(2)", Fraction(1, 2))]),
        ("(table[1,2] then 2^(j))*(1+j)/(table[1,2] then 2^(j))",
         [(False, "(table[1,2] then 2^(j))", None), (False, "(1+j)", None),
          (True, "(table[1,2] then 2^(j))", None)]),
        ("pw2(s0=0,s1=1)^2/1*2^(j)/pw2(s0=1,s1=2)",
         [(False, "pw2(s0=0,s1=1)", Fraction(2)), (False, "2^(j)", None),
          (True, "pw2(s0=1,s1=2)", None)]),
        ("(2)^25000/1*(2)^25000/1", [(False, "(2)", Fraction(25000))] * 2),
        ("(3)^41344/1", [(False, "(3)", Fraction(41344))]),
        ("(12)/(3)^-30000/1*(3)^1/2",
         [(False, "(12)", None), (True, "(3)", Fraction(-30000)),
          (False, "(3)", Fraction(1, 2))]),
    ], ids=["roots-merge", "roots-cancel", "tables-cancel", "pw2", "near-cap",
            "past-cap", "divided-power"])
    def test_examples(self, text, terms):
        got = _outcome(lambda: parse(text))
        assert got == _outcome(lambda: _composed(terms))
        refused = text in ("(3)^41344/1",)
        assert isinstance(got, tuple) == refused

    def test_roots_fold_into_the_constant(self):
        # roots merge per base, and a whole power folds into the constant
        assert render(parse("(3)^1/2*(12)^1/2")) == "(3)^1/2 * (12)^1/2"
        assert parse("(2)^3/2/(2)^1/2") == const(2)
        assert render(parse("(3)^-1/2*(3)^-1/2*(12)^1/2")) == "1/3 * (12)^1/2"


prefixes = st.lists(st.sampled_from([Fraction(1, 2), Fraction(1), Fraction(3)]),
                    min_size=1, max_size=2).map(tuple)
table_exponents = [Fraction(-1), Fraction(1), Fraction(2)]


@st.composite
def tabled_exprs(draw, depth=2, roots=False):
    """A canonical or pw2 monomial times up to two powered tables, whose
    continuations are drawn the same way (nested up to depth).  roots adds
    non-integer constant powers: a power of 3, and table exponent 1/2,
    which puts a root on the continuation's constant."""
    exponents = table_exponents + [Fraction(1, 2)] * roots
    leaf = st.one_of(canonical_exprs().map(lambda t: t[0]),
                     oscillating_exprs().map(lambda t: t[0]))
    parts = [draw(leaf), const(draw(st.sampled_from([1, 2, Fraction(5, 3)])))]
    if roots:
        parts.append(power(const(3), draw(st.sampled_from([Fraction(1, 2), Fraction(-3, 2)]))))
    cont = leaf if depth == 0 else st.one_of(leaf, tabled_exprs(depth - 1, roots))
    for _ in range(draw(st.integers(0, 2))):
        parts.append(power(table(draw(prefixes), draw(cont)),
                           draw(st.sampled_from(exponents))))
    return product(*parts)


def _partner(a, x, how):
    """b sharing a's tables (equal, so they cancel, or reciprocal) or not."""
    return {"equal": a, "times": product(a, x), "free": x,
            "reciprocal": product(power(a, Fraction(-1)), x)}[how]


def _both_sides(a, b):
    return (decompose(product(power(a, Fraction(-1)), b)),
            product(power(decompose(a), Fraction(-1)), decompose(b)))


ratio_shapes = st.sampled_from(["equal", "times", "reciprocal", "free"])


class TestStripRatio:
    """decompose(a^-1 b) against decompose(a)^-1 decompose(b): a
    problem's criterion and entropy ratio strip the shared weight ratio
    sigma^-1 tau rather than the weights one by one."""

    @given(tabled_exprs(), tabled_exprs(), ratio_shapes)
    def test_identity(self, a, x, how):
        lhs, rhs = _both_sides(a, _partner(a, x, how))
        assert lhs == rhs

    def test_identity_examples(self):
        nested = parse("(table[2] then (table[1/2] then pw2(s0=0,s1=1)*(1+j)))")
        cases = [
            ("(table[1,2] then 2^(j))", "(table[1,2] then 2^(j))"),         # cancel
            ("(table[3] then (1+j))", "(table[3] then (1+j))^-1*2^(j)"),   # reciprocal
            (render(nested), render(power(nested, Fraction(1, 2)))),       # nested
            ("(table[1] then pw2(s0=1,s1=2))^2", "pw2(s0=0,s1=1)"),        # pw2
        ]
        for sa, sb in cases:
            lhs, rhs = _both_sides(parse(sa), parse(sb))
            assert lhs == rhs

    @given(tabled_exprs(depth=1, roots=True), tabled_exprs(depth=1, roots=True),
           ratio_shapes)
    def test_constant_roots_agree_in_value(self, a, x, how):
        # with non-integer constant powers the whole part of every root
        # folds into the constant, so both sides reach one normal form
        # (1/3 * (3)^1/2, never (3)^-1/2)
        lhs, rhs = _both_sides(a, _partner(a, x, how))
        assert lhs == rhs


class TestEvaluation:
    def test_frozen_values(self):
        # hand-computed entries
        assert evaluate(parse("2^(1/2*j)"), 4) == 4.0
        assert evaluate(parse("(1+j)^2"), 3) == 16.0
        assert evaluate(parse("(1+log(1+j))"), 1) == 2.0
        assert evaluate(parse("(1+log(1+j))"), 3) == 3.0
        # exp(c (log2(1+j))^kappa): j=1 gives exp(c)
        v = evaluate(parse("exp(1/2*log(1+j)^1/2)"), 1)
        assert abs(v - math.exp(0.5)) < 1e-12
        assert evaluate(parse("exp(1/2*log(1+j)^1/2)"), 0) == 1.0

    def test_log2_value_exactness(self):
        assert log2_value(parse("2^(2/3*j)"), 5) == Fraction(10, 3)
        assert log2_value(parse("(1+j)^3"), 7) == 9  # (1+7) = 2^3
        assert isinstance(log2_value(parse("(1+j)^3"), 6), float)

    @given(canonical_exprs(), st.integers(min_value=0, max_value=40))
    def test_log2_matches_value(self, triple, j):
        e, _, _ = triple
        lg = log2_value(e, j)
        try:
            v = evaluate(e, j)
        except EvalOverflow:
            assert abs(float(lg)) > 900
            return
        assert v > 0
        assert abs(math.log2(v) - float(lg)) < 1e-9 * max(1.0, abs(float(lg)))

    def test_overflow(self):
        with pytest.raises(EvalOverflow):
            evaluate(geometric(4), 100000)
        with pytest.raises(EvalOverflow):
            evaluate(geometric(-4), 100000)
        assert isinstance(log2_value(geometric(4), 100000), Fraction)


class TestDecomposition:
    @given(canonical_exprs())
    def test_rate_and_log(self, triple):
        e, r, b = triple
        d = decompose(e)
        assert d.rate == r
        assert d.log_exp == b

    def test_power_distributes(self):
        e = power(parse("2^(j)*(1+j)^2"), Fraction(-1, 2))
        d = decompose(e)
        assert d.rate == Fraction(-1, 2)
        assert d.log_exp == -1

    def test_canonicalize_flags(self):
        p = canonicalize(parse("2^(j)*(1+j)^-3"))
        assert p.canonical
        assert p.rate == 1 and p.log_exponent == -3
        assert p.boyd_lower == p.boyd_upper == 1

        posc = canonicalize(pw2(0, 1))
        assert not posc.canonical
        assert posc.boyd_lower == 0 and posc.boyd_upper == 1

    def test_table_blocks_classification(self):
        # the profile is that of the tail: a prefix moves no index
        p = canonicalize(parse("table[1,2] then 2^(j)*(1+j)^-3"))
        assert p == canonicalize(parse("2^(j)*(1+j)^-3"))
        assert p.canonical
        assert p.rate == p.boyd_lower == p.boyd_upper == 1 and p.log_exponent == -3
        posc = canonicalize(parse("table[1] then pw2(s0=0,s1=1)"))
        assert (posc.canonical, posc.rate, posc.boyd_lower, posc.boyd_upper) == \
            (False, None, 0, 1)
