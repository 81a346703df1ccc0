"""Expression language for admissible weight sequences.

A sequence expression denotes a positive sequence (w_j)_{j>=0} built from a
small set of atoms:

    2^(s*j)                  geometric growth, rate s (exact rational)
    (1+j)^b                  power of the index shift
    (1+log(1+j))^b           iterated logarithm, base-2 logs throughout
    exp(a*log(1+j)^kappa)    slowly varying factor, 0 < kappa < 1
    pw2(s0=...,s1=...)       oscillating construction on dyadic blocks
    table[v0,...] then e     finitely many explicit values, then e
    numbers, products, quotients, rational powers

All exponents are kept as exact `fractions.Fraction` values and evaluation
works in log2 space, so membership and index computations downstream never
leave exact arithmetic unless an atom forces a float.

Every expression is stored in one normal form, the monomial `SequenceExpr`:
a constant, irrational constant powers, one exponent per smooth atom, one
exponent of the basic oscillation pw2(s0=0,s1=1), and an exponent map for
the table atoms.  Products and powers add and scale exponents and every
map is sorted, so reordering factors gives an equal expression.
Constants are capped at MAX_CONST_BITS bits, a run of digits in a
numeral at MAX_NUMERAL_DIGITS, a parsed table prefix at MAX_TABLE_ENTRIES
values, and an expression at MAX_EXPR_TOKENS tokens.  decompose, which
replaces table atoms by their continuations, is the one table-stripping
call.

`pw2(s0,s1)` is the block construction with anchors j_l = 2^l: at even
anchors the value is 2^(j*(2*s1+s0)/3), the exponent then grows with slope
s0 until the next anchor, where it equals 2^(j*(s1+2*s0)/3) and continues
with slope s1.  Its upper and lower asymptotic rates are s1 and s0.  Its
log2 is exactly s0*j + (s1-s0) * log2 pw2(s0=0,s1=1)_j, so it is stored and
printed as 2^(s0*j) * (pw2(s0=0,s1=1))^(s1-s0), and equal sequences have
equal normal forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import NamedTuple, Optional, Union

__all__ = [
    "SequenceExpr",
    "SequenceProfile",
    "SequenceError",
    "ParseError",
    "PositivityError",
    "DepthError",
    "EvalOverflow",
    "product",
    "power",
    "geometric",
    "log_power",
    "iter_log",
    "exp_log_pow",
    "pw2",
    "table",
    "const",
    "parse",
    "render",
    "evaluate",
    "log2_value",
    "canonicalize",
    "decompose",
]

MAX_DEPTH = 32

# bit length allowed for the numerator and the denominator of a constant;
# a product or power that could pass it raises SequenceError before the
# integer power is computed
MAX_CONST_BITS = 1 << 16

# most digits in one run of a numeral (its whole part, fractional part or
# denominator): Python's own limit on the digits of an int read from a
# string.  Fraction("0.000...1") builds 10^(fraction digits) before int()
# refuses them, so the parser and embanalyzer.ext refuse longer runs first.
MAX_NUMERAL_DIGITS = 4300

# most values in one table prefix.  A problem file, unlike argv, puts no
# bound on an expression's length, and parse time grows linearly with a
# prefix: about 0.05 s at this cap.  The lexer refuses the comma that
# would start one more value, so input past the cap is never read.
MAX_TABLE_ENTRIES = 10_000

# most tokens in one expression, so that parse time and memory stay bounded
# however long a problem file's expression is.  A table prefix of
# MAX_TABLE_ENTRIES fractions p/q takes 40,004 tokens, which leaves room
# for the rest of the expression.  The lexer refuses the token that would
# pass the cap, so input past it is never read.
MAX_EXPR_TOKENS = 50_000

# log2 magnitudes beyond this cannot be exponentiated into a float
_LOG2_FLOAT_LIMIT = 1000.0

_LOG2_E = 1.0 / math.log(2.0)

_ZERO = Fraction(0)
_ONE = Fraction(1)
_MINUS_ONE = Fraction(-1)


class SequenceError(Exception):
    """Base class for expression-level failures."""


class ParseError(SequenceError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class PositivityError(SequenceError):
    pass


class DepthError(SequenceError):
    pass


class EvalOverflow(SequenceError):
    """Raised when a value cannot be represented as a finite positive float.

    `scale` is +1 when the true value overflows toward +infinity and -1
    when it underflows toward 0; the log2 of the value remains available.
    """

    def __init__(self, scale: int, log2: Union[Fraction, float]):
        side = "+inf" if scale > 0 else "0"
        super().__init__(f"value out of float range (toward {side}, log2={float(log2):.6g})")
        self.scale = scale
        self.log2 = log2


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise TypeError(f"expected exact rational, got {type(x).__name__}")


@dataclass(frozen=True)
class SequenceExpr:
    """A weight sequence as the monomial const * prod (base)^e * 2^(rate*j)
    * (1+j)^log_exp * (1+log(1+j))^iterlog * prod exp(c*log(1+j)^kappa)
    * pw2(0,1)^osc * prod (table[prefix] then continuation)^e.

    The lower-case constructors keep it normal: roots ((base, e), ...) hold
    the fractional parts, in (0, 1), of non-integer constant powers, whose
    whole parts are folded into const, so (3)^-1/2 is 1/3 * (3)^1/2; roots
    and explog ((kappa, c), ...) are sorted; tables
    ((prefix, continuation, e), ...) are sorted by prefix, then by rendered
    continuation; no exponent is zero.  pw2(s0,s1) adds s0 to rate and
    s1 - s0 to osc.
    """

    const: Fraction = _ONE
    roots: tuple = ()
    rate: Fraction = _ZERO
    log_exp: Fraction = _ZERO
    iterlog: Fraction = _ZERO
    explog: tuple = ()
    osc: Fraction = _ZERO
    tables: tuple = ()

    def depth(self) -> int:
        return 1 + max((cont.depth() for _, cont, _ in self.tables), default=0)

    @property
    def rate_interval(self) -> tuple:
        return tuple(sorted((self.rate, self.rate + self.osc)))

    @property
    def sv_nodes(self) -> tuple:
        parts = tuple(exp_log_pow(c, k) for k, c in self.explog)
        if self.iterlog != 0:
            parts = parts + (iter_log(self.iterlog),)
        return parts


# ---------------------------------------------------------------------------
# constructors
#
# The atom constructors check their parameters; product and power merge
# like atoms, fold constants and push rational powers onto exponents.  The
# parser and all internal builders use them, which is what makes the
# parse/render round trip exact.

def geometric(rate) -> SequenceExpr:
    return SequenceExpr(rate=_as_fraction(rate))


def log_power(exponent) -> SequenceExpr:
    return SequenceExpr(log_exp=_as_fraction(exponent))


def iter_log(exponent) -> SequenceExpr:
    return SequenceExpr(iterlog=_as_fraction(exponent))


def exp_log_pow(coeff, kappa) -> SequenceExpr:
    coeff = _as_fraction(coeff)
    if coeff == 0:
        return SequenceExpr()
    kappa = _as_fraction(kappa)
    if not (0 < kappa < 1):
        raise SequenceError("exp-log exponent kappa must lie in (0,1)")
    return SequenceExpr(explog=((kappa, coeff),))


def pw2(s0, s1) -> SequenceExpr:
    s0, s1 = _as_fraction(s0), _as_fraction(s1)
    if not (0 <= s0 < s1):
        raise SequenceError("pw2 requires 0 <= s0 < s1")
    return SequenceExpr(rate=s0, osc=s1 - s0)


def table(prefix, continuation: SequenceExpr) -> SequenceExpr:
    pref = tuple(v if isinstance(v, Fraction) else Fraction(v) for v in prefix)
    if not pref:
        raise SequenceError("table prefix must be nonempty")
    for v in pref:
        if not v > 0:
            raise PositivityError(f"table entry {v} is not positive")
    if 1 + continuation.depth() > MAX_DEPTH:
        raise DepthError("expression nesting exceeds limit")
    return SequenceExpr(tables=((pref, continuation, _ONE),))


def const(value) -> SequenceExpr:
    v = Fraction(value) if isinstance(value, float) else _as_fraction(value)
    if not v > 0:
        raise PositivityError(f"constant {v} is not positive")
    return SequenceExpr(const=v)


def power(base: SequenceExpr, exponent) -> SequenceExpr:
    r = _as_fraction(exponent)
    return base if r == 1 else _combine(((base, r),))


def product(*xs: SequenceExpr) -> SequenceExpr:
    return xs[0] if len(xs) == 1 else _combine((x, _ONE) for x in xs)


def _combine(terms) -> SequenceExpr:
    """Normal form of the product of x^r over (x, r) in terms: exponents
    scale and add, the integer part of every power of a root base folds
    into the constant, zero exponents drop out and atoms are sorted.

    Fraction arithmetic is most of the cost, so none is done with 0 or 1:
    zero exponents are skipped, r = _ONE scales nothing, and every
    accumulator starts at its first contribution."""
    const_ = _ONE
    rate = log_exp = iterlog = osc = _ZERO
    roots: dict = {}
    explog: dict = {}
    tables: dict = {}  # equal tables merge, so a table cancels against its reciprocal
    for x, r in terms:
        one = r is _ONE
        c = x.const
        if c is not _ONE and c != 1:
            if one or r.denominator == 1:
                const_ = _fold_const(const_, c, 1 if one else r.numerator)
            else:
                roots[c] = roots[c] + r if c in roots else r
        for b, e in x.roots:
            if not one:
                e = e * r
            roots[b] = roots[b] + e if b in roots else e
        if x.rate is not _ZERO and x.rate:
            v = x.rate if one else x.rate * r
            rate = v if rate is _ZERO else rate + v
        if x.log_exp is not _ZERO and x.log_exp:
            v = x.log_exp if one else x.log_exp * r
            log_exp = v if log_exp is _ZERO else log_exp + v
        if x.iterlog is not _ZERO and x.iterlog:
            v = x.iterlog if one else x.iterlog * r
            iterlog = v if iterlog is _ZERO else iterlog + v
        for k, coeff in x.explog:
            if not one:
                coeff = coeff * r
            explog[k] = explog[k] + coeff if k in explog else coeff
        if x.osc is not _ZERO and x.osc:
            v = x.osc if one else x.osc * r
            osc = v if osc is _ZERO else osc + v
        for pref, cont, e in x.tables:
            if not one:
                e = e * r
            key = pref, cont
            tables[key] = tables[key] + e if key in tables else e
    kept = []
    for base, expo in sorted(roots.items()):
        # the whole part of every root folds into the constant, so a kept
        # root exponent lies in (0, 1) whatever the grouping of the factors
        whole = expo.numerator // expo.denominator
        if whole:
            const_ = _fold_const(const_, base, whole)
            expo = expo - whole
        if expo:
            kept.append((base, expo))
    tabs = [(pref, cont, e) for (pref, cont), e in tables.items() if e]
    if len(tabs) > 1:
        tabs.sort(key=lambda t: (t[0], render(t[1])))
    return SequenceExpr(
        const_, tuple(kept), rate, log_exp, iterlog,
        tuple(sorted((k, c) for k, c in explog.items() if c)),
        osc, tuple(tabs),
    )


def _bits(q: Fraction) -> int:
    return max(q.numerator.bit_length(), q.denominator.bit_length())


def _fold_const(acc: Fraction, base: Fraction, n: int) -> Fraction:
    """acc * base^n, refused when its numerator or denominator could need
    more than MAX_CONST_BITS bits."""
    need = _bits(acc) + abs(n) * _bits(base)
    if need > MAX_CONST_BITS:
        raise SequenceError(f"constant needs up to {need} bits, above the "
                            f"limit of {MAX_CONST_BITS}")
    if n == 1:
        return base if acc is _ONE else acc * base
    return acc * base ** n


# ---------------------------------------------------------------------------
# evaluation

def _log2_fraction(v: Union[Fraction, int]) -> Union[Fraction, float]:
    """log2 of a positive rational; exact when it is a power of two."""
    num, den = v.numerator, v.denominator
    if num & (num - 1) == 0 and den & (den - 1) == 0:
        return Fraction(num.bit_length() - den.bit_length())
    return math.log2(num) - math.log2(den)


def _add(a, b):
    if a is _ZERO:  # the empty sum; saves a Fraction addition per call
        return b
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return a + b
    return float(a) + float(b)


def _scale(r: Fraction, v):
    return r * v if isinstance(v, Fraction) else float(r) * v


# exponent per unit index of pw2(s0=0,s1=1) at its anchors j_l = 2^l, for
# even and odd l; the slope after an anchor is l % 2
_OSC_ANCHORS = (Fraction(2, 3), Fraction(1, 3))


def _osc_log2(j: int) -> Fraction:
    """log2 of pw2(s0=0,s1=1) at index j."""
    if j == 0:
        return _ZERO
    l = j.bit_length() - 1  # anchor j_l = 2^l <= j < 2^(l+1)
    jl = 1 << l
    return _OSC_ANCHORS[l % 2] * jl + (l % 2) * (j - jl)


def log2_value(e: SequenceExpr, j: int) -> Union[Fraction, float]:
    """log2 of the j-th entry; a Fraction whenever exactly representable.

    Parts are summed in the order render() prints them, so float results
    do not depend on how the expression was built.
    """
    if j < 0:
        raise ValueError("sequence index must be >= 0")
    acc: Union[Fraction, float] = _ZERO if e.const == 1 else _log2_fraction(e.const)
    for base, r in e.roots:
        acc = _add(acc, _scale(r, _log2_fraction(base)))
    if e.rate:
        acc = _add(acc, e.rate * j)
    if e.log_exp or e.iterlog or e.explog:
        lm = _log2_fraction(j + 1)
        if e.log_exp:
            acc = _add(acc, _scale(e.log_exp, lm))
        if e.iterlog:
            inner = _log2_fraction(1 + lm) if isinstance(lm, Fraction) else math.log2(1.0 + lm)
            acc = _add(acc, _scale(e.iterlog, inner))
        for kappa, coeff in e.explog:
            if j > 0:
                acc = _add(acc, float(coeff) * (float(lm) ** float(kappa)) * _LOG2_E)
    if e.osc:
        acc = _add(acc, e.osc * _osc_log2(j))
    for prefix, cont, r in e.tables:
        v = _log2_fraction(prefix[j]) if j < len(prefix) else log2_value(cont, j)
        acc = _add(acc, _scale(r, v))
    return acc


def evaluate(e: SequenceExpr, j: int) -> float:
    """The j-th entry as a float; raises EvalOverflow instead of returning 0/inf."""
    lg = log2_value(e, j)
    x = float(lg)
    if x > _LOG2_FLOAT_LIMIT:
        raise EvalOverflow(+1, lg)
    if x < -_LOG2_FLOAT_LIMIT:
        raise EvalOverflow(-1, lg)
    return 2.0 ** x


# ---------------------------------------------------------------------------
# structure analysis

def decompose(e: SequenceExpr) -> SequenceExpr:
    """The table-free monomial whose rate, log_exp, iterlog, explog and osc
    carry the asymptotic structure of e: every table atom is replaced by
    its continuation.

    Finitely many positive entries never change asymptotic quantities
    (memberships, Boyd indices, equivalence class), so the result carries
    the same tail behaviour.
    """
    if not e.tables:
        return e
    return product(replace(e, tables=()),
                   *(power(decompose(cont), r) for _, cont, r in e.tables))


class SequenceProfile(NamedTuple):
    """Asymptotic summary of an expression.

    rate/log_exponent are exact when known, None otherwise.  Boyd index
    fields hold exact rationals when provable from structure and None when
    only window bracketing applies (see seqcore.boyd_indices).  canonical
    means the expression reduces to geometric x log-power x at most one
    slowly varying atom, in which case both indices equal the rate.
    """

    canonical: bool
    rate: Optional[Fraction]
    log_exponent: Optional[Fraction]
    sv_factor: Optional[SequenceExpr]
    boyd_lower: Optional[Fraction]
    boyd_upper: Optional[Fraction]


def canonicalize(e: SequenceExpr) -> SequenceProfile:
    """Profile of e: rates, log exponent, slowly varying residue, Boyd data.

    Table atoms defer their Boyd indices to window bracketing even though
    the continuation decides them, so that reported exactness always tracks
    what was proven from visible structure.
    """
    if e.tables:
        # finite prefixes do not move any asymptotic quantity, but the
        # profile only reports what the visible structure proves; window
        # bracketing in seqcore recovers index intervals.
        return SequenceProfile(False, None, None, None, None, None)
    sv = e.sv_nodes
    lo, hi = e.rate_interval
    return SequenceProfile(not e.osc and len(sv) <= 1,
                           None if e.osc else e.rate, e.log_exp,
                           product(*sv) if sv else None, lo, hi)


# ---------------------------------------------------------------------------
# rendering

def render(e: SequenceExpr) -> str:
    parts = [] if e.const == 1 else [str(e.const)]
    for base, r in e.roots:
        parts.append(f"({base})^{r}")
    if e.rate:
        parts.append(f"2^({e.rate}*j)")
    if e.log_exp:
        parts.append(f"(1+j)^{e.log_exp}")
    if e.iterlog:
        parts.append(f"(1+log(1+j))^{e.iterlog}")
    for k, c in e.explog:
        parts.append(f"exp({c}*log(1+j)^{k})")
    if e.osc:
        atom = "pw2(s0=0,s1=1)"
        parts.append(atom if e.osc == 1 else f"({atom})^{e.osc}")
    # a lone table prints bare; next to other factors or powered it is
    # parenthesized, since its continuation extends to the end of input
    lone = not parts and len(e.tables) == 1
    for prefix, cont, r in e.tables:
        atom = f"table[{','.join(map(str, prefix))}] then {render(cont)}"
        if r != 1:
            atom = f"({atom})^{r}"
        elif not lone:
            atom = f"({atom})"
        parts.append(atom)
    return " * ".join(parts) if parts else "1"


# ---------------------------------------------------------------------------
# parsing

_SYMBOLS = "^()[],*/+-="


@dataclass
class _Tok:
    kind: str  # NUM NAME SYM END
    text: str
    pos: int

    @property
    def value(self) -> Fraction:
        """A NUM token's value, built where the parser reads it, so that
        lexing up to MAX_EXPR_TOKENS builds no Fraction."""
        text = self.text
        return Fraction(text) if "." in text else Fraction(int(text))

    @property
    def is_one(self) -> bool:
        """A NUM token of value 1, such as 1, 01 or 1.0."""
        return self.text == "1" or self.kind == "NUM" and self.value == 1


def _digits_end(src: str, j: int, start: int) -> int:
    """End of the run of digits at src[j:].  A run longer than
    MAX_NUMERAL_DIGITS is refused at start, the numeral's offset, before
    it is read to its end."""
    run, stop = j, min(len(src), j + MAX_NUMERAL_DIGITS + 1)
    while j < stop and "0" <= src[j] <= "9":
        j += 1
    if j - run > MAX_NUMERAL_DIGITS:
        raise ParseError(f"numeral with more than {MAX_NUMERAL_DIGITS} digits "
                         f"in a row", start)
    return j


def _lex(src: str) -> list:
    # tokens stay plain (kind, text, pos) tuples until the whole input is
    # read: the collector untracks such tuples, so input refused at
    # MAX_EXPR_TOKENS leaves no objects behind for a full collection to scan
    toks = []
    i, n = 0, len(src)
    entries = 0  # values of the table prefix being read; 0 outside one
    while i < n:
        c = src[i]
        if c.isspace():
            i += 1
            continue
        if len(toks) == MAX_EXPR_TOKENS:
            raise ParseError(f"expression with more than {MAX_EXPR_TOKENS} "
                             f"tokens", i)
        if "0" <= c <= "9":
            j = _digits_end(src, i, i)
            if j < n and src[j] == ".":
                j = _digits_end(src, j + 1, i)
            toks.append(("NUM", src[i:j], i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            toks.append(("NAME", src[i:j], i))
            i = j
            continue
        if c in _SYMBOLS:
            if c == "[":
                entries = 1
            elif c == "]":
                entries = 0
            elif c == "," and entries:
                entries += 1
                if entries > MAX_TABLE_ENTRIES:
                    raise ParseError(f"table with more than {MAX_TABLE_ENTRIES} "
                                     f"entries", i)
            toks.append(("SYM", c, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {c!r}", i)
    toks.append(("END", "", n))
    return [_Tok(*t) for t in toks]


class _Parser:
    def __init__(self, toks: list):
        self.toks = toks
        self.i = 0
        self.nesting = 0  # open parentheses and table continuations

    def peek(self, ahead: int = 0) -> _Tok:
        toks, k = self.toks, self.i + ahead
        return toks[k] if k < len(toks) else toks[-1]

    def next(self) -> _Tok:
        t = self.toks[self.i]
        if t.kind != "END":
            self.i += 1
        return t

    def expect(self, text: str, kind: str = "SYM") -> _Tok:
        t = self.next()
        if t.kind != kind or t.text != text:
            raise ParseError(f"expected {text!r}, found {t.text or 'end of input'!r}", t.pos)
        return t

    def at(self, text: str, ahead: int = 0, kind: str = "SYM") -> bool:
        t = self.peek(ahead)
        return t.kind == kind and t.text == text

    # rational := ['-'] NUM ['/' NUM]
    def rational(self) -> Fraction:
        neg = self.at("-")
        if neg:
            self.next()
        t = self.next()
        if t.kind != "NUM":
            raise ParseError(f"expected number, found {t.text or 'end of input'!r}", t.pos)
        # integer numerals stay ints, so that p/q builds one Fraction
        v = t.value if "." in t.text else int(t.text)
        if self.at("/") and self.peek(1).kind == "NUM":
            self.next()
            d = self.next()
            den = d.value if "." in d.text else int(d.text)
            if den == 0:
                raise ParseError("zero denominator", t.pos)
            return Fraction(-v if neg else v, den)
        return Fraction(-v if neg else v)

    # expr := term (('*' | '/') term)*
    def expr(self) -> SequenceExpr:
        """The product of the terms, folded by one _combine."""
        terms = [self.term(False)]
        while self.at("*") or self.at("/"):
            terms.append(self.term(self.next().text == "/"))
        if len(terms) > 1:
            return _combine(terms)
        f, r = terms[0]
        return f if r is _ONE else power(f, r)

    def term(self, divide: bool) -> tuple:
        """(factor, exponent) of a term of a product; a divided term's
        exponent is negated."""
        f = self.factor()
        r = _ONE
        if self.at("^"):
            self.next()
            r = self.rational()
        if f.roots or not (r is _ONE or f.const is _ONE or f.const == 1):
            # a constant raised to r is powered first, as power() powers
            # it, so that MAX_CONST_BITS checks the same values as in
            # product(..., power(power(f, r), -1))
            f = power(f, r)
            return (power(f, _MINUS_ONE) if divide else f), _ONE
        if divide:
            r = _MINUS_ONE if r is _ONE else -r
        return f, r

    def factor(self) -> SequenceExpr:
        t = self.peek()
        if t.kind == "NUM" or self.at("-"):
            pos = t.pos
            base = self.rational()
            # base-2 geometric: 2^( linear )
            if self.at("^") and self.at("(", 1):
                self.next()
                self.next()
                node = self.linear(base, pos)
                self.expect(")")
                return node
            if base <= 0:
                raise PositivityError(f"constant {base} is not positive (at offset {pos})")
            return const(base)
        if t.kind == "NAME":
            if t.text == "table":
                return self.table_form()
            if t.text == "pw2":
                return self.pw2_form()
            if t.text == "exp":
                return self.exp_form()
            raise ParseError(f"unbound name {t.text!r}", t.pos)
        if self.at("("):
            # (1+j)^b | (1+log(1+j))^b | ( expr )
            if self.peek(1).is_one and self.at("+", 2):
                if self.at("j", 3, "NAME") and self.at(")", 4):
                    for _ in range(5):
                        self.next()
                    return log_power(self.opt_exponent())
                if self.at("log", 3, "NAME"):
                    for _ in range(4):  # ( 1 + log
                        self.next()
                    self.expect("(")
                    self.one_plus_j()
                    self.expect(")")
                    self.expect(")")
                    return iter_log(self.opt_exponent())
            self.next()
            inner = self.nested()
            self.expect(")")
            return inner
        raise ParseError(f"expected a factor, found {t.text or 'end of input'!r}", t.pos)

    def nested(self) -> SequenceExpr:
        # checked before descending, so deep input fails with DepthError
        # instead of exhausting the interpreter stack
        self.nesting += 1
        if self.nesting > MAX_DEPTH:
            raise DepthError(f"expression nesting exceeds limit {MAX_DEPTH} "
                             f"(at offset {self.peek().pos})")
        inner = self.expr()
        self.nesting -= 1
        return inner

    def opt_exponent(self) -> Fraction:
        if self.at("^"):
            self.next()
            return self.rational()
        return _ONE

    def dyadic_log2(self, base: Fraction, pos: int) -> int:
        """Exact exponent m with base = 2^m; geometric atoms stay exact
        only for power-of-two bases."""
        num, den = base.numerator, base.denominator
        if base > 0 and den == 1 and num & (num - 1) == 0:
            return num.bit_length() - 1
        if base > 0 and num == 1 and den & (den - 1) == 0:
            return -(den.bit_length() - 1)
        raise ParseError("geometric atoms must use a power-of-two base", pos)

    def one_plus_j(self):
        t = self.next()
        if not t.is_one:
            raise ParseError("expected '1+j'", t.pos)
        self.expect("+")
        tj = self.next()
        if not (tj.kind == "NAME" and tj.text == "j"):
            raise ParseError("expected '1+j'", tj.pos)

    # linear := rational '*' j | j ['*' rational] | rational,  after 'b^('
    def linear(self, base: Fraction, pos: int) -> SequenceExpr:
        if self.at("j", kind="NAME"):
            self.next()
            coeff = _ONE
            if self.at("*"):
                self.next()
                coeff = self.rational()
        else:
            coeff = self.rational()
            if not self.at("*"):
                # constant exponent
                if base <= 0:
                    raise PositivityError(f"constant {base} is not positive "
                                          f"(at offset {pos})")
                return power(const(base), coeff)
            self.next()
            self.expect("j", "NAME")
        m = self.dyadic_log2(base, pos)
        return geometric(coeff if m == 1 else coeff * m)

    def table_form(self) -> SequenceExpr:
        self.expect("table", "NAME")
        self.expect("[")
        vals = [self.rational()]
        while self.at(","):
            self.next()
            vals.append(self.rational())
        self.expect("]")
        self.expect("then", "NAME")
        cont = self.nested()
        return table(vals, cont)

    def pw2_form(self) -> SequenceExpr:
        self.expect("pw2", "NAME")
        self.expect("(")
        params = {}
        for _ in range(2):
            t = self.next()
            if t.kind != "NAME" or t.text not in ("s0", "s1"):
                raise ParseError("pw2 expects parameters s0 and s1", t.pos)
            self.expect("=")
            params[t.text] = self.rational()
            if self.at(","):
                self.next()
        self.expect(")")
        if set(params) != {"s0", "s1"}:
            raise ParseError("pw2 expects parameters s0 and s1", self.peek().pos)
        return pw2(params["s0"], params["s1"])

    def exp_form(self) -> SequenceExpr:
        self.expect("exp", "NAME")
        self.expect("(")
        coeff = self.rational()
        self.expect("*")
        self.expect("log", "NAME")
        self.expect("(")
        self.one_plus_j()
        self.expect(")")
        self.expect("^")
        kappa = self.rational()
        self.expect(")")
        if not (0 < kappa < 1):
            raise ParseError("exp-log exponent must lie strictly between 0 and 1", self.peek().pos)
        return exp_log_pow(coeff, kappa)


def parse(text: str) -> SequenceExpr:
    """Parse the sequence DSL; raises ParseError with a byte offset."""
    p = _Parser(_lex(text))
    e = p.expr()
    tail = p.next()
    if tail.kind != "END":
        raise ParseError(f"unexpected trailing input {tail.text!r}", tail.pos)
    return e
