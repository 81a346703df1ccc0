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
The constant and the root bases of a monomial are capped at
MAX_CONST_BITS bits in all, a run of digits in a numeral at
MAX_NUMERAL_DIGITS, a parsed table prefix at MAX_TABLE_ENTRIES values, and
an expression at MAX_EXPR_TOKENS tokens.  decompose, which replaces table
atoms by their continuations, is the one table-stripping call.  render
refuses a numeral that parse could not read back.

parse scans a text once with one compiled pattern into the texts of its
tokens, and the parser walks that list by index.  No offset is kept per
token: an error rescans the text once to report the offset of its token.

parse keeps the results of the MAX_PARSE_CACHE texts of at most
MAX_CACHED_TEXT characters that it read most recently, and returns the
same object when it reads one of them again, so a sweep that asks about
the same weights over and over reads each text once.  Sharing a result is
safe: a SequenceExpr is a frozen record with no cached property, its
fields are Fractions, ints and tuples, which are immutable, and a text
that raises is not kept, so it raises the same error again.  A result
whose constants need more than MAX_CACHED_BITS bits is not kept either,
which bounds the memory of a full cache.

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
import re
from fractions import Fraction
from functools import lru_cache
from itertools import islice
from operator import attrgetter
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
# integer power is computed.  The constant and the root bases of a
# monomial share it: _combine refuses a result that needs more bits in all
# before it sorts the roots.
MAX_CONST_BITS = 1 << 16

# most digits in one run of a numeral (its whole part, fractional part or
# denominator): Python's own limit on the digits of an int read from a
# string.  Fraction("0.000...1") builds 10^(fraction digits) before int()
# refuses them, so the parser and embanalyzer.ext refuse longer runs first.
# A numeral token holds a run to one digit past the cap at most, so a
# longer run is refused at the numeral's offset, and the lexer reads no
# more than MAX_EXPR_TOKENS characters of the text past that token.
MAX_NUMERAL_DIGITS = 4300

# most values in one table prefix.  A problem file, unlike argv, puts no
# bound on an expression's length, and parse time grows linearly with a
# prefix: about 0.05 s at this cap.  The lexer refuses the comma that
# would start one more value, and reads no more than MAX_EXPR_TOKENS
# characters of the text past it.
MAX_TABLE_ENTRIES = 10_000

# most tokens in one expression, so that parse time and memory stay bounded
# however long a problem file's expression is.  A table prefix of
# MAX_TABLE_ENTRIES fractions p/q takes 40,004 tokens, which leaves room
# for the rest of the expression.  A token holds a character at least, so
# only a longer text can pass the cap; the lexer reads it up to the token
# that would pass the cap, which it refuses, and never past it.
MAX_EXPR_TOKENS = 50_000

# bounds of parse's cache: entries, characters of a kept text, and bits of
# a kept result's constants and root bases in all.  An exact-sweep weight
# has at most 90 characters and 2 bits of constants.  The bit cap keeps out
# short texts such as (3)^32767, whose constant holds about 6 KB, so a full
# cache stays within a few MB (README has the figures).
MAX_PARSE_CACHE = 1024
MAX_CACHED_TEXT = 256
MAX_CACHED_BITS = 1024

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


class _Record:
    """Base of the frozen records SequenceExpr, EmbeddingProblem, Target and
    FiniteSection.  A record names its fields in _fields, in constructor
    order, and its __init__ validates them and writes them to __dict__.
    Equality (same class only), hashing and repr read the fields alone, so
    cached properties stay out of them, and _replace builds a new record
    through the constructor, which validates it again and starts with no
    cached property."""

    __slots__ = ()
    _fields: tuple

    def __init_subclass__(cls):
        cls._values = attrgetter(*cls._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        args = ", ".join(f"{n}={v!r}" for n, v in zip(self._fields, self._values(self)))
        return f"{type(self).__qualname__}({args})"

    def _replace(self, **changes):
        return type(self)(**dict(zip(self._fields, self._values(self)), **changes))


class _cached:
    """A record's cached property: the first read keeps func's value in the
    instance __dict__, with no class-wide lock as in Python 3.11's stdlib."""

    def __init__(self, func):
        self.func, self.name, self.__doc__ = func, func.__name__, func.__doc__

    def __get__(self, obj, cls=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.func(obj)
        return value


class SequenceExpr(_Record):
    """A weight sequence as the monomial const * prod (base)^e * 2^(rate*j)
    * (1+j)^log_exp * (1+log(1+j))^iterlog * prod exp(c*log(1+j)^kappa)
    * pw2(0,1)^osc * prod (table[prefix] then continuation)^e.

    The lower-case constructors keep it normal: roots ((base, e), ...) hold
    the fractional parts, in (0, 1), of non-integer constant powers, whose
    whole parts are folded into const, so (3)^-1/2 is 1/3 * (3)^1/2; roots
    and explog ((kappa, c), ...) are sorted; tables
    ((prefix, continuation, e), ...) are sorted by prefix, then by
    continuation in the order of __lt__; no exponent is zero.  pw2(s0,s1)
    adds s0 to rate and s1 - s0 to osc.
    """

    _fields = ("const", "roots", "rate", "log_exp", "iterlog", "explog",
               "osc", "tables")

    def __init__(self, const: Fraction = _ONE, roots: tuple = (),
                 rate: Fraction = _ZERO, log_exp: Fraction = _ZERO,
                 iterlog: Fraction = _ZERO, explog: tuple = (),
                 osc: Fraction = _ZERO, tables: tuple = ()):
        d = self.__dict__
        d["const"], d["roots"], d["rate"], d["log_exp"] = const, roots, rate, log_exp
        d["iterlog"], d["explog"], d["osc"], d["tables"] = iterlog, explog, osc, tables

    def __lt__(self, other):
        """Field by field, nested tables' continuations too: a total order."""
        if other.__class__ is self.__class__:
            return self._values(self) < self._values(other)
        return NotImplemented

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

    The constant and the root bases of the result need MAX_CONST_BITS
    bits at most in all, which is checked before the roots are sorted, so
    a product of many large roots is refused before its bases are
    compared.  A product without roots pays for no check.

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
    for base, expo in roots.items():
        # the whole part of every root folds into the constant, so a kept
        # root exponent lies in (0, 1) whatever the grouping of the factors
        whole = expo.numerator // expo.denominator
        if whole:
            const_ = _fold_const(const_, base, whole)
            expo = expo - whole
        if expo:
            kept.append((base, expo))
    if kept:
        need = _own_bits(const_, kept)
        if need > MAX_CONST_BITS:
            raise SequenceError(f"constant and roots need {need} bits in all, "
                                f"above the limit of {MAX_CONST_BITS}")
        kept.sort()
    # (prefix, continuation) is a dict key, unique, so e is never compared
    tabs = [(pref, cont, e) for (pref, cont), e in tables.items() if e]
    tabs.sort()
    return SequenceExpr(
        const_, tuple(kept), rate, log_exp, iterlog,
        tuple(sorted((k, c) for k, c in explog.items() if c)),
        osc, tuple(tabs),
    )


def _bits(q: Fraction) -> int:
    return max(q.numerator.bit_length(), q.denominator.bit_length())


def _own_bits(const_: Fraction, roots) -> int:
    """Bits of a constant and of the bases of roots ((base, e), ...)."""
    return _bits(const_) + sum(_bits(b) for b, _ in roots)


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
    return product(e._replace(tables=()),
                   *(power(decompose(cont), r) for _, cont, r in e.tables))


class SequenceProfile(NamedTuple):
    """Asymptotic summary of an expression's tail, its normal form
    decompose(e).

    rate is None when an oscillation leaves two rates; the Boyd indices
    are exact rationals.  canonical means the tail reduces to geometric x
    log-power x at most one slowly varying atom, in which case both
    indices equal the rate.
    """

    canonical: bool
    rate: Optional[Fraction]
    log_exponent: Optional[Fraction]
    sv_factor: Optional[SequenceExpr]
    boyd_lower: Optional[Fraction]
    boyd_upper: Optional[Fraction]


def canonicalize(e: SequenceExpr) -> SequenceProfile:
    """Profile of decompose(e): rates, log exponent, slowly varying residue
    and Boyd indices.  A table prefix moves none of them."""
    d = decompose(e)
    sv = d.sv_nodes
    lo, hi = d.rate_interval
    return SequenceProfile(not d.osc and len(sv) <= 1,
                           None if d.osc else d.rate, d.log_exp,
                           product(*sv) if sv else None, lo, hi)


# ---------------------------------------------------------------------------
# rendering

# a run of digits that parse refuses, as render would print it; the match
# starts only where a run starts, so a run of L digits costs O(L), not O(L^2)
_LONG_NUMERAL = re.compile(r"(?<![0-9])[0-9]{%d}" % (MAX_NUMERAL_DIGITS + 1))


def render(e: SequenceExpr) -> str:
    """e in the DSL, which parse reads back as an equal expression.  A
    numeral of more than MAX_NUMERAL_DIGITS digits, which parse would
    refuse, raises SequenceError."""
    try:
        text = _render(e)
    except ValueError:  # str() of an int past the interpreter's digit limit
        text = None
    if text is None or len(text) > MAX_NUMERAL_DIGITS and _LONG_NUMERAL.search(text):
        raise SequenceError(f"cannot render a numeral of more than "
                            f"{MAX_NUMERAL_DIGITS} digits, which parse could "
                            f"not read back")
    return text


def _render(e: SequenceExpr) -> str:
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

# one token: a numeral of ASCII digits with at most one point, each run of
# digits read to MAX_NUMERAL_DIGITS + 1 at most, a name, or any other
# single character.  A scan skips whitespace between the matches.
_TOKEN = re.compile(r"[0-9]{1,%d}(?:\.[0-9]{0,%d})?|[^\W\d]\w*|\S"
                    % ((MAX_NUMERAL_DIGITS + 1,) * 2))

# first characters of the tokens that _lex passes without a further look:
# an ASCII name, or a symbol other than the ones of a table prefix
_PLAIN = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_^()*/+-=")

# the end token of _lex and what _Parser pads it with: the parser looks
# up to four tokens ahead, and it consumes the end token once at most
# before it returns or raises
_END_PAD = ("",) * 5


def _num(text: str):
    """A numeral's value, an int when it has no point, so that p/q builds
    one Fraction; built where the parser reads it, so that lexing up to
    MAX_EXPR_TOKENS builds no Fraction."""
    return Fraction(text) if "." in text else int(text)


def _is_one(text: str) -> bool:
    """A numeral of value 1, such as 1, 01 or 1.0."""
    return text == "1" or "0" <= text[:1] <= "9" and _num(text) == 1


def _lex(src: str) -> list:
    """The token texts of src from one scan, then the end token "".  A
    token's kind is its first character: an ASCII digit for a numeral, a
    letter or _ for a name, anything else for a symbol.  No offset is kept:
    an error finds the offset of its token by one rescan (_offset).  The
    garbage collector does not track a str, so input refused at
    MAX_EXPR_TOKENS leaves no objects behind for a full collection to scan.

    A token holds one character at least, so a text of at most
    MAX_EXPR_TOKENS characters is read whole, by findall, and checked
    after.  A longer text is checked as it is read, so the scan stops at
    the first token refused, or at the token that would pass the cap."""
    end = len(src.rstrip())  # the scan stops where trailing whitespace starts
    if end <= MAX_EXPR_TOKENS:
        toks = _TOKEN.findall(src, 0, end)
        _check_tokens(src, toks)
    else:
        toks = []
        _check_tokens(src, _read(src, end, toks))
    toks.append("")
    return toks


def _read(src: str, end: int, toks: list):
    """Yield the token texts of src[:end], each appended to toks first;
    the token that would pass MAX_EXPR_TOKENS is refused."""
    for m in _TOKEN.finditer(src, 0, end):
        if len(toks) == MAX_EXPR_TOKENS:
            raise ParseError(f"expression with more than {MAX_EXPR_TOKENS} "
                             f"tokens", m.start())
        toks.append(m[0])
        yield m[0]


def _check_tokens(src: str, texts) -> None:
    """Refuse the first token of texts, the k-th of src, that is an
    unexpected character, a numeral with a run of more than
    MAX_NUMERAL_DIGITS digits, or the comma that would start value
    MAX_TABLE_ENTRIES + 1 of a table prefix."""
    entries = 0  # values of the table prefix being read; 0 outside one
    for k, t in enumerate(texts):
        c = t[0]
        if c in _PLAIN:
            continue
        if "0" <= c <= "9":
            if len(t) > MAX_NUMERAL_DIGITS and \
                    max(map(len, t.split("."))) > MAX_NUMERAL_DIGITS:
                raise ParseError(f"numeral with more than {MAX_NUMERAL_DIGITS} "
                                 f"digits in a row", _offset(src, k))
        elif c == "[":
            entries = 1
        elif c == "]":
            entries = 0
        elif c == ",":
            if entries:
                entries += 1
                if entries > MAX_TABLE_ENTRIES:
                    raise ParseError(f"table with more than {MAX_TABLE_ENTRIES} "
                                     f"entries", _offset(src, k))
        elif not (c.isalpha() or c == "_"):
            raise ParseError(f"unexpected character {c!r}", _offset(src, k))


def _offset(src: str, k: int) -> int:
    """The offset of token k of src, by a rescan that stops there;
    len(src) when src has no token k, as for the end token."""
    m = next(islice(_TOKEN.finditer(src), k, None), None)
    return len(src) if m is None else m.start()


class _Parser:
    """Recursive descent over the token texts of src, walked by index.
    The texts are padded with end tokens, so a lookahead needs no bounds
    check, and an error reports the offset of its token by _offset."""

    def __init__(self, src: str, toks: list):
        self.src = src
        self.toks = toks
        toks.extend(_END_PAD)
        self.i = 0
        self.nesting = 0  # open parentheses and table continuations

    def offset(self, k: int) -> int:
        return _offset(self.src, k)

    def next(self) -> str:
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, text: str) -> None:
        t = self.next()
        if t != text:
            raise ParseError(f"expected {text!r}, found {t or 'end of input'!r}",
                             self.offset(self.i - 1))

    def at(self, text: str, ahead: int = 0) -> bool:
        return self.toks[self.i + ahead] == text

    # rational := ['-'] NUM ['/' NUM]
    def rational(self) -> Fraction:
        neg = self.at("-")
        if neg:
            self.i += 1
        k = self.i
        text = self.next()
        if not "0" <= text[:1] <= "9":
            raise ParseError(f"expected number, found {text or 'end of input'!r}",
                             self.offset(k))
        v = _num(text)
        if self.at("/") and "0" <= self.toks[self.i + 1][:1] <= "9":
            den = _num(self.toks[self.i + 1])
            self.i += 2
            if den == 0:
                raise ParseError("zero denominator", self.offset(k))
            return Fraction(-v if neg else v, den)
        return Fraction(-v if neg else v)

    # expr := term (('*' | '/') term)*
    def expr(self) -> SequenceExpr:
        """The product of the terms, folded by one _combine."""
        terms = [self.term(False)]
        while self.at("*") or self.at("/"):
            terms.append(self.term(self.next() == "/"))
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
            self.i += 1
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
        k = self.i
        text = self.toks[k]
        if "0" <= text[:1] <= "9" or text == "-":
            base = self.rational()
            # base-2 geometric: 2^( linear )
            if self.at("^") and self.at("(", 1):
                self.i += 2
                node = self.linear(base, k)
                self.expect(")")
                return node
            if base <= 0:
                raise PositivityError(f"constant {base} is not positive "
                                      f"(at offset {self.offset(k)})")
            return const(base)
        if text == "table":
            return self.table_form()
        if text == "pw2":
            return self.pw2_form()
        if text == "exp":
            return self.exp_form()
        if text == "(":
            # (1+j)^b | (1+log(1+j))^b | ( expr )
            if _is_one(self.toks[k + 1]) and self.at("+", 2):
                if self.at("j", 3) and self.at(")", 4):
                    self.i += 5
                    return log_power(self.opt_exponent())
                if self.at("log", 3):
                    self.i += 4  # ( 1 + log
                    self.expect("(")
                    self.one_plus_j()
                    self.expect(")")
                    self.expect(")")
                    return iter_log(self.opt_exponent())
            self.i += 1
            inner = self.nested()
            self.expect(")")
            return inner
        if text[:1].isalpha() or text[:1] == "_":
            raise ParseError(f"unbound name {text!r}", self.offset(k))
        raise ParseError(f"expected a factor, found {text or 'end of input'!r}",
                         self.offset(k))

    def nested(self) -> SequenceExpr:
        # checked before descending, so deep input fails with DepthError
        # instead of exhausting the interpreter stack
        self.nesting += 1
        if self.nesting > MAX_DEPTH:
            raise DepthError(f"expression nesting exceeds limit {MAX_DEPTH} "
                             f"(at offset {self.offset(self.i)})")
        inner = self.expr()
        self.nesting -= 1
        return inner

    def opt_exponent(self) -> Fraction:
        if self.at("^"):
            self.i += 1
            return self.rational()
        return _ONE

    def dyadic_log2(self, base: Fraction, k: int) -> int:
        """Exact exponent m with base = 2^m; geometric atoms stay exact
        only for power-of-two bases.  k is the index of the base's token."""
        num, den = base.numerator, base.denominator
        if base > 0 and den == 1 and num & (num - 1) == 0:
            return num.bit_length() - 1
        if base > 0 and num == 1 and den & (den - 1) == 0:
            return -(den.bit_length() - 1)
        raise ParseError("geometric atoms must use a power-of-two base",
                         self.offset(k))

    def one_plus_j(self):
        if not _is_one(self.next()):
            raise ParseError("expected '1+j'", self.offset(self.i - 1))
        self.expect("+")
        if self.next() != "j":
            raise ParseError("expected '1+j'", self.offset(self.i - 1))

    # linear := rational '*' j | j ['*' rational] | rational,  after 'b^('
    def linear(self, base: Fraction, k: int) -> SequenceExpr:
        """The atom b^(linear) of the base b whose token has index k."""
        if self.at("j"):
            self.i += 1
            coeff = _ONE
            if self.at("*"):
                self.i += 1
                coeff = self.rational()
        else:
            coeff = self.rational()
            if not self.at("*"):
                # constant exponent
                if base <= 0:
                    raise PositivityError(f"constant {base} is not positive "
                                          f"(at offset {self.offset(k)})")
                return power(const(base), coeff)
            self.i += 1
            self.expect("j")
        m = self.dyadic_log2(base, k)
        return geometric(coeff if m == 1 else coeff * m)

    def table_form(self) -> SequenceExpr:
        self.expect("table")
        self.expect("[")
        vals = [self.rational()]
        while self.at(","):
            self.i += 1
            vals.append(self.rational())
        self.expect("]")
        self.expect("then")
        cont = self.nested()
        return table(vals, cont)

    def pw2_form(self) -> SequenceExpr:
        self.expect("pw2")
        self.expect("(")
        params = {}
        for _ in range(2):
            name = self.next()
            if name not in ("s0", "s1"):
                raise ParseError("pw2 expects parameters s0 and s1",
                                 self.offset(self.i - 1))
            self.expect("=")
            params[name] = self.rational()
            if self.at(","):
                self.i += 1
        self.expect(")")
        if set(params) != {"s0", "s1"}:
            raise ParseError("pw2 expects parameters s0 and s1",
                             self.offset(self.i))
        return pw2(params["s0"], params["s1"])

    def exp_form(self) -> SequenceExpr:
        self.expect("exp")
        self.expect("(")
        coeff = self.rational()
        self.expect("*")
        self.expect("log")
        self.expect("(")
        self.one_plus_j()
        self.expect(")")
        self.expect("^")
        kappa = self.rational()
        self.expect(")")
        if not (0 < kappa < 1):
            raise ParseError("exp-log exponent must lie strictly between 0 and 1",
                             self.offset(self.i))
        return exp_log_pow(coeff, kappa)


def parse(text: str) -> SequenceExpr:
    """Parse the sequence DSL; raises ParseError with a byte offset.

    A str of at most MAX_CACHED_TEXT characters goes through a cache of
    the MAX_PARSE_CACHE texts read most recently, so reading it again
    returns the same expression object, unless its constants need more
    than MAX_CACHED_BITS bits.  Any other argument is parsed every time.
    Either way a text raises what the parser raises."""
    if type(text) is str and len(text) <= MAX_CACHED_TEXT:
        try:
            return _parse_cached(text)
        except _Unkept as big:
            return big.args[0]
    return _parse(text)


def _parse(text: str) -> SequenceExpr:
    p = _Parser(text, _lex(text))
    e = p.expr()
    rest = p.next()
    if rest:
        raise ParseError(f"unexpected trailing input {rest!r}", p.offset(p.i - 1))
    return e


class _Unkept(Exception):
    """Carries a parse result past the cache, which keeps no call that
    raises."""


def _const_bits(e: SequenceExpr) -> int:
    """Bits of the constant and root bases of e and of its continuations."""
    return (_own_bits(e.const, e.roots)
            + sum(_const_bits(cont) for _, cont, _ in e.tables))


def _parse_kept(text: str) -> SequenceExpr:
    """_parse(text), raising _Unkept with the result when its constants
    need more than MAX_CACHED_BITS bits."""
    e = _parse(text)
    if _const_bits(e) > MAX_CACHED_BITS:
        raise _Unkept(e)
    return e


_parse_cached = lru_cache(maxsize=MAX_PARSE_CACHE)(_parse_kept)
