"""The frozen records: SequenceExpr, EmbeddingProblem, Target, FiniteSection."""

from fractions import Fraction

import pytest

from gsembed import (INF, EmbeddingProblem, FiniteSection, SequenceExpr, Target,
                     parse)
from gsembed import embanalyzer, seqdsl

# a builder per record, with the repr that a dataclass of the same fields
# printed
RECORDS = {
    "SequenceExpr": (
        lambda: SequenceExpr(Fraction(3), rate=Fraction(1, 2), tables=(
            ((Fraction(2),), SequenceExpr(log_exp=Fraction(-1)), Fraction(1)),)),
        "SequenceExpr(const=Fraction(3, 1), roots=(), rate=Fraction(1, 2), "
        "log_exp=Fraction(0, 1), iterlog=Fraction(0, 1), explog=(), "
        "osc=Fraction(0, 1), tables=(((Fraction(2, 1),), SequenceExpr("
        "const=Fraction(1, 1), roots=(), rate=Fraction(0, 1), "
        "log_exp=Fraction(-1, 1), iterlog=Fraction(0, 1), explog=(), "
        "osc=Fraction(0, 1), tables=()), Fraction(1, 1)),))"),
    "EmbeddingProblem": (
        lambda: EmbeddingProblem("2^(j)", "1", 2, "inf", 4, 1, 3, scale="F"),
        "EmbeddingProblem(sigma=SequenceExpr(const=Fraction(1, 1), roots=(), "
        "rate=Fraction(1, 1), log_exp=Fraction(0, 1), iterlog=Fraction(0, 1), "
        "explog=(), osc=Fraction(0, 1), tables=()), tau=SequenceExpr("
        "const=Fraction(1, 1), roots=(), rate=Fraction(0, 1), "
        "log_exp=Fraction(0, 1), iterlog=Fraction(0, 1), explog=(), "
        "osc=Fraction(0, 1), tables=()), p1=Fraction(2, 1), q1=inf, "
        "p2=Fraction(4, 1), q2=Fraction(1, 1), dim=3, scale='F')"),
    "Target": (lambda: Target("ell", Fraction(3, 2)),
               "Target(kind='ell', r=Fraction(3, 2))"),
    "FiniteSection": (
        lambda: FiniteSection([1, 2.5], [1, 3], 2, 1, "4", INF),
        "FiniteSection(beta=(1.0, 2.5), M=(1, 3), p1=Fraction(2, 1), "
        "q1=Fraction(1, 1), p2=Fraction(4, 1), q2=inf)"),
}


@pytest.mark.parametrize("build, text", RECORDS.values(), ids=RECORDS)
def test_twin_is_equal_with_the_same_hash_and_repr(build, text):
    a, b = build(), build()
    assert a is not b
    assert a == b and not a != b and hash(a) == hash(b)
    assert repr(a) == repr(b) == text
    assert len({a, b}) == 1


@pytest.mark.parametrize("build, text", RECORDS.values(), ids=RECORDS)
def test_fields_cannot_be_assigned(build, text):
    record = build()
    name = record._fields[0]
    value = getattr(record, name)
    for other in (name, "extra"):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{other}'"):
            setattr(record, other, value)
        with pytest.raises(AttributeError, match=f"cannot delete field '{other}'"):
            delattr(record, other)
    assert getattr(record, name) is value and record == build()


@pytest.mark.parametrize("build, text", RECORDS.values(), ids=RECORDS)
def test_replace_calls_the_constructor(build, text):
    record = build()
    assert record._replace() == record
    with pytest.raises(TypeError):
        record._replace(no_such_field=1)


def test_replace_validates_again():
    pr = RECORDS["EmbeddingProblem"][0]()
    assert pr._replace(p1="1/2").p1 == Fraction(1, 2)
    assert pr._replace(tau="2^(j)").tau == parse("2^(j)")
    with pytest.raises(ValueError, match="p1 must be positive"):
        pr._replace(p1=0)
    with pytest.raises(ValueError, match="scale must be"):
        pr._replace(scale="X")
    with pytest.raises(ValueError, match="ell target needs an exponent"):
        Target("ell", 2)._replace(r=None)
    assert Target("ell", 2)._replace(kind="c0") == Target("c0", 2)
    s = RECORDS["FiniteSection"][0]()
    with pytest.raises(ValueError, match="block weights must be positive"):
        s._replace(beta=(1.0, 0.0))
    with pytest.raises(ValueError, match="equal length"):
        s._replace(M=(1,))
    e = SequenceExpr(rate=Fraction(2))
    assert e._replace(rate=Fraction(1)) == parse("2^(j)")


def test_replace_starts_with_empty_caches():
    pr = EmbeddingProblem("2^(j)", "(1+j)", 2, 2, 2, 2, 1)
    assert pr.weight_ratio == parse("2^(-1*j)*(1+j)")
    other = pr._replace(tau="1")
    assert "weight_ratio" not in vars(other)
    assert other.weight_ratio == parse("2^(-1*j)") != pr.weight_ratio
    s = FiniteSection((1.0, 2.0), (1, 3), 2, 1, 4, 2)
    t = s._replace(beta=(0.5, 2.0))
    assert s.closed_norm != t.closed_norm
    assert t.closed_norm == FiniteSection((0.5, 2.0), (1, 3), 2, 1, 4, 2).closed_norm
    # a filled cache is no field: equality and hashing ignore it
    assert s == FiniteSection((1.0, 2.0), (1, 3), 2, 1, 4, 2)
    assert hash(pr) == hash(EmbeddingProblem("2^(j)", "(1+j)", 2, 2, 2, 2, 1))


def test_records_equal_no_tuple():
    assert SequenceExpr() != ()
    assert SequenceExpr() != SequenceExpr()._values(SequenceExpr())
    assert Target("c0") != ("c0", None)
    assert (SequenceExpr() == Target("c0")) is False


@pytest.mark.parametrize("cls, doc, missing", [
    (EmbeddingProblem, {"sigma": "1", "tau": "1", "p1": 1, "q1": 1, "p2": 1,
                        "q2": 1}, "dim"),
    (EmbeddingProblem, {"tau": "1", "dim": 1}, "sigma"),
    (FiniteSection, {"beta": [1.0], "M": [1], "p1": 1, "q1": 1, "p2": 1}, "q2"),
])
def test_from_dict_needs_every_required_field(cls, doc, missing):
    with pytest.raises(KeyError) as info:
        cls.from_dict(doc)
    assert info.value.args == (missing,)


def test_from_dict_defaults_and_extra_keys():
    doc = {"sigma": "2^(j)", "tau": "1", "p1": 2, "q1": "inf", "p2": 4, "q2": 1,
           "dim": 3, "comment": "ignored"}
    assert EmbeddingProblem.from_dict(doc).scale == "B"
    assert EmbeddingProblem.from_dict(dict(doc, scale="F")) == \
        RECORDS["EmbeddingProblem"][0]()


def test_cached_property_runs_once_and_keeps_its_value():
    # seqdsl._cached: the getter runs on the first read, its value lands in
    # the instance __dict__, and later reads find it there
    runs = []

    class Probe(seqdsl._Record):
        _fields = ("x",)

        def __init__(self, x):
            self.__dict__["x"] = x

        @seqdsl._cached
        def double(self):
            """Twice x."""
            runs.append(self.x)
            return 2 * self.x

    assert isinstance(Probe.double, seqdsl._cached)
    assert Probe.double.__doc__ == "Twice x."
    p = Probe(3)
    assert "double" not in vars(p)
    assert p.double == 6 and p.double == 6
    assert runs == [3] and vars(p)["double"] == 6
    with pytest.raises(AttributeError, match="cannot assign to field 'double'"):
        p.double = 7
    assert p.double == 6 and p == Probe(3)


def test_records_use_the_lock_free_cached_property():
    for cls, name in ((EmbeddingProblem, "weight_ratio"), (EmbeddingProblem, "inner"),
                      (Target, "r_recip"), (FiniteSection, "closed_norm")):
        assert isinstance(getattr(cls, name), seqdsl._cached), name
    pr = EmbeddingProblem("2^(j)", "1", 2, 2, 4, 4, 1)
    assert pr.outer is vars(pr)["outer"] is embanalyzer._pair(pr.q1, pr.q2)
    with pytest.raises(AttributeError, match="cannot assign to field 'outer'"):
        pr.outer = None
    s = FiniteSection((1.0,), (2,), 2, 2, 4, 4)
    assert s.n == 2 and vars(s)["n"] == 2
