"""Ring axioms and serialization of sparse rational-exponent Laurent sums."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qell import qlaurent
from qell.errors import PreconditionError
from qell.qlaurent import ONE, QLaurent, ZERO, monomial, q_power

exponents = st.fractions(
    min_value=-4, max_value=4, max_denominator=6)
terms = st.lists(st.tuples(exponents, st.integers(-9, 9)), max_size=5)
polys = terms.map(QLaurent)


def test_monomial_examples():
    assert q_power("1/2") * q_power("1/2") == q_power(1)
    assert (q_power(1) + ONE) * (q_power(1) - ONE) == q_power(2) - ONE
    assert (ZERO * q_power(3)).terms == ()


def test_zero_coefficients_dropped():
    f = QLaurent([(1, 2), (1, -2), (0, 5)])
    assert f == monomial(5, 0)
    assert all(c != 0 for _, c in f.terms)


def test_exponents_stored_reduced():
    f = QLaurent([(Fraction(2, 4), 1)])
    (r, _), = f.terms
    assert (r.numerator, r.denominator) == (1, 2)


@given(polys, polys, polys)
@settings(max_examples=200, deadline=None)
def test_ring_axioms(f, g, h):
    assert f + g == g + f
    assert f * g == g * f
    assert (f + g) + h == f + (g + h)
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert f * ONE == f
    assert f + ZERO == f
    assert f - f == ZERO


@given(polys, polys)
@settings(max_examples=100, deadline=None)
def test_rescale_is_ring_map(f, g):
    r = Fraction(1, 2)
    assert (f * g).rescale(r) == f.rescale(r) * g.rescale(r)
    assert (f + g).rescale(r) == f.rescale(r) + g.rescale(r)


@given(polys)
@settings(max_examples=100, deadline=None)
def test_rescale_inverse(f):
    assert f.rescale(Fraction(1, 3)).rescale(3) == f
    assert f.rescale(1) == f


def test_rescale_examples():
    f = q_power(2) + q_power(-1)
    assert f.rescale(Fraction(1, 2)) == q_power(1) + q_power("-1/2")


def test_rescale_rejects_nonpositive():
    with pytest.raises(PreconditionError):
        ONE.rescale(0)
    with pytest.raises(PreconditionError):
        ONE.rescale(-1)


@given(polys)
@settings(max_examples=100, deadline=None)
def test_serialization_round_trip(f):
    data = qlaurent.serialize(f)
    assert qlaurent.deserialize(data) == f
    exps = [item["exp"] for item in data]
    assert exps == sorted(exps, key=Fraction)
    for item in data:
        num, den = item["exp"].split("/")
        assert Fraction(int(num), int(den)) == Fraction(item["exp"])


def test_divide_int_exact():
    f = monomial(6, 1) + monomial(-9, 0)
    assert f.divide_int_exact(3) == monomial(2, 1) + monomial(-3, 0)
    with pytest.raises(PreconditionError):
        f.divide_int_exact(4)


def test_in_fractional_ring():
    f = q_power("1/2") + q_power(2)
    assert f.in_fractional_ring(2)
    assert f.in_fractional_ring(4)
    assert not f.in_fractional_ring(3)


# ---------------------------------------------------------------------------
# the common-denominator representation against a Fraction-keyed oracle

class FractionLaurent:
    """The Fraction-keyed representation QLaurent used to have, as an oracle."""

    def __init__(self, terms=()):
        acc = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for r, c in items:
            r = Fraction(r)
            c = int(c)
            if c:
                acc[r] = acc.get(r, 0) + c
                if not acc[r]:
                    del acc[r]
        self.terms = tuple(sorted(acc.items()))

    def __add__(self, other):
        return FractionLaurent(self.terms + other.terms)

    def __neg__(self):
        return FractionLaurent(tuple((r, -c) for r, c in self.terms))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return FractionLaurent(tuple((r, c * other) for r, c in self.terms))
        out = {}
        for r1, c1 in self.terms:
            for r2, c2 in other.terms:
                out[r1 + r2] = out.get(r1 + r2, 0) + c1 * c2
        return FractionLaurent(out)

    def rescale(self, r):
        return FractionLaurent(tuple((e * Fraction(r), c) for e, c in self.terms))

    def shift(self, r):
        return FractionLaurent(tuple((e + Fraction(r), c) for e, c in self.terms))

    def divide_int_exact(self, k):
        out = []
        for r, c in self.terms:
            if c % k:
                raise PreconditionError(f"coefficient {c} not divisible by {k}")
            out.append((r, c // k))
        return FractionLaurent(tuple(out))

    def at_one(self):
        return sum(c for _, c in self.terms)

    def in_fractional_ring(self, n):
        return all(n % r.denominator == 0 for r, _ in self.terms)

    def as_monomial(self):
        return self.terms[0] if len(self.terms) == 1 else None

    def serialize(self):
        return [{"exp": f"{r.numerator}/{r.denominator}", "coef": c} for r, c in self.terms]

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for r, c in reversed(self.terms):
            if r == 0:
                body = str(abs(c))
            else:
                e = str(r) if r.denominator == 1 else f"{{{r}}}"
                head = "q" if e == "1" else f"q^{e}"
                body = head if abs(c) == 1 else f"{abs(c)}*{head}"
            parts.append(("- " if c < 0 else "+ ") + body)
        text = " ".join(parts)
        return text[2:] if text.startswith("+ ") else "-" + text[2:]


fine_exponents = st.fractions(min_value=-4, max_value=4, max_denominator=12)
fine_terms = st.lists(st.tuples(fine_exponents, st.integers(-9, 9)), max_size=6)
factors = st.fractions(min_value=Fraction(1, 12), max_value=4, max_denominator=12)


def _same(new, old):
    """Equal as values, and every read-out of the new form agrees with the oracle."""
    assert new.terms == old.terms
    assert repr(new) == repr(old)
    assert qlaurent.serialize(new) == old.serialize()
    assert new.at_one() == old.at_one()
    assert new.as_monomial() == old.as_monomial()
    assert new.exponents() == [r for r, _ in old.terms]
    assert all(new.in_fractional_ring(n) == old.in_fractional_ring(n) for n in range(1, 25))
    assert new == QLaurent(old.terms) and hash(new) == hash(QLaurent(old.terms))


@given(fine_terms, fine_terms, fine_exponents, factors, st.integers(-3, 3),
       st.integers(1, 4))
@settings(max_examples=150, deadline=None)
def test_common_denominator_matches_fraction_oracle(t1, t2, r, s, m, k):
    f, g = QLaurent(t1), QLaurent(t2)
    F, G = FractionLaurent(t1), FractionLaurent(t2)
    _same(f, F)
    _same(f + g, F + G)
    _same(f - g, F - G)
    _same(f * g, F * G)
    _same(-f, -F)
    _same(f * m, F * m)
    _same(m * f, F * m)
    _same(f.shift(r), F.shift(r))
    _same(f.rescale(s), F.rescale(s))
    _same((f * k).divide_int_exact(k), (F * k).divide_int_exact(k))
    try:
        expected = F.divide_int_exact(k + 1)
    except PreconditionError as exc:
        with pytest.raises(PreconditionError, match=str(exc)):
            f.divide_int_exact(k + 1)
    else:
        _same(f.divide_int_exact(k + 1), expected)


def _canonical(f):
    exps = [e for e, _ in f.num]
    assert f.den >= 1 and gcd(f.den, *exps) == 1
    assert exps == sorted(set(exps)) and all(c for _, c in f.num)
    assert f or f.den == 1


def test_canonical_form_has_the_least_denominator():
    half = q_power("1/2")
    assert QLaurent([("2/4", 1)]) == half and (QLaurent([("2/4", 1)]).den, half.den) == (2, 2)
    assert q_power("1/4") * q_power("1/4") == half
    assert hash(q_power("1/4") * q_power("1/4")) == hash(half)
    f = q_power("1/2") + monomial(3, -2)
    for g in (f.shift("1/3").shift("-1/3"), f.rescale(2).rescale("1/2"),
              (f + q_power("1/6")) - q_power("1/6")):
        assert g == f and hash(g) == hash(f) and (g.den, g.num) == (2, ((-4, 3), (1, 1)))
    assert (half - half).den == 1 and half - half == ZERO
    assert ((half + ONE) - half).den == 1 and hash((half + ONE) - half) == hash(ONE)
    assert (ZERO.den, ZERO.num) == (1, ()) and (ONE.den, ONE.num) == (1, ((0, 1),))


@given(fine_terms, fine_terms, fine_exponents, factors)
@settings(max_examples=100, deadline=None)
def test_every_result_is_canonical(t1, t2, r, s):
    f, g = QLaurent(t1), QLaurent(t2)
    for h in (f, f + g, f - g, f * g, -f, f.shift(r), f.rescale(s), f * 0, f ** 2):
        _canonical(h)
        assert h == QLaurent(h.terms) and hash(h) == hash(QLaurent(h.terms))
