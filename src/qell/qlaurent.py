"""Integer Laurent polynomials in q with rational exponents.

A value is stored over one common denominator: ``den`` is a positive int and
``num`` an ascending tuple of ``(e, c)`` pairs, int exponent numerator ``e``
and nonzero int coefficient ``c``, standing for Σ c·q^{e/den}.  The form is
canonical: ``den`` is the least common denominator, so
gcd(den, e_1, …, e_k) = 1, and zero is ``(1, ())``; equal values have equal
``num``, ``den`` and hash.  Arithmetic puts both operands over the lcm of
their denominators, accumulates on int exponents and reduces once, so no
``Fraction`` is built in ``+``, ``-``, ``*``, ``shift``, ``rescale`` or
``divide_int_exact``; ``terms`` is the reduced ``(Fraction, int)`` view.

No subring bookkeeping is done: the ambient ring is effectively Z[q^Q], and
membership in Z[q^{±1/n}] is a property checked on demand.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .errors import PreconditionError


def _ratio(r) -> tuple[int, int]:
    """(numerator, denominator) of a Fraction-able r, in lowest terms."""
    if not isinstance(r, (int, Fraction)):
        r = Fraction(r)
    return r.numerator, r.denominator


def _raw(den: int, num: tuple) -> "QLaurent":
    """A QLaurent from a form already known to be canonical."""
    f = object.__new__(QLaurent)
    object.__setattr__(f, "den", den)
    object.__setattr__(f, "num", num)
    return f


def _reduced(den: int, num) -> "QLaurent":
    """A QLaurent from ascending nonzero (e, c) pairs over den, at its least den."""
    if den != 1:
        g = gcd(den, *[e for e, _ in num])
        if g != 1:
            den //= g
            num = [(e // g, c) for e, c in num]
    return _raw(den, tuple(num))


def collect(den: int, acc: dict) -> "QLaurent":
    """A QLaurent from an int exponent -> int coefficient dict over den: the
    one reduction that arithmetic here and in ``rotrep`` ends with."""
    return _reduced(den, [t for t in sorted(acc.items()) if t[1]])


def _over_lcm(d1: int, d2: int) -> tuple[int, int, int]:
    """(L, L // d1, L // d2) for L the lcm of two denominators."""
    den = d1 // gcd(d1, d2) * d2
    return den, den // d1, den // d2


def _combine(f: "QLaurent", g: "QLaurent", sign: int) -> "QLaurent":
    """f + sign·g."""
    if not g.num:
        return f
    if not f.num:
        return -g if sign < 0 else g
    den, a, b = _over_lcm(f.den, g.den)
    acc = dict(f.num) if a == 1 else {e * a: c for e, c in f.num}
    for e, c in g.num:
        e *= b
        acc[e] = acc.get(e, 0) + sign * c
    return collect(den, acc)


class QLaurent:
    """Immutable sum of c * q^r terms, r rational, c a nonzero integer."""

    __slots__ = ("den", "num")

    def __init__(self, terms=()):
        items = terms.items() if isinstance(terms, dict) else terms
        pairs = []
        den = 1
        for r, c in items:
            p, s = _ratio(r)
            c = int(c)
            if c:
                pairs.append((p, s, c))
                den = den // gcd(den, s) * s
        acc: dict[int, int] = {}
        for p, s, c in pairs:
            e = p * (den // s)
            acc[e] = acc.get(e, 0) + c
        f = collect(den, acc)
        object.__setattr__(self, "den", f.den)
        object.__setattr__(self, "num", f.num)

    def __setattr__(self, name, value):
        raise AttributeError("QLaurent is immutable")

    @property
    def terms(self) -> tuple[tuple[Fraction, int], ...]:
        """The reduced (exponent, coefficient) pairs, ascending."""
        den = self.den
        return tuple((Fraction(e, den), c) for e, c in self.num)

    def is_zero(self) -> bool:
        return not self.num

    def __bool__(self) -> bool:
        return bool(self.num)

    def __add__(self, other: "QLaurent") -> "QLaurent":
        return _combine(self, other, 1)

    def __neg__(self) -> "QLaurent":
        return _raw(self.den, tuple((e, -c) for e, c in self.num))

    def __sub__(self, other: "QLaurent") -> "QLaurent":
        return _combine(self, other, -1)

    def __mul__(self, other) -> "QLaurent":
        if isinstance(other, int):
            if not other:
                return ZERO
            return _raw(self.den, tuple((e, c * other) for e, c in self.num))
        n1, n2 = self.num, other.num
        if not n1 or not n2:
            return ZERO
        if len(n1) < len(n2):
            n1, n2 = n2, n1
            den, a, b = _over_lcm(other.den, self.den)
        else:
            den, a, b = _over_lcm(self.den, other.den)
        if len(n2) == 1:
            # times a monomial: exponents stay ascending and distinct
            (e0, c0), = n2
            if e0 == 0 and c0 == 1:     # times ONE
                return self if n1 is self.num else other
            e0 *= b
            return _reduced(den, [(e * a + e0, c * c0) for e, c in n1])
        acc: dict[int, int] = {}
        for e1, c1 in n1:
            e1 *= a
            for e2, c2 in n2:
                e = e1 + e2 * b
                acc[e] = acc.get(e, 0) + c1 * c2
        return collect(den, acc)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "QLaurent":
        if n < 0:
            raise PreconditionError("negative power of a QLaurent")
        result = ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def rescale(self, r) -> "QLaurent":
        """Substitute q -> q^r for a positive rational r (a ring map)."""
        p, s = _ratio(r)
        if p <= 0:
            raise PreconditionError("rescale factor must be positive")
        return _reduced(self.den * s, [(e * p, c) for e, c in self.num])

    def shift(self, r) -> "QLaurent":
        """Multiply by q^r."""
        p, s = _ratio(r)
        den, a, b = _over_lcm(self.den, s)
        p *= b
        return _reduced(den, [(e * a + p, c) for e, c in self.num])

    def divide_int_exact(self, k: int) -> "QLaurent":
        """Divide every coefficient by k, which must divide exactly."""
        out = []
        for e, c in self.num:
            if c % k:
                raise PreconditionError(f"coefficient {c} not divisible by {k}")
            out.append((e, c // k))
        return _raw(self.den, tuple(out))

    def at_one(self) -> int:
        """Evaluate at q = 1 (the augmentation)."""
        return sum(c for _, c in self.num)

    def exponents(self) -> list[Fraction]:
        return [r for r, _ in self.terms]

    def in_fractional_ring(self, n: int) -> bool:
        """True if every exponent has denominator dividing n."""
        return n % self.den == 0

    def as_monomial(self) -> tuple[Fraction, int] | None:
        """(exponent, coefficient) if this is a single term, else None."""
        return self.terms[0] if len(self.num) == 1 else None

    def __eq__(self, other) -> bool:
        return (isinstance(other, QLaurent) and self.den == other.den
                and self.num == other.num)

    def __hash__(self) -> int:
        return hash((self.den, self.num))

    def __repr__(self) -> str:
        if not self.num:
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


ZERO = _raw(1, ())
ONE = _raw(1, ((0, 1),))


def monomial(coef: int, exponent) -> QLaurent:
    p, s = _ratio(exponent)
    coef = int(coef)
    return _raw(s, ((p, coef),)) if coef else ZERO


def q_power(exponent) -> QLaurent:
    return monomial(1, exponent)


def serialize(f: QLaurent) -> list[dict]:
    den = f.den
    out = []
    for e, c in f.num:
        g = gcd(e, den)
        out.append({"exp": f"{e // g}/{den // g}", "coef": c})
    return out


def deserialize(data) -> QLaurent:
    """Read serialize's output: "a/b" exponent strings and int coefficients."""
    terms = []
    for item in data:
        exp, coef = item["exp"], item["coef"]
        if not isinstance(exp, str):
            raise TypeError(f"exponent must be a string, got {exp!r}")
        if not isinstance(coef, int) or isinstance(coef, bool):
            raise TypeError(f"coefficient must be an integer, got {coef!r}")
        terms.append((Fraction(exp), coef))
    return QLaurent(terms)
