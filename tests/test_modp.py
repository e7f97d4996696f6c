"""Polynomials over F_p: powers modulo h and the roots of split polynomials."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from qell import modp

P = 1_036_829                      # the least prime above 2·720², as for S6
_coeffs = st.lists(st.integers(0, P - 1), max_size=6)


def _times_linear(f, r):
    """f·(x - r) over F_P."""
    return [((f[i - 1] if i else 0) - r * (f[i] if i < len(f) else 0)) % P
            for i in range(len(f) + 1)]


@settings(max_examples=100, deadline=None)
@given(_coeffs, st.integers(0, 40), _coeffs, st.integers(1, P - 1))
def test_poly_powmod_is_the_repeated_product(f, e, low, lead):
    h = low + [lead]
    expected = [1] if e == 0 else modp.poly_rem(f, h, P)
    for _ in range(e - 1):
        expected = modp.poly_mulmod(expected, f, h, P)
    assert modp.poly_powmod(f, e, h, P) == expected


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, P - 1), min_size=1, max_size=8), st.integers(0, 2 ** 32))
def test_distinct_roots_of_a_split_polynomial(roots, seed):
    f = [1]
    for r in roots:
        f = _times_linear(f, r)
    assert modp.distinct_roots(f, P, random.Random(seed)) == sorted(set(roots))
