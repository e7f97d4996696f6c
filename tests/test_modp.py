"""F_p routines: powers modulo h, roots of polynomials, characteristic polynomials."""

import random

import pytest
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


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 119), st.data(), st.integers(0, 2 ** 32))
def test_integer_roots_match_the_search(bound, data, seed):
    """A product of distinct linear factors whose roots are integers in
    [-bound, bound]: evaluating it at those integers (the ``bound`` path,
    taken at every degree >= 3 while 2·bound + 1 <= 4·3·log2 P) finds the
    roots the search finds."""
    roots = data.draw(st.lists(st.integers(-bound, bound), min_size=3, max_size=10,
                               unique=True))
    f = [1]
    for r in roots:
        f = _times_linear(f, r % P)
    expected = sorted(r % P for r in roots)
    assert modp._integer_roots(f, P, bound) == expected
    assert modp.distinct_roots(f, P, random.Random(seed), bound) == expected
    assert modp.distinct_roots(f, P, random.Random(seed)) == expected


# -- distinct_roots against a brute-force root set over small primes -----------

SMALL_PRIMES = (2, 3, 5, 7, 13)


def _poly_mul(f, g, p):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = (out[i + j] + a * b) % p
    return out


def _brute_force_roots(f, p):
    return [x for x in range(p) if sum(c * pow(x, i, p) for i, c in enumerate(f)) % p == 0]


def _from_factors(p, factors):
    """The product of the given factors over F_p, each a coefficient list."""
    f = [1]
    for g in factors:
        f = _poly_mul(f, g, p)
    return f


@pytest.mark.parametrize("p, factors, roots", [
    (7, [[1, 0, 1]], []),                                  # x² + 1: -1 is no square mod 7
    (13, [[-3, 1], [-3, 1]], [3]),                         # a repeated root
    (13, [[-3, 1], [-5, 1]], [3, 5]),                      # two roots
    (5, [[-2, 1]] * 9 + [[-4, 1]] * 3, [2, 4]),            # multiplicities past p
    (P, [[-2, 1]] * 9 + [[-4, 1]] * 3, [2, 4]),
    (5, [[-1, 1]] * 5 + [[-2, 1]], [1, 2]),                # (x-1)^p has derivative 0
    (7, [[1, 0, 1], [1, 0, 1], [0, 1]], [0]),              # no square factor's roots
], ids=["quadratic-no-root", "repeated-root", "two-roots", "high-multiplicity",
        "high-multiplicity-large-p", "pth-power", "square-of-irreducible"])
def test_distinct_roots_cases(p, factors, roots):
    f = _from_factors(p, [[c % p for c in g] for g in factors])
    if p < 100:
        assert _brute_force_roots(f, p) == roots
    assert modp.distinct_roots(f, p, random.Random(0)) == roots


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(SMALL_PRIMES),
       st.lists(st.tuples(st.integers(0, 12), st.integers(1, 9)), max_size=4),
       st.lists(st.integers(0, 12), min_size=3, max_size=3),
       st.integers(0, 2 ** 32))
def test_distinct_roots_match_brute_force(p, linear, quadratic, seed):
    """Products of powers of linear factors and of one monic quadratic, which
    may have no root, over a small prime."""
    factors = [[-r % p, 1] for r, m in linear for _ in range(m)]
    factors.append([quadratic[0] % p, quadratic[1] % p, 1])
    f = _from_factors(p, factors)
    assert modp.distinct_roots(f, p, random.Random(seed)) == _brute_force_roots(f, p)


# -- charpoly against Faddeev-LeVerrier over the integers ----------------------

def faddeev_leverrier(A):
    """det(x - A) of an integer matrix over Z, low degree first.

    M_k = A·M_{k-1} + c_{n-k+1}·I and c_{n-k} = -tr(A·M_k)/k, exactly in Z.
    """
    n = len(A)
    coeffs = [0] * n + [1]
    M = [[0] * n for _ in range(n)]
    for k in range(1, n + 1):
        M = [[sum(A[i][t] * M[t][j] for t in range(n)) + (coeffs[n - k + 1] if i == j else 0)
              for j in range(n)] for i in range(n)]
        AM = [[sum(A[i][t] * M[t][j] for t in range(n)) for j in range(n)] for i in range(n)]
        trace = sum(AM[i][i] for i in range(n))
        assert trace % k == 0
        coeffs[n - k] = -trace // k
    return coeffs


SHAPES = ("full", "singular", "upper", "lower", "zero-subdiagonal")


@st.composite
def shaped_matrices(draw):
    """n×n matrices, n <= 11, full or singular, triangular, or with a zero
    subdiagonal; entries either anywhere below P or from {0, 1, 2, P-1}, so
    that pivots vanish and eigenvalues repeat."""
    n = draw(st.integers(0, 11))
    entries = draw(st.sampled_from([st.integers(0, P - 1), st.sampled_from([0, 1, 2, P - 1])]))
    A = [[draw(entries) for _ in range(n)] for _ in range(n)]
    shape = draw(st.sampled_from(SHAPES))
    for i in range(n):
        for j in range(n):
            if ((shape == "upper" and i > j) or (shape == "lower" and i < j)
                    or (shape == "zero-subdiagonal" and i == j + 1)):
                A[i][j] = 0
    if shape == "singular" and n:
        A[-1] = [sum(row[j] for row in A[:-1]) % P for j in range(n)]   # the others' sum
    return A


@settings(max_examples=200, deadline=None)
@given(shaped_matrices(), st.sampled_from((P,) + SMALL_PRIMES))
def test_charpoly_matches_faddeev_leverrier(A, p):
    """Hessenberg over F_p is the integer charpoly reduced mod p, also for
    p <= n, where Faddeev-LeVerrier over F_p would divide by zero."""
    expected = [c % p for c in faddeev_leverrier(A)]
    assert modp.charpoly([[x % p for x in row] for row in A], p) == expected


# -- eigenspaces from the Hessenberg form against nullspaces of (A - λ)ᵀ --------

EIGEN_SHAPES = ("entries", "diagonal", "block-diagonal", "zero")


@st.composite
def eigen_matrices(draw):
    """(A, p): an n×n matrix over a small prime, n <= 8: entries anywhere, or
    diagonal with repeated entries, or a block repeated down the diagonal
    (a Hessenberg form with zero subdiagonal entries), or zero."""
    p = draw(st.sampled_from(SMALL_PRIMES))
    n = draw(st.integers(1, 8))
    shape = draw(st.sampled_from(EIGEN_SHAPES))
    entries = st.integers(0, p - 1)
    A = [[0] * n for _ in range(n)]
    if shape == "entries":
        A = [[draw(entries) for _ in range(n)] for _ in range(n)]
    elif shape == "diagonal":
        values = draw(st.lists(entries, min_size=1, max_size=3))
        for i in range(n):
            A[i][i] = values[draw(st.integers(0, len(values) - 1))]
    elif shape == "block-diagonal":
        b = draw(st.integers(1, 3))
        block = [[draw(entries) for _ in range(b)] for _ in range(b)]
        for i in range(n - n % b):
            for j in range(i - i % b, i - i % b + b):
                A[i][j] = block[i % b][j % b]
    return A, p


@settings(max_examples=300, deadline=None)
@given(eigen_matrices())
def test_left_eigenspace_matches_the_nullspace_of_the_transpose(Ap):
    """For every λ in F_p, roots of the characteristic polynomial and not,
    the eigenspace read from the Hessenberg form has the RREF of
    {y : y·(A - λ) = 0}, found as a nullspace of the transpose."""
    A, p = Ap
    n = len(A)
    H, steps = modp.hessenberg(A, p)
    assert all(H[i][j] == 0 for i in range(n) for j in range(i - 1))
    assert modp.hessenberg_charpoly(H, p) == modp.charpoly(A, p)
    roots = set(_brute_force_roots(modp.charpoly(A, p), p))
    for lam in range(p):
        ys = modp.left_eigenspace(H, steps, lam, p)
        AT = [[(A[r][c] - (lam if r == c else 0)) % p for r in range(n)] for c in range(n)]
        assert modp.rref(ys, p) == modp.rref(modp.nullspace(AT, p), p)
        assert bool(ys) is (lam in roots)
