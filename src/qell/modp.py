"""Prime-field arithmetic: primes, roots of unity, and F_p linear algebra.

Everything the character-table machinery needs from number theory lives here:
deterministic Miller-Rabin, prime search in an arithmetic progression,
primitive roots, Tonelli-Shanks square roots, and small dense matrix /
polynomial routines over F_p (row reduction, characteristic polynomial,
root extraction of fully split polynomials).
"""

from __future__ import annotations

import random

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_in_progression(modulus: int, floor: int) -> int:
    """Least prime p with p ≡ 1 (mod modulus) and p > floor."""
    p = floor - (floor % modulus) + 1
    if p <= floor:
        p += modulus
    while not is_prime(p):
        p += modulus
    return p


def factorize(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def primitive_root(p: int) -> int:
    if p == 2:
        return 1
    phi = p - 1
    primes = list(factorize(phi))
    g = 2
    while True:
        if all(pow(g, phi // q, p) != 1 for q in primes):
            return g
        g += 1


def sqrt_mod(a: int, p: int) -> int | None:
    """A square root of a mod p (p an odd prime), or None if a is not a QR."""
    a %= p
    if a == 0:
        return 0
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    # Tonelli-Shanks
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        t2, i = t, 0
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r


# ---------------------------------------------------------------------------
# dense matrices over F_p: lists of row lists of ints in [0, p)

def mat_mul(A, B, p):
    n, m, k = len(A), len(B[0]), len(B)
    out = [[0] * m for _ in range(n)]
    for i in range(n):
        Ai, Oi = A[i], out[i]
        for t in range(k):
            a = Ai[t]
            if a:
                Bt = B[t]
                for j in range(m):
                    Oi[j] = (Oi[j] + a * Bt[j]) % p
    return out


def rref(rows, p):
    """Reduced row echelon form; returns (rows, pivot column list)."""
    rows = [list(r) for r in rows]
    m = len(rows)
    n = len(rows[0]) if m else 0
    pivots = []
    r = 0
    for c in range(n):
        pivot = next((i for i in range(r, m) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = pow(rows[r][c], -1, p)
        rows[r] = [(x * inv) % p for x in rows[r]]
        for i in range(m):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    return rows[:r], pivots


def nullspace(A, p):
    """Basis (rows) of the right nullspace of A over F_p."""
    m = len(A)
    n = len(A[0]) if m else 0
    R, pivots = rref(A, p)
    pivot_set = set(pivots)
    free = [c for c in range(n) if c not in pivot_set]
    basis = []
    for f in free:
        v = [0] * n
        v[f] = 1
        for i, c in enumerate(pivots):
            v[c] = (-R[i][f]) % p
        basis.append(v)
    return basis


def charpoly(A, p):
    """Characteristic polynomial of A over F_p via Faddeev-LeVerrier.

    Returns coefficients c[0..n] (c[n] = 1) of sum c[i] x^i; needs p > n.
    """
    n = len(A)
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    if n == 0:
        return coeffs
    M = [row[:] for row in A]
    c = (-sum(M[i][i] for i in range(n))) % p
    coeffs[n - 1] = c
    for k in range(2, n + 1):
        for i in range(n):
            M[i][i] = (M[i][i] + c) % p
        M = mat_mul(A, M, p)
        tr = sum(M[i][i] for i in range(n)) % p
        c = (-tr * pow(k, -1, p)) % p
        coeffs[n - k] = c
    return coeffs


# ---------------------------------------------------------------------------
# polynomials over F_p: coefficient lists, index = degree

def poly_trim(f):
    while f and f[-1] == 0:
        f.pop()
    return f


def poly_rem(f, h, p):
    f = list(f)
    poly_trim(f)
    dh = len(h) - 1
    inv = pow(h[-1], -1, p)
    while len(f) - 1 >= dh:
        c = f[-1] * inv % p
        shift = len(f) - 1 - dh
        if c:
            for i, b in enumerate(h):
                f[shift + i] = (f[shift + i] - c * b) % p
        f.pop()
        poly_trim(f)
    return f if f else []


def poly_mulmod(f, g, h, p):
    out = [0] * (len(f) + len(g) - 1) if f and g else []
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] = (out[i + j] + a * b) % p
    return poly_rem(out, h, p)


def poly_gcd(f, g, p):
    f, g = poly_trim(list(f)), poly_trim(list(g))
    while g:
        f, g = g, poly_rem(f, g, p)
    if f:
        inv = pow(f[-1], -1, p)
        f = [x * inv % p for x in f]
    return f


def poly_powmod(f, e, h, p):
    # left to right, so a linear base (all distinct_roots uses) multiplies in O(deg h)
    result, base = [1], poly_rem(f, h, p)
    for bit in bin(e)[2:] if e else ():
        result = poly_mulmod(result, result, h, p)
        if bit == "1":
            result = poly_mulmod(result, base, h, p)
    return result


def poly_div_exact(f, g, p):
    """f / g when g divides f over F_p."""
    f = poly_trim(list(f))
    out = [0] * (len(f) - len(g) + 1)
    inv = pow(g[-1], -1, p)
    for k in range(len(out) - 1, -1, -1):
        c = f[k + len(g) - 1] * inv % p
        out[k] = c
        if c:
            for i, b in enumerate(g):
                f[k + i] = (f[k + i] - c * b) % p
    return poly_trim(out)


def distinct_roots(f, p, rng: random.Random) -> list[int]:
    """All roots in F_p of a polynomial known to split over F_p.

    Passes to the squarefree split part via gcd with x^p - x, then splits
    by random quadratic-residue probes.
    """
    f = poly_trim(list(f))
    if len(f) <= 1:
        return []
    inv = pow(f[-1], -1, p)
    f = [x * inv % p for x in f]
    xp = poly_powmod([0, 1], p, f, p)
    xp_minus_x = list(xp) + [0] * max(0, 2 - len(xp))
    xp_minus_x[1] = (xp_minus_x[1] - 1) % p
    g = poly_gcd(f, xp_minus_x, p)
    roots: list[int] = []

    def split(h):
        h = poly_trim(list(h))
        d = len(h) - 1
        if d <= 0:
            return
        if d == 1:
            roots.append((-h[0] * pow(h[1], -1, p)) % p)
            return
        if h[0] == 0:
            roots.append(0)
            split(h[1:])
            return
        while True:
            a = rng.randrange(p)
            probe = list(poly_powmod([a, 1], (p - 1) // 2, h, p))
            if not probe:
                probe = [0]
            probe[0] = (probe[0] - 1) % p
            w = poly_gcd(h, probe, p)
            if 0 < len(w) - 1 < d:
                split(w)
                split(poly_div_exact(h, w, p))
                return

    split(g)
    return sorted(roots)
