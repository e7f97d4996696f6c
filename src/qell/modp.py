"""Prime-field arithmetic: primes, roots of unity, and F_p linear algebra.

Everything the character-table machinery needs from number theory lives here:
deterministic Miller-Rabin, prime search in an arithmetic progression,
primitive roots, Tonelli-Shanks square roots, and small dense matrix /
polynomial routines over F_p:

- row reduction and nullspaces;
- one Hessenberg reduction H = P·A·P⁻¹ (Cohen, *A Course in Computational
  Algebraic Number Theory*, Alg. 2.2.9), O(n³) and valid for every prime p,
  that records its elementary steps; the characteristic polynomial is the
  recurrence on H's minors, and each left eigenspace {y : y·A = λ·y} is one
  left-to-right pass over H's columns mapped back through the steps, O(n²)
  per basis vector, so that splitting along r eigenvalues costs
  O(n³ + r·n²) and not r nullspaces;
- the roots in F_p of a polynomial: its squarefree part f / gcd(f, f') first,
  then closed forms up to degree 2.  Above that, roots known to be integers
  of absolute value at most a bound are found by evaluating f at those
  integers when that costs fewer multiplications than the search: the gcd
  with x^p - x and random quadratic-residue splitting.
"""

from __future__ import annotations

import random
from operator import mul

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


def hessenberg(A, p):
    """(H, steps): an upper Hessenberg H = P·A·P⁻¹ over F_p, for any prime p,
    and the elementary steps whose product is P, for ``left_eigenspace``.

    For m = 1 .. n-2 the step (m, piv, us) swaps rows piv and m, then
    subtracts us[t]·row m from row m+1+t, clearing column m-1 below the
    subdiagonal; each operation is undone on the columns, so that H stays
    similar to A.  The subtractions of one step commute, so they are done
    together, and column m takes Σ us[t]·column m+1+t at once.  O(n³).
    """
    n = len(A)
    H = [[x % p for x in row] for row in A]
    steps = []
    for m in range(1, n - 1):
        piv = next((i for i in range(m, n) if H[i][m - 1]), None)
        if piv is None:
            continue
        if piv != m:
            H[piv], H[m] = H[m], H[piv]
            for row in H:
                row[piv], row[m] = row[m], row[piv]
        inv = pow(H[m][m - 1], -1, p)
        Hm = H[m]
        us = [H[i][m - 1] * inv % p for i in range(m + 1, n)]
        for i, u in enumerate(us, m + 1):
            if u:
                H[i] = [(x - u * y) % p for x, y in zip(H[i], Hm)]
        if any(us):
            for row in H:
                row[m] = (row[m] + sum(map(mul, us, row[m + 1:]))) % p
        steps.append((m, piv, us))
    return H, steps


def hessenberg_charpoly(H, p):
    """det(x - H) of an upper Hessenberg H over F_p, low degree first, from
    the recurrence on its leading principal minors (Cohen, *A Course in
    Computational Algebraic Number Theory*, Alg. 2.2.9):

        p_m = (x - h_mm)·p_{m-1} - Σ_{i<m} h_im·(h_{i+1,i} ⋯ h_{m,m-1})·p_{i-1}

    O(n³) operations.
    """
    n = len(H)
    # polys[m] = charpoly of the leading m×m block, low degree first
    polys = [[1]]
    for m in range(n):
        prev = polys[m]
        cur = [0] + prev                                  # x·p_{m}
        for d, c in enumerate(prev):
            cur[d] = (cur[d] - H[m][m] * c) % p
        t = 1
        for i in range(m - 1, -1, -1):
            t = t * H[i + 1][i] % p
            if not t:
                break
            f = t * H[i][m] % p
            if f:
                for d, c in enumerate(polys[i]):
                    cur[d] = (cur[d] - f * c) % p
        polys.append(cur)
    return polys[n]


def charpoly(A, p):
    """Characteristic polynomial det(x - A) of A over F_p, for any prime p:
    coefficients c[0..n] (c[n] = 1) of sum c[i] x^i, read from A's
    Hessenberg form."""
    return hessenberg_charpoly(hessenberg(A, p)[0], p)


def left_eigenspace(H, steps, lam, p):
    """A basis (rows) of {y : y·A = lam·y}, from ``hessenberg(A, p)``.

    y·A = lam·y iff z = y·P⁻¹ has z·(H - lam) = 0.  Column j of that system
    reads z_0..z_{j+1}, so one pass from left to right solves it, keeping a
    basis of the solutions on z_0..z_j: a nonzero subdiagonal entry
    h_{j+1,j} fixes z_{j+1} in every basis vector; a zero one (or the last
    column) makes column j one elimination among the basis vectors and frees
    z_{j+1}.  Each z is then mapped to y = z·P by replaying the steps
    backwards.  O(d²) per basis vector kept.
    """
    d = len(H)
    basis = [[1]] if d else []
    for j, col in enumerate(zip(*H)):
        # z has j + 1 coordinates, so the sum reads rows 0..j of column j
        s = [(sum(map(mul, z, col)) - lam * z[j]) % p for z in basis]
        h = col[j + 1] if j + 1 < d else 0
        if h:
            f = -pow(h, -1, p)
            for z, sz in zip(basis, s):
                z.append(sz * f % p)
            continue
        k = next((t for t, sz in enumerate(s) if sz), None)
        if k is not None:
            zk, f = basis.pop(k), pow(s.pop(k), -1, p)
            basis = [[(a - sz * f * b) % p for a, b in zip(z, zk)] if sz else z
                     for z, sz in zip(basis, s)]
        if j + 1 < d:
            for z in basis:
                z.append(0)
            basis.append([0] * (j + 1) + [1])
    for z in basis:
        for m, piv, us in reversed(steps):
            z[m] = (z[m] - sum(map(mul, us, z[m + 1:]))) % p
            z[piv], z[m] = z[m], z[piv]
    return basis


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


def poly_deriv(f, p):
    return poly_trim([i * c % p for i, c in enumerate(f)][1:])


def _small_roots(h, p) -> list[int] | None:
    """Roots of a monic squarefree h of degree <= 2 in closed form, sorted;
    None where no closed form applies (higher degree, or p = 2)."""
    if len(h) == 2:
        return [-h[0] % p]
    if len(h) != 3 or p == 2:
        return None
    # x² + bx + c: x = (-b ± √(b² - 4c)) / 2
    b, c = h[1], h[0]
    s = sqrt_mod(b * b - 4 * c, p)
    if s is None:
        return []
    half = pow(2, -1, p)
    return sorted({(-b + s) * half % p, (-b - s) * half % p})


def _integer_roots(f, p, bound: int) -> list[int]:
    """The integers in [-bound, bound] that are roots of f mod p, as residues
    in ascending order: f at all of them at once, one coefficient a step."""
    xs = [*range(bound + 1), *range(p - bound, p)]
    values = [f[-1]] * len(xs)
    for c in reversed(f[:-1]):
        values = [(v * x + c) % p for v, x in zip(values, xs)]
    return [x for x, v in zip(xs, values) if not v]


def distinct_roots(f, p, rng: random.Random, bound: int | None = None) -> list[int]:
    """All roots in F_p of a nonzero polynomial f, sorted, without repeats.

    f is made monic and, when deg f < p, replaced by its squarefree part
    f / gcd(f, f'), which has the same roots.  Degrees 1 and 2 are solved in
    closed form (sqrt_mod).  Above that, with n = deg f, there are two ways:

    - ``bound`` says every root is an integer of absolute value at most
      bound.  With 2·bound < p those 2·bound + 1 integers are distinct mod p,
      and evaluating f at each by Horner's rule takes (2·bound + 1)·n
      multiplications.
    - The search: the gcd with x^p - x keeps the product of the linear
      factors, and random quadratic-residue probes split it, again with
      closed forms at degree <= 2.  x^p mod f alone takes a squaring and a
      reduction mod f, about n² multiplications each, per bit of p, and the
      splitting about as many again: 4·n²·log2(p) in all.

    The integers are tried when they cost fewer: 2·bound + 1 <= 4·n·log2(p).
    A root outside the bound is not found.
    """
    f = poly_trim(list(f))
    if len(f) <= 1:
        return []
    inv = pow(f[-1], -1, p)
    f = [x * inv % p for x in f]
    if len(f) - 1 < p:
        # below degree p, f' != 0 and f / gcd(f, f') is squarefree
        f = poly_div_exact(f, poly_gcd(f, poly_deriv(f, p), p), p)
    small = _small_roots(f, p)
    if small is not None:
        return small
    if bound is not None and 2 * bound < p and \
            2 * bound + 1 <= 4 * (len(f) - 1) * p.bit_length():
        return _integer_roots(f, p, bound)
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
        small = _small_roots(h, p)
        if small is not None:
            roots.extend(small)
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
