"""Exact character theory over a single prime field.

One prime p ≡ 1 (mod N) with N a multiple of every element order in play and
p > 2·|G|² stands in for the cyclotomic numbers: a fixed element ζ of order N
embeds all needed roots of unity injectively, inner products of genuine
characters are honest integers below p, and virtual multiplicities sit safely
inside the symmetric range (-p/2, p/2).  Irreducible tables come from the
class-algebra eigenvector method, with a dual-group shortcut for abelian
groups (tested to agree with the general path).
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from . import modp
from .errors import PreconditionError, ScalarContextError, InternalCheckError
from .groups import FiniteGroup, GroupHom, Permutation, memo


class ScalarContext:
    """Fixed prime field F_p with a distinguished root of unity of order N."""

    def __init__(self, N: int, max_order: int):
        self.N = int(N)
        self.max_order = int(max_order)
        self.p = modp.prime_in_progression(self.N, 2 * self.max_order ** 2)
        g = modp.primitive_root(self.p)
        self.zeta = pow(g, (self.p - 1) // self.N, self.p)
        for f in modp.factorize(self.N):
            if pow(self.zeta, self.N // f, self.p) == 1:
                raise InternalCheckError("root of unity has wrong order")
        self._tables: dict = {}
        self._lambda_ctxs: dict = {}
        self._structures: dict = {}

    @classmethod
    def for_groups(cls, groups) -> "ScalarContext":
        groups = list(groups)
        if not groups:
            raise PreconditionError("at least one group is required")
        N = 1
        for G in groups:
            N = math.lcm(N, G.exponent())
        return cls(N, max(G.order for G in groups))

    def root_of_unity(self, d: int) -> int:
        if self.N % d:
            raise ScalarContextError(
                f"rebuild scalar context: order {d} does not divide N={self.N}"
            )
        return pow(self.zeta, self.N // d, self.p)

    def check_group(self, G: FiniteGroup):
        if self.N % G.exponent():
            raise ScalarContextError(
                f"rebuild scalar context: exponent {G.exponent()} of {G.name} "
                f"does not divide N={self.N}"
            )
        if self.p <= 2 * G.order ** 2:
            raise ScalarContextError(
                f"rebuild scalar context: prime {self.p} too small for order {G.order}"
            )

    def lift_symmetric(self, v: int) -> int:
        v %= self.p
        return v - self.p if v > self.p // 2 else v

    def table(self, G: FiniteGroup) -> "CharacterTable":
        return memo(self._tables, G.key(), character_table, G, self)

    def __repr__(self) -> str:
        return f"ScalarContext(N={self.N}, p={self.p})"


class ClassFunction:
    """A function on conjugacy classes with values in F_p."""

    __slots__ = ("group", "ctx", "values")

    def __init__(self, group: FiniteGroup, ctx: ScalarContext, values):
        self.group = group
        self.ctx = ctx
        self.values = tuple(v % ctx.p for v in values)

    def __call__(self, g: Permutation) -> int:
        return self.values[self.group.conjugacy().class_index(g)]

    def __mul__(self, other: "ClassFunction") -> "ClassFunction":
        _require_same_group(self, other)
        p = self.ctx.p
        return ClassFunction(self.group, self.ctx,
                             [a * b % p for a, b in zip(self.values, other.values)])

    def __add__(self, other: "ClassFunction") -> "ClassFunction":
        _require_same_group(self, other)
        return ClassFunction(self.group, self.ctx,
                             [a + b for a, b in zip(self.values, other.values)])

    def __eq__(self, other) -> bool:
        return (isinstance(other, ClassFunction) and self.group == other.group
                and self.values == other.values)

    def __hash__(self) -> int:
        return hash((self.group.key(), self.values))

    def __repr__(self) -> str:
        return f"cf{list(self.values)}"


def _require_same_group(a: ClassFunction, b: ClassFunction):
    if a.group != b.group:
        raise PreconditionError("class functions live on different groups")


class CharacterTable:
    """All irreducible characters of a group, in a deterministic row order."""

    def __init__(self, group: FiniteGroup, ctx: ScalarContext, rows):
        self.group = group
        self.ctx = ctx
        self.rows: tuple[ClassFunction, ...] = tuple(rows)
        conj = group.conjugacy()
        e_idx = conj.class_index(group.identity)
        self.degrees = tuple(r.values[e_idx] for r in self.rows)
        self.n_irr = len(self.rows)
        self._angle_cache: dict = {}
        self._products: dict = {}         # (i, j), i <= j -> multiplicities

    def degree(self, i: int) -> int:
        return self.degrees[i]

    def irreducible_index(self, f: ClassFunction) -> int:
        """Row index of an irreducible given by its values; error if absent."""
        for i, r in enumerate(self.rows):
            if r.values == f.values:
                return i
        raise InternalCheckError("class function is not a row of the table")

    def angle(self, i: int, g: Permutation) -> Fraction:
        return memo(self._angle_cache, (i, g), central_angle, self.rows[i], g, self.ctx)

    def product_multiplicities(self, i: int, j: int) -> tuple[int, ...]:
        """Multiplicities of rows[i]·rows[j] over the rows, decomposed once
        per unordered pair and shared by every context over this table."""
        return memo(self._products, (i, j) if i <= j else (j, i),
                    _decompose_product, self, i, j)


def _decompose_product(table: CharacterTable, i: int, j: int) -> tuple[int, ...]:
    return tuple(decompose(table.rows[i] * table.rows[j], table))


def character_table(G: FiniteGroup, ctx: ScalarContext) -> CharacterTable:
    """Irreducible character table; abelian groups take the dual-group path."""
    ctx.check_group(G)
    if G.is_abelian():
        rows = _abelian_rows(G, ctx)
    else:
        rows = _class_matrix_rows(G, ctx)
    conj = G.conjugacy()
    e_idx = conj.class_index(G.identity)
    rows.sort(key=lambda r: (r.values[e_idx], r.values))
    table = CharacterTable(G, ctx, rows)
    if sum(d * d for d in table.degrees) != G.order:
        raise InternalCheckError("degree squares do not sum to the group order")
    if table.n_irr != conj.n_classes:
        raise InternalCheckError("wrong number of irreducible characters")
    for i, r in enumerate(table.rows):
        for j in range(i, table.n_irr):
            if inner_product(r, table.rows[j]) != (1 if i == j else 0):
                raise InternalCheckError("table rows are not orthonormal")
    return table


def _abelian_rows(G: FiniteGroup, ctx: ScalarContext) -> list[ClassFunction]:
    """Linear characters of an abelian group by extending along a chain.

    Each step adjoins one generator a with a^s the first power landing in the
    current subgroup; a character extends s ways, one per s-th root of its
    value at a^s inside the order-N cyclic group generated by ζ.
    """
    p, N, zeta = ctx.p, ctx.N, ctx.zeta
    # character = map element -> exponent of zeta
    chars: list[dict[Permutation, int]] = [{G.identity: 0}]
    covered = [G.identity]
    covered_set = {G.identity}
    for a in G.elements:
        if a in covered_set:
            continue
        s = 1
        power = a
        while power not in covered_set:
            s += 1
            power = power * a
        # a^s is in the current subgroup; extend every character s ways
        new_chars = []
        for chi in chars:
            t = chi[power]
            # solve s*u = t (mod N); solutions exist since s | N and values
            # of a genuine character are s-th powers in <zeta>
            if t % math.gcd(s, N):
                raise InternalCheckError("character value is not an s-th power")
            u0 = (t // math.gcd(s, N)) * pow(s // math.gcd(s, N),
                                             -1, N // math.gcd(s, N)) % (N // math.gcd(s, N))
            step = N // s if N % s == 0 else None
            if step is None:
                raise InternalCheckError("extension index does not divide N")
            sols = sorted((u0 + k * step) % N for k in range(s))
            for u in sols:
                ext = dict(chi)
                x = G.identity
                for j in range(1, s):
                    x = x * a
                    for h in covered:
                        ext[h * x] = (chi[h] + j * u) % N
                new_chars.append(ext)
        chars = new_chars
        x = G.identity
        new_covered = list(covered)
        for j in range(1, s):
            x = x * a
            new_covered.extend(h * x for h in covered)
        covered = new_covered
        covered_set = set(covered)
    conj = G.conjugacy()
    rows = []
    for chi in chars:
        rows.append(ClassFunction(G, ctx,
                                  [pow(zeta, chi[rep], p) for rep in conj.class_reps]))
    return rows


def _class_matrix_rows(G: FiniteGroup, ctx: ScalarContext) -> list[ClassFunction]:
    """Character rows from simultaneous eigenvectors of class-sum matrices."""
    p = ctx.p
    conj = G.conjugacy()
    k = conj.n_classes
    elements_of = conj.class_elements
    class_of = conj.class_index
    reps = conj.class_reps

    def class_matrix(i: int):
        # M[l][j] = #{x in class i : x^{-1} * rep_l in class j}; the central
        # character row vector ω then satisfies ω·M = ω_i·ω
        M = [[0] * k for _ in range(k)]
        for l, z in enumerate(reps):
            for x in elements_of[i]:
                j = class_of(x.inverse() * z)
                M[l][j] += 1
        return M

    # split the common eigenspaces until all are one-dimensional
    spaces = [[[1 if i == j else 0 for j in range(k)] for i in range(k)]]
    rng = random.Random(0xD17)
    for i in range(1, k):
        if all(len(S) == 1 for S in spaces):
            break
        M = class_matrix(i)
        new_spaces = []
        for S in spaces:
            if len(S) == 1:
                new_spaces.append(S)
                continue
            B, pivots = modp.rref(S, p)
            A = []
            for row in B:
                img = [sum(row[t] * M[t][c] for t in range(k)) % p for c in range(k)]
                A.append([img[c] for c in pivots])
            # A acts on coordinates; split by its eigenvalues
            cp = modp.charpoly(A, p)
            for lam in modp.distinct_roots(cp, p, rng):
                shifted = [[(A[r][c] - (lam if r == c else 0)) % p
                            for c in range(len(A))] for r in range(len(A))]
                # row vectors y with y*(A - lam) = 0: nullspace of transpose
                AT = [list(col) for col in zip(*shifted)]
                ys = modp.nullspace(AT, p)
                if ys:
                    sub = [[sum(y[t] * B[t][c] for t in range(len(B))) % p
                            for c in range(k)] for y in ys]
                    sub, _ = modp.rref(sub, p)
                    new_spaces.append(sub)
        spaces = new_spaces
    if any(len(S) != 1 for S in spaces) or len(spaces) != k:
        raise InternalCheckError("class matrices failed to split the algebra")

    e_idx = class_of(G.identity)
    inv_class = [conj.inverse_class(i) for i in range(k)]
    sizes = conj.class_sizes
    rows = []
    for S in spaces:
        v = S[0]
        if v[e_idx] == 0:
            raise InternalCheckError("central character vanishes at the identity")
        scale = pow(v[e_idx], -1, p)
        omega = [x * scale % p for x in v]
        denom = 0
        for j in range(k):
            denom = (denom + omega[j] * omega[inv_class[j]]
                     * pow(sizes[j], -1, p)) % p
        d_sq = G.order * pow(denom, -1, p) % p
        d = modp.sqrt_mod(d_sq, p)
        if d is None:
            raise InternalCheckError("degree squared is not a square mod p")
        if d > p - d:
            d = p - d
        if d * d > G.order:
            raise InternalCheckError("recovered degree is out of range")
        values = [d * omega[j] * pow(sizes[j], -1, p) % p for j in range(k)]
        rows.append(ClassFunction(G, ctx, values))
    return rows


# ---------------------------------------------------------------------------
# operations on class functions

def inner_product(chi: ClassFunction, psi: ClassFunction) -> int:
    """(1/|G|) Σ χ(g) ψ(g^{-1}), lifted to {0..p-1}.

    For genuine characters this lift is the exact multiplicity.
    """
    _require_same_group(chi, psi)
    G, p = chi.group, chi.ctx.p
    conj = G.conjugacy()
    inv = conj.inverse_classes()
    total = 0
    for j, size in enumerate(conj.class_sizes):
        total += size * chi.values[j] * psi.values[inv[j]]
    return total % p * pow(G.order, -1, p) % p


def decompose(f: ClassFunction, table: CharacterTable,
              virtual: bool = False) -> list[int]:
    """Multiplicities of f over the irreducible rows.

    Multiplicities lift symmetrically and must stay within ± the session's
    largest group order (and be nonnegative unless ``virtual``); since
    p > 2·max_order², a function that is not an honest (virtual) character
    combination at desk scale fails the bound.  The integer recombination is
    verified to reproduce f exactly.
    """
    p = f.ctx.p
    bound = f.ctx.max_order
    mults = []
    for r in table.rows:
        m = f.ctx.lift_symmetric(inner_product(f, r))
        if abs(m) > bound or (m < 0 and not virtual):
            raise PreconditionError(
                f"not a character combination: multiplicity lift {m}"
            )
        mults.append(m)
    rebuilt = [0] * len(f.values)
    for m, r in zip(mults, table.rows):
        for j, v in enumerate(r.values):
            rebuilt[j] = (rebuilt[j] + m * v) % p
    if tuple(rebuilt) != f.values:
        raise PreconditionError("not a character combination")
    return mults


def restrict_cf(phi: GroupHom, psi: ClassFunction) -> ClassFunction:
    """Pull a class function on the codomain back along a homomorphism."""
    if psi.group != phi.codomain:
        raise PreconditionError("class function does not live on the codomain")
    G = phi.domain
    conj_h = phi.codomain.conjugacy()
    values = [psi.values[conj_h.class_index(phi(rep))]
              for rep in G.conjugacy().class_reps]
    return ClassFunction(G, psi.ctx, values)


def induce_cf(G: FiniteGroup, H: FiniteGroup, chi: ClassFunction) -> ClassFunction:
    """Induced class function Ind(χ)(g) = (1/|H|) Σ_{x: x^{-1}gx ∈ H} χ(x^{-1}gx).

    Grouping the sum by the H-class of x^{-1}gx turns it into
    |C_G(g)| · Σ χ(h_i)/|C_H(h_i)| over H-class representatives h_i that are
    G-conjugate to g, which is what is computed here.
    """
    if not G.is_subgroup(H):
        raise PreconditionError(f"{H.name} is not a verified subgroup of {G.name}")
    if chi.group != H:
        raise PreconditionError("class function does not live on the subgroup")
    p = chi.ctx.p
    conj_h = H.conjugacy()
    conj_g = G.conjugacy()
    k = conj_g.n_classes
    totals = [0] * k
    for i, h in enumerate(conj_h.class_reps):
        j = conj_g.class_index(h)
        cent_h = H.order // conj_h.class_sizes[i]
        totals[j] = (totals[j] + chi.values[i] * pow(cent_h, -1, p)) % p
    values = []
    for j in range(k):
        cent_g = G.order // conj_g.class_sizes[j]
        values.append(cent_g * totals[j] % p)
    return ClassFunction(G, chi.ctx, values)


def adams_cf(chi: ClassFunction, m: int) -> ClassFunction:
    """ψ^m: value at the class of g is χ at the class of g^m."""
    if m < 1:
        raise PreconditionError("Adams operation index must be >= 1")
    conj = chi.group.conjugacy()
    values = [chi.values[conj.power_class(i, m)] for i in range(conj.n_classes)]
    return ClassFunction(chi.group, chi.ctx, values)


def central_angle(chi: ClassFunction, g: Permutation, ctx: ScalarContext) -> Fraction:
    """The unique c = k/ord(g) in [0,1) with χ(g) = χ(1)·ζ^{kN/ord(g)}.

    Requires χ irreducible and g central in χ's group, so that χ(g)/χ(1)
    is a root of unity of order dividing ord(g).
    """
    G = chi.group
    conj = G.conjugacy()
    d = chi.values[conj.class_index(G.identity)]
    val = chi.values[conj.class_index(g)] * pow(d, -1, ctx.p) % ctx.p
    n = g.order()
    zeta_n = ctx.root_of_unity(n)
    cur = 1
    for k in range(n):
        if cur == val:
            return Fraction(k, n)
        cur = cur * zeta_n % ctx.p
    raise InternalCheckError("no central angle found; scalar context corrupted")
