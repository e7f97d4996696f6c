"""Exact character theory over a single prime field.

One prime p ≡ 1 (mod N) with N a multiple of every element order in play and
p > 2·|G|² stands in for the cyclotomic numbers: a fixed element ζ of order N
embeds all needed roots of unity injectively, inner products of genuine
characters are honest integers below p, and virtual multiplicities sit safely
inside the symmetric range (-p/2, p/2).  Irreducible tables come from the
class-algebra eigenvector method, with two shortcuts tested to agree with
it: the dual group for an abelian group, and for a subgroup that splits
along the factors of a direct product, the Kronecker products of its
factors' rows: class i of S_A x S_B is (class i // k_B, class i % k_B).
The method starts from the centre's split, written in closed form from the
linear characters of the centre: a central character over θ has
ω(z·K) = θ(z)·ω(K), so the class matrices of the non-central classes only
split the pieces, each split reading every eigenspace from one Hessenberg
form (``modp.left_eigenspace``).
Each table packs its dual rows and its rows once into integers of w-bit
lanes (Kronecker substitution), so that the orthonormality check and
``decompose`` are one big-integer multiply-add per class in place of k dot
products of length k.
"""

from __future__ import annotations

import math
import random
import sys
from array import array
from fractions import Fraction
from itertools import repeat
from operator import itemgetter, mul, sub

from . import modp
from .errors import PreconditionError, ScalarContextError, InternalCheckError
from .groups import FiniteGroup, GroupHom, Permutation, class_fusion, factor_split, memo


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
        self._angles: dict = {}     # (n, N, p, ζ) -> {ζ_n^k: k/n}
        self._lambda_ctxs: dict = {}
        self._structures: dict = {}
        self._terms: dict = {}      # rotrep column terms and columns, one object per value
        self._columns: dict = {}

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
        self.values = tuple(map(ctx.p.__rmod__, values))

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


def _require_same_group(a, b):
    """a and b: class functions, or a class function and a character table."""
    if a.group != b.group:
        raise PreconditionError("class functions live on different groups")


class CharacterTable:
    """All irreducible characters of a group, in a deterministic row order.

    The dot products of the table layer are packed once per table (Kronecker
    substitution; D. Harvey, J. Symbolic Comput. 44, 2009).  With k classes,
    lanes of w bits, w the bit length of k·(p-1)² rounded up to a multiple of
    64, and every packed value in [0, p):

    - ``packed_dual[c] = Σ_j dual_j(c)·2^(w·j)``, one per class, where
      ``dual_j(c) = |c|·χ_j(c⁻¹)/|G| mod p``, so that ⟨f, χ_j⟩ = Σ_c f(c)·dual_j(c);
    - ``packed_rows[i] = Σ_c χ_i(c)·2^(w·c)``, one per row.

    A sum of at most k products of values below p stays below 2^w, so no
    carry crosses a lane: lane j of Σ_c f(c)·packed_dual[c] is the integer
    Σ_c f(c)·dual_j(c), one big-integer multiply-add per class in place of k
    dot products (``_lanes`` reads the lanes back).
    """

    def __init__(self, group: FiniteGroup, ctx: ScalarContext, rows):
        self.group = group
        self.ctx = ctx
        self.rows: tuple[ClassFunction, ...] = tuple(rows)
        conj = group.conjugacy()
        e_idx = conj.class_index(group.identity)
        self.degrees = tuple(r.values[e_idx] for r in self.rows)
        self.n_irr = len(self.rows)
        p, inv, n_inv = ctx.p, conj.inverse_classes(), pow(group.order, -1, ctx.p)
        self.lane_bits = w = -(-(self.n_irr * (p - 1) ** 2).bit_length() // 64) * 64
        columns = list(zip(*(r.values for r in self.rows)))
        self.packed_dual = tuple(
            _pack([v * scale % p for v in columns[inv[c]]], w)
            for c, scale in enumerate(size * n_inv % p for size in conj.class_sizes))
        self.packed_rows = tuple(_pack(r.values, w) for r in self.rows)
        self.row_of = {r.values: i for i, r in enumerate(self.rows)}
        self._products: dict = {}         # i -> (row, mult) pairs of i*j, j >= i
        self._columns: dict = {}          # (pairs, shift) -> rotrep's product column

    def degree(self, i: int) -> int:
        return self.degrees[i]

    def irreducible_index(self, f: ClassFunction) -> int:
        """Row index of an irreducible given by its values; error if absent."""
        i = self.row_of.get(f.values)
        if i is None:
            raise InternalCheckError("class function is not a row of the table")
        return i

    def product_multiplicities(self, i: int, j: int) -> tuple[tuple[int, int], ...]:
        """The nonzero (row, multiplicity) pairs of rows[i]·rows[j], in row
        order, found once per unordered pair and shared by every context
        over this table."""
        return self.product_row(i)[j - i] if i <= j else self.product_row(j)[i - j]

    def product_row(self, i: int) -> tuple:
        """``product_multiplicities(i, j)`` for j = i, i+1, ..., n_irr - 1."""
        return memo(self._products, i, _product_row, self, i)


def _product_row(table: CharacterTable, i: int) -> tuple:
    return tuple(_decompose_product(table, i, j) for j in range(i, table.n_irr))


def _decompose_product(table: CharacterTable, i: int, j: int) -> tuple[tuple[int, int], ...]:
    # λ linear and χ irreducible give ⟨λχ, λχ⟩ = ⟨χ, χ⟩ = 1: λχ is a row, and
    # finding it by its values is decompose's answer with its checks met
    p = table.ctx.p
    values = tuple(map(p.__rmod__, map(mul, table.rows[i].values, table.rows[j].values)))
    if table.degrees[i] == 1 or table.degrees[j] == 1:
        k = table.row_of.get(values)
        if k is None:
            raise InternalCheckError("product with a linear row is not a row of the table")
        return ((k, 1),)
    mults = decompose(ClassFunction(table.group, table.ctx, values), table)
    return tuple((k, m) for k, m in enumerate(mults) if m)


def character_table(G: FiniteGroup, ctx: ScalarContext) -> CharacterTable:
    """Irreducible character table, from the first of three paths that applies:

    - an abelian G takes the dual-group path (``_abelian_rows``);
    - a G that splits along the factors of its direct-product root,
      G = G_A x G_B (``groups.factor_split``), takes the tensor rows of
      its factors' tables (``_tensor_rows``);
    - any other G takes the class-matrix path (``_class_matrix_rows``).

    Every path's rows are sorted by (degree, values) and pass the same
    checks: the degree squares sum to |G|, there are as many rows as
    classes, and the rows are orthonormal.
    """
    ctx.check_group(G)
    if G.is_abelian():
        rows = _abelian_rows(G, ctx)
    elif (split := factor_split(G)) is not None:
        rows = _tensor_rows(G, ctx, split)
    else:
        rows = _class_matrix_rows(G, ctx)
    conj = G.conjugacy()
    e_idx = conj.class_index(G.identity)
    rows.sort(key=lambda r: (r.values[e_idx], r.values))
    if sum(r.values[e_idx] ** 2 for r in rows) != G.order:
        raise InternalCheckError("degree squares do not sum to the group order")
    if len(rows) != conj.n_classes:
        raise InternalCheckError("wrong number of irreducible characters")
    table = CharacterTable(G, ctx, rows)
    # ⟨χ_i, χ_j⟩ = δ_ij: lane j of Σ_c χ_i(c)·packed_dual[c], read mod p
    p, n, w = ctx.p, table.n_irr, table.lane_bits
    for i, r in enumerate(table.rows):
        lanes = list(map(p.__rmod__, _lanes(sum(map(mul, r.values, table.packed_dual)), n, w)))
        if lanes[i] != 1 or lanes.count(0) != n - 1:
            raise InternalCheckError("table rows are not orthonormal")
    return table


def _pack(values, w: int) -> int:
    """Σ_t values[t]·2^(w·t), for values in [0, 2^w)."""
    chunks = map(int.to_bytes, values, repeat(w // 8), repeat("little"))
    return int.from_bytes(b"".join(chunks), "little")


def _lanes(total: int, n: int, w: int):
    """The n lanes of w bits of a nonnegative total below 2^(w·n), low first:
    a 64-bit lane through ``array("Q")``, a wider one by shifts."""
    if w == 64:
        lanes = array("Q", total.to_bytes(8 * n, "little"))
        if sys.byteorder == "big":
            lanes.byteswap()
        return lanes
    mask = (1 << w) - 1
    return [total >> (w * t) & mask for t in range(n)]


def _abelian_rows(G: FiniteGroup, ctx: ScalarContext) -> list[ClassFunction]:
    """Linear characters of an abelian group by extending along a chain.

    Each step adjoins one generator a with a^s the first power landing in the
    current subgroup; a character extends s ways, one per s-th root of its
    value at a^s inside the order-N cyclic group generated by ζ.  Elements
    are image tuples, multiplied through ``itemgetter``; a character is the
    list of its ζ-exponents on the covered elements, in their order.
    """
    p, N = ctx.p, ctx.N
    covered = [G.identity]
    position = {covered[0]: 0}
    chars: list[list[int]] = [[0]]
    for a in G.elements:
        if a in position:
            continue
        times_a = itemgetter(*a)        # x ↦ x·a
        s, power = 1, a
        while power not in position:
            s += 1
            power = times_a(power)
        # a^s is in the current subgroup; extend every character s ways
        at_power = position[power]
        g, step = math.gcd(s, N), N // s if N % s == 0 else None
        new_chars = []
        for chi in chars:
            t = chi[at_power]
            # solve s*u = t (mod N); solutions exist since s | N and values
            # of a genuine character are s-th powers in <zeta>
            if t % g:
                raise InternalCheckError("character value is not an s-th power")
            u0 = (t // g) * pow(s // g, -1, N // g) % (N // g)
            if step is None:
                raise InternalCheckError("extension index does not divide N")
            for u in sorted((u0 + k * step) % N for k in range(s)):
                ext = chi[:]
                for j in range(1, s):
                    ju = j * u
                    ext.extend([(c + ju) % N for c in chi])
                new_chars.append(ext)
        chars = new_chars
        x, block = a, len(covered)
        for j in range(1, s):           # the coset of a^j, in chi's extension order
            covered.extend(map(itemgetter(*x), covered[:block]))
            x = times_a(x)
        position.update(zip(covered[block:], range(block, len(covered))))
    zeta_powers = [1] * N
    for k in range(1, N):
        zeta_powers[k] = zeta_powers[k - 1] * ctx.zeta % p
    reps = [position[r] for r in G.conjugacy().class_reps]
    return [ClassFunction(G, ctx, [zeta_powers[chi[r]] for r in reps]) for chi in chars]


def _tensor_rows(G: FiniteGroup, ctx: ScalarContext, split) -> list[ClassFunction]:
    """The rows χ⊠ψ of G = G_A x G_B, χ a row of G_A's table and ψ of G_B's:
    (χ⊠ψ)(a, b) = χ(a)·ψ(b) is irreducible, and these are all of G's
    irreducibles (Isaacs, Character Theory of Finite Groups, Thm 4.21).
    ``split`` is ``groups.factor_split(G)``; by the index law χ⊠ψ is the
    Kronecker product of the two value vectors.  The factor tables come
    from ``ctx.table``, so a factor that is itself a split product recurses,
    and a table built before is reused."""
    A, B = split
    rights = [psi.values for psi in ctx.table(B).rows]
    return [ClassFunction(G, ctx, [x * y for x in chi.values for y in psi])
            for chi in ctx.table(A).rows for psi in rights]


def _class_matrix_column(conj, class_i, j: int) -> tuple[tuple, tuple]:
    """Nonzero entries (rows, values) of column j of class i's matrix M.

    M[l][j] = #{x in class i : x^{-1} * rep_l in class j}, so the central
    character row vector ω satisfies ω·M = ω_i·ω.  Counting pairs gives
    M[t][j] = |C_j|·#{x in class i : x * rep_j in C_t} / |C_t|: one image
    tuple and one lookup per x, and at most |class i| nonzero entries.
    ``class_i`` holds the ``__getitem__`` of class i's elements.
    """
    counts: dict[int, int] = {}
    g = conj.class_reps[j]
    for x in class_i:
        t = conj.class_of[tuple(map(x, g))]
        counts[t] = counts.get(t, 0) + 1
    sizes = conj.class_sizes
    return tuple(counts), tuple(sizes[j] * n // sizes[t] for t, n in counts.items())


def _eigenspaces(A, B, pivots, p: int, rng: random.Random, bound: int | None):
    """Split span(B) along the eigenvalues of A, the action on B's coordinates.

    B is in RREF with the given pivot columns; ``bound``, if not None, bounds
    the eigenvalues as integers (``modp.distinct_roots``).  A is reduced to
    Hessenberg form once; the characteristic polynomial and every
    eigenspace are read from that form.  Each eigenspace is yielded as
    (Y·B, its pivots) with Y the RREF basis of {y : y·A = λ·y}; Y·B is then
    in RREF too, with B's pivots at Y's, and is summed over the nonzero
    entries of Y and B.
    """
    k = len(B[0])
    nonzero = [[(t, b) for t, b in enumerate(row) if b] for row in B]
    H, steps = modp.hessenberg(A, p)
    for lam in modp.distinct_roots(modp.hessenberg_charpoly(H, p), p, rng, bound):
        ys = modp.left_eigenspace(H, steps, lam, p)
        if ys:
            Y, y_pivots = modp.rref(ys, p)
            sub = []
            for y in Y:
                v = [0] * k
                for t, yt in enumerate(y):
                    if yt:
                        for c, b in nonzero[t]:
                            v[c] += yt * b
                sub.append([x % p for x in v])
            yield sub, [pivots[q] for q in y_pivots]


def _central_pieces(G: FiniteGroup, ctx: ScalarContext) -> tuple[list, range | list[int]]:
    """The common eigenspaces of G's central classes, each an RREF basis with
    its pivot columns, and the classes whose matrices are left to split them.

    The centre Z acts on the classes by K ↦ z·K, and a central character ω
    over the linear character θ of Z has ω(z·K) = θ(z)·ω(K).  So the
    θ-eigenspace has one basis row per Z-orbit of classes whose stabilizer
    lies in ker θ: v(z·K₀) = θ(z), which is 1 at the orbit's least class K₀.
    The rows have disjoint supports, so the basis is in RREF with its pivots
    at the orbit minima, and each central class is a scalar on it.  θ comes
    from Z's checked table.  A trivial centre gives the whole class space, and
    so does an abelian G, whose table would be this path's own answer.
    """
    conj = G.conjugacy()
    sizes, k = conj.class_sizes, conj.n_classes
    central = [i for i in range(k) if sizes[i] == 1]
    if len(central) in (1, k):
        whole = [[int(i == j) for j in range(k)] for i in range(k)]
        return [(whole, list(range(k)))], range(1, k)
    Z = G.subgroup_of([conj.class_reps[i] for i in central])
    zs = Z.conjugacy().class_reps       # Z is abelian: its classes are its elements
    orbits = []                         # (K₀, [z·K₀ for z in zs]), K₀ ascending
    seen: set[int] = set()
    for j, g in enumerate(conj.class_reps):
        if j not in seen:
            targets = [conj.class_of[tuple(map(z.__getitem__, g))] for z in zs]
            seen.update(targets)
            orbits.append((j, targets))
    spaces = []
    for theta in ctx.table(Z).rows:
        B, pivots = [], []
        for j, targets in orbits:
            if all(t == 1 for t, c in zip(theta.values, targets) if c == j):
                v = [0] * k
                for c, t in zip(targets, theta.values):
                    v[c] = t
                B.append(v)
                pivots.append(j)
        spaces.append((B, pivots))
    return spaces, [i for i in range(k) if sizes[i] > 1]


def _is_rational(conj, i: int) -> bool:
    """Whether g^m lies in g's class i for every m prime to n = ord(g): then
    the Galois conjugates χ(g^m) of every χ(g) equal it, so χ(g) is an
    integer, and |χ(g)| <= χ(1)."""
    g, n = conj.class_reps[i], conj.rep_orders[i]
    return all(conj.class_of[g ** m] == i for m in range(2, n) if math.gcd(m, n) == 1)


def _class_matrix_rows(G: FiniteGroup, ctx: ScalarContext) -> list[ClassFunction]:
    """Character rows from simultaneous eigenvectors of class-sum matrices.

    Each common eigenspace is kept as a basis B in RREF with its pivot
    columns, starting from the central classes' eigenspaces in closed form
    (``_central_pieces``).  A class matrix M acts on B's coordinates by
    A = B·M, read at the pivot columns only; a scalar A leaves the space
    whole, any other A splits it along its eigenvalues.  Those are the
    ω_χ(K_i) = |K_i|·χ(g)/χ(1), g in class i, and when the class is rational
    (``_is_rational``) they are integers of absolute value at most |K_i|
    (Dixon, Numer. Math. 10, 1967).
    """
    p = ctx.p
    conj = G.conjugacy()
    k = conj.n_classes
    spaces, classes = _central_pieces(G, ctx)
    rng = random.Random(0xD17)
    # split the common eigenspaces until all are one-dimensional
    for i in classes:
        if all(len(B) == 1 for B, _ in spaces):
            break
        class_i = [x.__getitem__ for x in conj.class_elements[i]]
        columns: dict[int, tuple] = {}      # M's columns, built as needed
        bound = conj.class_sizes[i] if _is_rational(conj, i) else None
        new_spaces = []
        for B, pivots in spaces:
            d = len(B)
            if d > 1:
                A = [[0] * d for _ in range(d)]
                for c, j in enumerate(pivots):
                    ts, ms = memo(columns, j, _class_matrix_column, conj, class_i, j)
                    for r, row in enumerate(B):
                        A[r][c] = sum(map(mul, map(row.__getitem__, ts), ms)) % p
                lam = A[0][0]
                if any(A[r][c] != (lam if r == c else 0)
                       for r in range(d) for c in range(d)):
                    new_spaces.extend(_eigenspaces(A, B, pivots, p, rng, bound))
                    continue
            new_spaces.append((B, pivots))
        spaces = new_spaces
    if any(len(B) != 1 for B, _ in spaces) or len(spaces) != k:
        raise InternalCheckError("class matrices failed to split the algebra")

    e_idx = conj.class_index(G.identity)
    inv_class = conj.inverse_classes()
    inv_sizes = [pow(size, -1, p) for size in conj.class_sizes]
    rows = []
    for B, _ in spaces:
        v = B[0]
        if v[e_idx] == 0:
            raise InternalCheckError("central character vanishes at the identity")
        scale = pow(v[e_idx], -1, p)
        omega = [x * scale % p for x in v]
        denom = sum(map(mul, map(mul, omega, map(omega.__getitem__, inv_class)),
                        inv_sizes)) % p
        # d² <= |G| < p/2, so the residue d_sq of a true degree is the integer d²
        d_sq = G.order * pow(denom, -1, p) % p
        d = math.isqrt(d_sq)
        if d * d != d_sq or d_sq > G.order:
            if modp.sqrt_mod(d_sq, p) is None:
                raise InternalCheckError("degree squared is not a square mod p")
            raise InternalCheckError("recovered degree is out of range")
        values = [d * w * s % p for w, s in zip(omega, inv_sizes)]
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

    Both steps are packed sums over the table (``CharacterTable``): the
    multiplicities are the lanes of Σ_c f(c)·packed_dual[c], and the
    recombination Σ_i m_i·χ_i(c) is lane c of Σ_i m_i·packed_rows[i].  A
    lane must not go negative, so negative (virtual, e.g. ψ^m) multiplicities
    are summed apart, as Σ_i |m_i|·packed_rows[i] over m_i < 0, and
    subtracted lane by lane.  Each part has lanes of at most k·bound·(p-1)
    < k·(p-1)², since bound < p - 1, so both fit the table's lanes.
    """
    _require_same_group(f, table)
    p, lift, bound = f.ctx.p, f.ctx.lift_symmetric, f.ctx.max_order
    n, w, rows = table.n_irr, table.lane_bits, table.packed_rows
    mults = list(map(lift, _lanes(sum(map(mul, f.values, table.packed_dual)), n, w)))
    for m in mults:
        if abs(m) > bound or (m < 0 and not virtual):
            raise PreconditionError(
                f"not a character combination: multiplicity lift {m}"
            )
    plus = [m if m > 0 else 0 for m in mults]
    lanes = _lanes(sum(map(mul, plus, rows)), n, w)
    if plus != mults:
        minus = sum(map(mul, map(sub, plus, mults), rows))
        lanes = map(sub, lanes, _lanes(minus, n, w))
    if tuple(map(p.__rmod__, lanes)) != f.values:
        raise PreconditionError("not a character combination")
    return mults


def restrict_cf(phi: GroupHom, psi: ClassFunction) -> ClassFunction:
    """Pull a class function on the codomain back along a homomorphism: a
    gather through phi's class fusion."""
    if psi.group != phi.codomain:
        raise PreconditionError("class function does not live on the codomain")
    return ClassFunction(phi.domain, psi.ctx, map(psi.values.__getitem__, phi.fusion()))


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
    p, sizes_h, sizes_g = chi.ctx.p, H.conjugacy().class_sizes, G.conjugacy().class_sizes
    totals = [0] * len(sizes_g)
    for i, j in enumerate(class_fusion(H, G)):
        totals[j] += chi.values[i] * pow(H.order // sizes_h[i], -1, p)
    return ClassFunction(G, chi.ctx, [G.order // size * t
                                      for size, t in zip(sizes_g, totals)])


def adams_cf(chi: ClassFunction, m: int) -> ClassFunction:
    """ψ^m: value at the class of g is χ at the class of g^m."""
    if m < 1:
        raise PreconditionError("Adams operation index must be >= 1")
    G = chi.group
    return ClassFunction(G, chi.ctx, map(chi.values.__getitem__,
                                         G.conjugacy().power_classes(m)))


def central_angle(chi: ClassFunction, g: Permutation, ctx: ScalarContext) -> Fraction:
    """The unique c = k/n in [0,1), n = ord(g), with χ(g) = χ(1)·ζ^{kN/n}.

    Requires χ irreducible and g central in χ's group, so that χ(g)/χ(1)
    is a root of unity of order dividing n.  n is read from the class data,
    and χ(g)/χ(1) is looked up in a table of the powers of ζ_n.  The table
    is kept per (n, N, p, ζ), the scalars it is built from, so a context
    whose scalars change after a lookup builds a fresh table, and the check
    sees the change.
    """
    G = chi.group
    conj = G.conjugacy()
    ci = conj.class_index(g)
    d = chi.values[conj.class_index(G.identity)]
    val = chi.values[ci] * pow(d, -1, ctx.p) % ctx.p
    n = conj.rep_orders[ci]
    angles = memo(ctx._angles, (n, ctx.N, ctx.p, ctx.zeta), _angle_table, ctx, n)
    if val not in angles:
        raise InternalCheckError("no central angle found; scalar context corrupted")
    return angles[val]


def _angle_table(ctx: ScalarContext, n: int) -> dict[int, Fraction]:
    """{ζ_n^k: k/n} for 0 <= k < n, the least k for a repeated power."""
    zeta_n = ctx.root_of_unity(n)
    angles, cur = {}, 1
    for k in range(n):
        angles.setdefault(cur, Fraction(k, n))
        cur = cur * zeta_n % ctx.p
    return angles
