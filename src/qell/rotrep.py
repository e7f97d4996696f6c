"""Representation rings of rotation extensions S x R / <(g, -1)>.

For a finite group S with a chosen central element g, the representations of
the extension by loop rotation form a free Z[q^±]-module with one basis
element per irreducible λ of S.  The rotation partner of λ is forced by the
scalar through which g acts: writing λ(g) = e^{2πi c}·id with c in [0,1), the
basis element is the pair (λ, c) and q is the rotation line (triv, exponent 1).

Every ring map is a restriction along a group map, an induction, or a
rescaling of the rotation, and sends a source of rotation weight w to
constituents under one rule (``_constituents``): constituent λ with angle d_λ
and multiplicity m becomes m·q^{(w − n·d_λ)/n}·(λ, d_λ), and w − n·d_λ must be
an integer (asserted at runtime).  n is 1 except for μ^n.

* product:   (λ,c)(λ',c') has weight c+c'; its constituents are the table's
  product multiplicities, so the product is q^⌊c+c'⌋ · Σ_μ ⟨λλ', μ⟩ (μ, frac(c+c')).
  The columns belong to the character table, one per (multiplicities,
  shift), and every context over the table shares them; a context does only
  integer work, a row of products at a time: with its angles read as k/n,
  n = ord(g), the shift and remainder are divmod(k_i + k_j, n), and every
  constituent μ must have k_μ equal to the remainder.
* Adams ψ^m: group elements [h,t] power to [h^m, mt], so ψ^m sends q to q^m,
  coefficients f(q) to f(q^m), and (λ,c), of weight mc, to the constituents
  of ψ^m λ.
* restriction: pullback along φ, conjugation s ↦ w s w^{-1} (restriction
  along t ↦ w^{-1} t w) and μ^n (the inclusion S ≤ T, g^n central in T,
  then q ↦ q^{1/n}) gather a row through the map's class fusion; a gathered
  row found in the target table is its own decomposition.  μ^n sends (ρ,c)
  to Σ_λ ⟨ρ|_S, λ⟩ q^{(c − n·d_λ)/n} (λ, d_λ).
* induction: Ind of a row, decomposed, at weight c; degrees are checked.

A map's preconditions, and the group work behind it (class fusion, the
conjugated context), run once per entry: each (source context, map, target
context) has one checked entry, filled through ``groups.memo`` only after
its checks pass, so a warm call is a lookup and a bad input is never stored.

All multiplicities are computed exactly in the scalar context's prime field.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add, sub

from .charmod import (
    CharacterTable,
    ClassFunction,
    ScalarContext,
    adams_cf,
    central_angle,
    decompose,
    induce_cf,
)
from .errors import InternalCheckError, PreconditionError
from .groups import FiniteGroup, GroupHom, Permutation, class_fusion, memo
from .qlaurent import ONE, QLaurent, ZERO, monomial, q_power


class LambdaCtx:
    """Basis data for the representation ring attached to (S, central g)."""

    def __init__(self, sctx: ScalarContext, group: FiniteGroup, g: Permutation):
        if g not in group:
            raise PreconditionError(f"{g!r} is not an element of {group.name}")
        for s in group.generators:
            if s * g != g * s:
                raise PreconditionError(f"{g!r} is not central in {group.name}")
        self.sctx = sctx
        self.group = group
        self.g = g
        self.table: CharacterTable = sctx.table(group)
        self.angles: tuple[Fraction, ...] = tuple(
            central_angle(row, g, sctx) for row in self.table.rows
        )
        self.g_order = ordg = g.order()
        for c in self.angles:
            if ordg % c.denominator:
                raise InternalCheckError("angle denominator does not divide ord(g)")
        self.rank = self.table.n_irr
        self.trivial_row = self.table.irreducible_index(
            ClassFunction(group, sctx, [1] * self.rank))
        self._hash = hash(self.key())
        self._product_rows: dict = {}  # i -> the columns of i*j for j >= i
        self._ks: tuple[int, ...] = ()  # angle numerators over ord(g), read at the first product
        self._decomp_cache: dict = {}
        self._maps: dict = {}          # checked map entries, by (kind, n or w, target)
        self._conjugates: dict = {}    # w -> the context over w S w⁻¹ at w g w⁻¹

    def key(self):
        return (self.group.key(), self.g)

    def __eq__(self, other) -> bool:
        return isinstance(other, LambdaCtx) and self.key() == other.key() \
            and self.sctx is other.sctx

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Lambda({self.group.name}, {self.g!r}; rank {self.rank})"

    # -- element constructors ------------------------------------------------

    def zero(self) -> "LambdaElt":
        return _elt(self, (ZERO,) * self.rank)

    def unit(self) -> "LambdaElt":
        return self.basis_elt(self.trivial_row)

    def basis_elt(self, i: int, coeff: QLaurent = ONE) -> "LambdaElt":
        coeffs = [ZERO] * self.rank
        coeffs[i] = coeff
        return _elt(self, tuple(coeffs))

    def from_coeffs(self, coeffs) -> "LambdaElt":
        return LambdaElt(self, coeffs)

    def q(self, exponent=1) -> "LambdaElt":
        return self.unit() * q_power(exponent)

    def product_columns(self, i: int, j: int):
        """Structure constants of basis product i*j: the nonzero (μ, mult·q^shift)."""
        return self.product_row(i)[j - i] if i <= j else self.product_row(j)[i - j]

    def product_row(self, i: int) -> tuple:
        """The product columns of i*j for j = i, i+1, ..., rank - 1."""
        return memo(self._product_rows, i, self._product_row, i)

    def _angle_numerators(self) -> tuple[int, ...]:
        # The angles are read at the first product, as k/n with n = ord(g), so
        # a context corrupted after construction fails there; a denominator
        # that does not divide n fails too.
        n = self.g_order
        ratios = [a.as_integer_ratio() for a in self.angles]
        if any(n % den for _, den in ratios):
            raise InternalCheckError(_PRODUCT_ANGLE)
        self._ks = tuple(num * (n // den) for num, den in ratios)
        return self._ks

    def _product_row(self, i: int) -> tuple:
        table = self.table
        n, ks = self.g_order, self._ks or self._angle_numerators()
        ki, row, columns = ks[i], [], table._columns
        for j, pairs in enumerate(table.product_row(i), i):
            shift, k = divmod(ki + ks[j], n)
            for mu, _ in pairs:
                if ks[mu] != k:
                    raise InternalCheckError(_PRODUCT_ANGLE)
            row.append(memo(columns, (pairs, shift), _product_column, table, pairs, shift))
        return tuple(row)


_PRODUCT_ANGLE = "product constituent carries the wrong central angle"


def _product_column(table: CharacterTable, pairs, shift: int):
    """The column q^shift·Σ_μ m_μ·μ of a product with multiplicities ``pairs``:
    the table keeps one per (pairs, shift), so at most one per (i, j, shift),
    shared by every context over it."""
    terms = table.ctx._terms
    cols = tuple(memo(terms, (mu, m, shift, 1), _term, mu, m, shift, 1) for mu, m in pairs)
    return memo(table.ctx._columns, cols, tuple, cols)


def _constituents(pairs, target: LambdaCtx, weight: tuple[int, int], message: str,
                  n: int = 1):
    """Columns ((j, m·q^{(w − n·d_j)/n}), ...) of the nonzero m among ``pairs``
    (j, m) over target's rows d_j, for a source of rotation weight w = num/den,
    ``weight`` = (num, den).

    The one angle-and-shift rule of every ring map: w − n·d_j must be an
    integer, else ``message`` is raised.  n is 1 except for μ^n.  Equal terms
    (j, m, shift, n) and equal columns are one object each per scalar
    context, shared by every map.
    """
    num, den = weight
    terms = target.sctx._terms
    cols = []
    for j, m in pairs:
        if m:
            a = target.angles[j]
            # w − n·d_j = top / bottom
            top = num * a.denominator - n * a.numerator * den
            bottom = den * a.denominator
            if top % bottom:
                raise InternalCheckError(message)
            cols.append(memo(terms, (j, m, top // bottom, n), _term, j, m, top // bottom, n))
    cols = tuple(cols)
    return memo(target.sctx._columns, cols, tuple, cols)    # the first equal column


def _term(j: int, m: int, shift: int, n: int):
    return j, monomial(m, shift if n == 1 else Fraction(shift, n))


def ctx_for(sctx: ScalarContext, group: FiniteGroup, g: Permutation) -> LambdaCtx:
    """Cached context for (group, central element)."""
    return memo(sctx._lambda_ctxs, (group.key(), g), LambdaCtx, sctx, group, g)


def ctx_build(G: FiniteGroup, g: Permutation, sctx: ScalarContext) -> LambdaCtx:
    """Context over the full centralizer of g in G."""
    conj = G.conjugacy()
    ci = conj.class_index(g)
    C = conj.centralizer(ci) if conj.class_reps[ci] == g else G.centralizer(g)
    return ctx_for(sctx, C, g)


class LambdaElt:
    """Element of a rotation-extension representation ring.

    Coefficient vector over the canonical basis; coefficients live in Z[q^Q]
    so fractional-exponent extensions need no separate type.  Arithmetic
    touches only the nonzero coefficients: a sum copies the left vector and
    combines at the right operand's support, and a product pairs the two
    supports.  Results are built by ``_elt``, so only the public constructor
    checks the vector's length.
    """

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx: LambdaCtx, coeffs):
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "coeffs", tuple(coeffs))
        if len(self.coeffs) != ctx.rank:
            raise PreconditionError("coefficient vector has wrong length")

    def __setattr__(self, name, value):
        raise AttributeError("LambdaElt is immutable")

    def is_zero(self) -> bool:
        return all(f.is_zero() for f in self.coeffs)

    def basis_index(self) -> int | None:
        """i if this is basis element i times an integral power of q, else None."""
        hits = [(i, f.as_monomial()) for i, f in enumerate(self.coeffs) if f]
        if len(hits) != 1 or hits[0][1] is None:
            return None
        i, (expo, coef) = hits[0]
        return i if coef == 1 and expo.denominator == 1 else None

    def __add__(self, other: "LambdaElt") -> "LambdaElt":
        return _combine(self, other, add)

    def __neg__(self) -> "LambdaElt":
        return _elt(self.ctx, tuple(-f if f.num else f for f in self.coeffs))

    def __sub__(self, other: "LambdaElt") -> "LambdaElt":
        return _combine(self, other, sub)

    def __mul__(self, other) -> "LambdaElt":
        if isinstance(other, (QLaurent, int)):
            return _elt(self.ctx, tuple(f * other if f.num else f for f in self.coeffs))
        _same_ctx(self, other)
        ctx = self.ctx
        out = [ZERO] * ctx.rank
        right = [(j, g) for j, g in enumerate(other.coeffs) if g.num]
        for i, f in enumerate(self.coeffs):
            if not f.num:
                continue
            for j, g in right:
                fg = f * g
                for mu, mult in ctx.product_columns(i, j):
                    out[mu] = out[mu] + fg * mult
        return _elt(ctx, tuple(out))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LambdaElt":
        if n < 0:
            raise PreconditionError("negative powers are not defined")
        result = self.ctx.unit()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def augmentation(self) -> int:
        """Total degree: Σ f_i(1) · deg(λ_i)."""
        return sum(f.at_one() * self.ctx.table.degree(i)
                   for i, f in enumerate(self.coeffs))

    def __eq__(self, other) -> bool:
        return (isinstance(other, LambdaElt) and self.ctx == other.ctx
                and self.coeffs == other.coeffs)

    def __hash__(self) -> int:
        return hash((self.ctx.key(), self.coeffs))

    def __repr__(self) -> str:
        parts = [f"({f})·e{i}" for i, f in enumerate(self.coeffs) if not f.is_zero()]
        return " + ".join(parts) if parts else "0"


def _elt(ctx: LambdaCtx, coeffs: tuple) -> LambdaElt:
    """A LambdaElt from a tuple already known to have ctx.rank entries."""
    e = object.__new__(LambdaElt)
    object.__setattr__(e, "ctx", ctx)
    object.__setattr__(e, "coeffs", coeffs)
    return e


def _combine(a: LambdaElt, b: LambdaElt, op) -> LambdaElt:
    """a op b coefficient-wise, for op + or -: a's vector, changed at b's support."""
    _same_ctx(a, b)
    out = list(a.coeffs)
    for j, g in enumerate(b.coeffs):
        if g.num:
            out[j] = op(out[j], g)
    return _elt(a.ctx, tuple(out))


def _same_ctx(a: LambdaElt, b: LambdaElt):
    if a.ctx is not b.ctx and a.ctx != b.ctx:
        raise PreconditionError("elements live in different contexts")


def pairing(a: LambdaElt, b: LambdaElt) -> QLaurent:
    """The Z[q^Q]-valued pairing making the canonical basis orthonormal."""
    _same_ctx(a, b)
    out = ZERO
    for f, g in zip(a.coeffs, b.coeffs):
        out = out + f * g
    return out


def _basis_map(elt: LambdaElt, target: LambdaCtx, columns: dict, build,
               scale=None) -> LambdaElt:
    """Linear extension of a basis map i ↦ build(i) = [(j, coeff multiplier), ...].

    ``columns`` is the map's cache, one entry per source row.  ``scale``
    first substitutes q ↦ q^scale in every coefficient.
    """
    out = [ZERO] * target.rank
    for i, f in enumerate(elt.coeffs):
        if f.is_zero():
            continue
        if scale is not None:
            f = f.rescale(scale)
        for j, mult in memo(columns, i, build, i):
            out[j] = out[j] + f * mult
    return _elt(target, tuple(out))


def _restriction(elt: LambdaElt, target: LambdaCtx, cache: dict, key, prepare,
                 message: str, n: int = 1, row: bool = False) -> LambdaElt:
    """Restriction along a group map into elt's group, then q ↦ q^{1/n}.

    The map's entry ``cache[key]`` is (its class fusion of target.group into
    elt's group, its columns).  ``prepare()`` runs the map's checks and
    returns that pair; it runs only when the entry is built, so a failed
    check stores nothing.  A restricted row found in target's ``row_of`` is
    its own decomposition; ``row`` requires that.
    """
    src = elt.ctx
    fusion, columns = memo(cache, key, prepare)

    def column(i):
        values = tuple(map(src.table.rows[i].values.__getitem__, fusion))
        j = target.table.row_of.get(values)
        if j is not None:
            pairs = ((j, 1),)
        elif row:
            raise InternalCheckError("class function is not a row of the table")
        else:
            pairs = enumerate(decompose(ClassFunction(target.group, src.sctx, values),
                                        target.table))
        return _constituents(pairs, target, src.angles[i].as_integer_ratio(), message, n)

    return _basis_map(elt, target, columns, column, Fraction(1, n) if n > 1 else None)


def restrict_along(phi: GroupHom, elt: LambdaElt, target: LambdaCtx) -> LambdaElt:
    """Pull back along φ, on target.group ≤ φ's domain, into elt's group, with
    φ(target.g) = elt.g.

    A ring homomorphism; every constituent of a pulled-back basis character
    inherits its central angle unchanged.  The checks and the class fusion of
    target.group along φ are kept on φ per (elt's context, target); the
    (fusion, columns) pair is elt's ring's per fusion, so maps with equal
    fusions share it.
    """
    src, S = elt.ctx, target.group

    def prepare():
        # φ is a hom, so it carries S into src.group when it carries S's generators
        if not (phi.domain.is_subgroup(S) and all(phi(s) in src.group for s in S.generators)):
            raise PreconditionError("homomorphism does not match the contexts")
        if phi(target.g) != src.g:
            raise PreconditionError("homomorphism does not carry g to g")
        fusion = class_fusion(S, src.group, phi.image_of.__getitem__)
        return memo(src._decomp_cache, ("res", target, fusion), lambda: (fusion, {}))

    return _restriction(elt, target, phi._restrictions, (src, target), prepare,
                        "restricted constituent carries the wrong central angle")


def induce_to(elt: LambdaElt, target: LambdaCtx) -> LambdaElt:
    """Additive induction from Λ over S ≤ S' at the same central element."""
    src = elt.ctx
    index = target.group.order // src.group.order

    def prepare():
        if src.g != target.g:
            raise PreconditionError("induction must preserve the central element")
        if not target.group.is_subgroup(src.group):
            raise PreconditionError(f"{src.group.name} is not inside {target.group.name}")
        return {}

    def column(i):
        ind = induce_cf(target.group, src.group, src.table.rows[i])
        mults = decompose(ind, target.table)
        cols = _constituents(enumerate(mults), target, src.angles[i].as_integer_ratio(),
                             "induced constituent carries the wrong central angle")
        total = sum(m * target.table.degree(j) for j, m in enumerate(mults))
        if total != index * src.table.degree(i):
            raise InternalCheckError("induction degree mismatch")
        return cols

    return _basis_map(elt, target, memo(src._maps, ("ind", target), prepare), column)


def conjugate(elt: LambdaElt, w: Permutation, target: LambdaCtx) -> LambdaElt:
    """Transport along s ↦ w s w^{-1}: restriction along t ↦ w^{-1} t w, a
    ring isomorphism, so every restricted row is a row of target's table."""
    src = elt.ctx

    def prepare():
        wi = w.inverse()
        if target.g != w * src.g * wi:
            raise PreconditionError("conjugation does not carry g to target g")
        return class_fusion(target.group, src.group, lambda t: wi * t * w), {}

    return _restriction(elt, target, src._maps, ("conj", w, target), prepare,
                        "conjugation changed a central angle", row=True)


def mu_transport(elt: LambdaElt, n: int, target: LambdaCtx) -> LambdaElt:
    """Root transport from the ring at g^n down to the ring at g.

    Requires target.group ≤ elt group and elt.ctx.g == target.g ** n.  Sends
    coefficients f(q) to f(q^{1/n}) and the basis element (ρ,c) to
    Σ_λ ⟨ρ|, λ⟩ · q^{(c − n·d_λ)/n} · (λ, d_λ); a ring homomorphism.
    """
    if n < 1:
        raise PreconditionError("transport degree must be >= 1")
    src = elt.ctx

    def prepare():
        if src.g != target.g ** n:
            raise PreconditionError("source central element is not target g to the n")
        if not src.group.is_subgroup(target.group):
            raise PreconditionError("target group does not sit inside the source group")
        return class_fusion(target.group, src.group), {}

    return _restriction(elt, target, src._maps, ("mu", n, target), prepare,
                        "non-integral rotation shift in root transport", n)


def adams(elt: LambdaElt, m: int) -> LambdaElt:
    """Adams operation ψ^m: q ↦ q^m on coefficients, power map on the basis."""
    if m < 1:
        raise PreconditionError("Adams operation index must be >= 1")
    ctx = elt.ctx

    def column(i):
        a = ctx.angles[i]
        mults = decompose(adams_cf(ctx.table.rows[i], m), ctx.table, virtual=True)
        return _constituents(enumerate(mults), ctx, (m * a.numerator, a.denominator),
                             "Adams constituent carries the wrong central angle")

    return _basis_map(elt, ctx, memo(ctx._decomp_cache, ("adams", m), dict), column, m)


def exterior_power(elt: LambdaElt, k: int) -> LambdaElt:
    """λ^k via the Newton recurrence k·λ^k = Σ (-1)^{i-1} ψ^i(x) λ^{k-i}(x).

    λ⁰ = 1 and λ¹ = ψ¹ = x need no work, and the term ψ^i·λ⁰ is ψ^i itself,
    so step i forms only the products ψ^j·λ^{i-j} with 1 ≤ j < i: λ³ takes
    three products and ψ², ψ³.  Each division by i must be exact; failure
    signals a bug upstream.
    """
    if k < 0:
        raise PreconditionError("exterior power index must be >= 0")
    if k == 0:
        return elt.ctx.unit()
    lam = [None, elt]
    psi = [None, elt]
    for i in range(2, k + 1):
        psi.append(adams(elt, i))
        acc = elt * lam[i - 1]
        for j in range(2, i):
            term = psi[j] * lam[i - j]
            acc = acc + term if j % 2 else acc - term
        acc = acc + psi[i] if i % 2 else acc - psi[i]
        try:
            lam.append(_elt(elt.ctx, tuple(f.divide_int_exact(i) if f.num else f
                                           for f in acc.coeffs)))
        except PreconditionError as exc:
            raise InternalCheckError(f"Newton recurrence not integral: {exc}") from exc
    return lam[k]
