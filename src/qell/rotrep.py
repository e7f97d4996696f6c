"""Representation rings of rotation extensions S x R / <(g, -1)>.

For a finite group S with a chosen central element g, the representations of
the extension by loop rotation form a free Z[q^±]-module with one basis
element per irreducible λ of S.  The rotation partner of λ is forced by the
scalar through which g acts: writing λ(g) = e^{2πi c}·id with c in [0,1), the
basis element is the pair (λ, c) and q is the rotation line (triv, exponent 1).

Structure constants follow from evaluating actual representations:

* product:   (λ,c)(λ',c') carries rotation weight c+c'; folding the weight
  back into [0,1) extracts q^⌊c+c'⌋, so the product is
  q^⌊c+c'⌋ · Σ_μ ⟨λλ', μ⟩ (μ, frac(c+c')), and every constituent μ of λλ'
  has g-scalar e^{2πi(c+c')}; asserted at runtime.
* Adams ψ^m: group elements [h,t] power to [h^m, mt], so ψ^m sends q to q^m,
  coefficients f(q) to f(q^m), and (λ,c) to q^⌊mc⌋ Σ (ψ^m λ constituents,
  frac(mc)).
* n-th root transport: for S ≤ T with g^n central in T, restricting along
  the inclusion S x R/<(g^n,-1)> → T x R/<(g^n,-1)> and rescaling rotation
  speed by n identifies the target with the source extended by q^{1/n};
  chasing a basis element (ρ,c) through gives
  Σ_λ ⟨ρ|_S, λ⟩ q^{(c - n·d_λ)/n} (λ, d_λ), the exponent an integer over n
  because frac(n·d_λ) = c for every constituent; asserted at runtime.

All multiplicities are computed exactly in the scalar context's prime field.
"""

from __future__ import annotations

from fractions import Fraction

from .charmod import (
    CharacterTable,
    ClassFunction,
    ScalarContext,
    adams_cf,
    decompose,
    induce_cf,
    restrict_cf,
)
from .errors import InternalCheckError, PreconditionError
from .groups import FiniteGroup, GroupHom, Permutation, memo
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
            self.table.angle(i, g) for i in range(self.table.n_irr)
        )
        ordg = g.order()
        for c in self.angles:
            if ordg % c.denominator:
                raise InternalCheckError("angle denominator does not divide ord(g)")
        self.rank = self.table.n_irr
        self.trivial_row = self.table.irreducible_index(
            ClassFunction(group, sctx, [1] * self.rank))
        self._mul_cache: dict = {}
        self._decomp_cache: dict = {}

    def key(self):
        return (self.group.key(), self.g.images)

    def __eq__(self, other) -> bool:
        return isinstance(other, LambdaCtx) and self.key() == other.key() \
            and self.sctx is other.sctx

    def __hash__(self) -> int:
        return hash(self.key())

    def __repr__(self) -> str:
        return f"Lambda({self.group.name}, {self.g!r}; rank {self.rank})"

    # -- element constructors ------------------------------------------------

    def zero(self) -> "LambdaElt":
        return LambdaElt(self, (ZERO,) * self.rank)

    def unit(self) -> "LambdaElt":
        return self.basis_elt(self.trivial_row)

    def basis_elt(self, i: int, coeff: QLaurent = ONE) -> "LambdaElt":
        coeffs = [ZERO] * self.rank
        coeffs[i] = coeff
        return LambdaElt(self, tuple(coeffs))

    def from_coeffs(self, coeffs) -> "LambdaElt":
        coeffs = tuple(coeffs)
        if len(coeffs) != self.rank:
            raise PreconditionError("coefficient vector has wrong length")
        return LambdaElt(self, coeffs)

    def q(self, exponent=1) -> "LambdaElt":
        return self.unit() * q_power(exponent)

    def basis_product(self, i: int, j: int) -> list[QLaurent]:
        """Coefficients of basis_elt(i) * basis_elt(j), read off the cached
        structure constants."""
        coeffs = [ZERO] * self.rank
        for mu, mult in self._product_columns(i, j):
            coeffs[mu] = mult
        return coeffs

    def _product_columns(self, i: int, j: int):
        """Structure constants of basis product i*j: list of (μ, mult·q^shift)."""
        return memo(self._mul_cache, (i, j) if i <= j else (j, i),
                    self._multiply_basis, i, j)

    def _multiply_basis(self, i: int, j: int):
        c = self.angles[i] + self.angles[j]
        shift = int(c)    # 0 or 1
        return _constituents(self.table.product_multiplicities(i, j),
                             self, c - shift, "product", shift)


def _constituents(mults, target: LambdaCtx, angle: Fraction, what: str, shift=0):
    """Columns [(j, m·q^shift)] of the nonzero multiplicities m over target's rows.

    Every constituent must carry the central angle ``angle``.
    """
    cols = []
    for j, m in enumerate(mults):
        if m:
            if target.angles[j] != angle:
                raise InternalCheckError(
                    f"{what} constituent carries the wrong central angle")
            cols.append((j, monomial(m, shift)))
    return cols


def ctx_for(sctx: ScalarContext, group: FiniteGroup, g: Permutation) -> LambdaCtx:
    """Cached context for (group, central element)."""
    return memo(sctx._lambda_ctxs, (group.key(), g.images), LambdaCtx, sctx, group, g)


def ctx_build(G: FiniteGroup, g: Permutation, sctx: ScalarContext) -> LambdaCtx:
    """Context over the full centralizer of g in G."""
    conj = G.conjugacy()
    C = conj.centralizer(conj.class_index(g))
    return ctx_for(sctx, C, g)


class LambdaElt:
    """Element of a rotation-extension representation ring.

    Coefficient vector over the canonical basis; coefficients live in Z[q^Q]
    so fractional-exponent extensions need no separate type.
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
        _same_ctx(self, other)
        return LambdaElt(self.ctx, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "LambdaElt":
        return LambdaElt(self.ctx, tuple(-a for a in self.coeffs))

    def __sub__(self, other: "LambdaElt") -> "LambdaElt":
        return self + (-other)

    def __mul__(self, other) -> "LambdaElt":
        if isinstance(other, (QLaurent, int)):
            return LambdaElt(self.ctx, tuple(f * other for f in self.coeffs))
        _same_ctx(self, other)
        out = [ZERO] * self.ctx.rank
        for i, fi in enumerate(self.coeffs):
            if fi.is_zero():
                continue
            for j, gj in enumerate(other.coeffs):
                if gj.is_zero():
                    continue
                fg = fi * gj
                for mu, mult in self.ctx._product_columns(i, j):
                    out[mu] = out[mu] + fg * mult
        return LambdaElt(self.ctx, tuple(out))

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


def _same_ctx(a: LambdaElt, b: LambdaElt):
    if a.ctx != b.ctx:
        raise PreconditionError("elements live in different contexts")


def pairing(a: LambdaElt, b: LambdaElt) -> QLaurent:
    """The Z[q^Q]-valued pairing making the canonical basis orthonormal."""
    _same_ctx(a, b)
    out = ZERO
    for f, g in zip(a.coeffs, b.coeffs):
        out = out + f * g
    return out


def _basis_map(elt: LambdaElt, target: LambdaCtx, key, build,
               scale=None) -> LambdaElt:
    """Linear extension of a basis map i ↦ build(i) = [(j, coeff multiplier), ...].

    Columns are cached on the source context, one dict per ``key`` with one
    entry per source row.  ``scale`` first substitutes q ↦ q^scale in every
    coefficient.
    """
    columns = memo(elt.ctx._decomp_cache, key, dict)
    out = [ZERO] * target.rank
    for i, f in enumerate(elt.coeffs):
        if f.is_zero():
            continue
        if scale is not None:
            f = f.rescale(scale)
        for j, mult in memo(columns, i, build, i):
            out[j] = out[j] + f * mult
    return LambdaElt(target, tuple(out))


def restrict_along(phi: GroupHom, elt: LambdaElt, target: LambdaCtx) -> LambdaElt:
    """Pull back along φ: target.group -> elt group with φ(target.g) = elt.g.

    A ring homomorphism; every constituent of a pulled-back basis character
    inherits its central angle unchanged.
    """
    src = elt.ctx
    if phi.domain != target.group or phi.codomain != src.group:
        raise PreconditionError("homomorphism does not match the contexts")
    if phi(target.g) != src.g:
        raise PreconditionError("homomorphism does not carry g to g")
    hom_key = tuple(phi(x).images for x in target.group.elements)

    def column(i):
        mults = decompose(restrict_cf(phi, src.table.rows[i]), target.table)
        return _constituents(mults, target, src.angles[i], "restricted")

    return _basis_map(elt, target, ("res", target.key(), hom_key), column)


def induce_to(elt: LambdaElt, target: LambdaCtx) -> LambdaElt:
    """Additive induction from Λ over S ≤ S' at the same central element."""
    src = elt.ctx
    if src.g != target.g:
        raise PreconditionError("induction must preserve the central element")
    if not target.group.is_subgroup(src.group):
        raise PreconditionError(f"{src.group.name} is not inside {target.group.name}")
    index = target.group.order // src.group.order

    def column(i):
        ind = induce_cf(target.group, src.group, src.table.rows[i])
        mults = decompose(ind, target.table)
        cols = _constituents(mults, target, src.angles[i], "induced")
        total = sum(m * target.table.degree(j) for j, m in enumerate(mults))
        if total != index * src.table.degree(i):
            raise InternalCheckError("induction degree mismatch")
        return cols

    return _basis_map(elt, target, ("ind", target.key()), column)


def conjugate(elt: LambdaElt, w: Permutation, target: LambdaCtx) -> LambdaElt:
    """Transport along s ↦ w s w^{-1}; a ring isomorphism preserving angles."""
    src = elt.ctx
    wi = w.inverse()
    if target.g != w * src.g * wi:
        raise PreconditionError("conjugation does not carry g to target g")

    def column(i):
        chi = src.table.rows[i]
        src_conj = src.group.conjugacy()
        values = [chi.values[src_conj.class_index(wi * rep * w)]
                  for rep in target.group.conjugacy().class_reps]
        j = target.table.irreducible_index(
            ClassFunction(target.group, src.sctx, values))
        if target.angles[j] != src.angles[i]:
            raise InternalCheckError("conjugation changed a central angle")
        return [(j, ONE)]

    return _basis_map(elt, target, ("conj", w.images, target.key()), column)


def mu_transport(elt: LambdaElt, n: int, target: LambdaCtx) -> LambdaElt:
    """Root transport from the ring at g^n down to the ring at g.

    Requires target.group ≤ elt group and elt.ctx.g == target.g ** n.  Sends
    coefficients f(q) to f(q^{1/n}) and the basis element (ρ,c) to
    Σ_λ ⟨ρ|, λ⟩ · q^{(c − n·d_λ)/n} · (λ, d_λ); a ring homomorphism.
    """
    if n < 1:
        raise PreconditionError("transport degree must be >= 1")
    src = elt.ctx
    if src.g != target.g ** n:
        raise PreconditionError("source central element is not target g to the n")
    if not src.group.is_subgroup(target.group):
        raise PreconditionError("target group does not sit inside the source group")
    incl = GroupHom.inclusion(target.group, src.group)

    def column(i):
        c = src.angles[i]
        mults = decompose(restrict_cf(incl, src.table.rows[i]), target.table)
        cols = []
        for j, m in enumerate(mults):
            if m:
                num = c - n * target.angles[j]
                if num.denominator != 1:
                    raise InternalCheckError(
                        "non-integral rotation shift in root transport"
                    )
                cols.append((j, monomial(m, Fraction(num, n))))
        return cols

    return _basis_map(elt, target, ("mu", n, target.key()), column, Fraction(1, n))


def adams(elt: LambdaElt, m: int) -> LambdaElt:
    """Adams operation ψ^m: q ↦ q^m on coefficients, power map on the basis."""
    if m < 1:
        raise PreconditionError("Adams operation index must be >= 1")
    ctx = elt.ctx

    def column(i):
        c = m * ctx.angles[i]
        shift = int(c)
        mults = decompose(adams_cf(ctx.table.rows[i], m), ctx.table, virtual=True)
        return _constituents(mults, ctx, c - shift, "Adams", shift)

    return _basis_map(elt, ctx, ("adams", m), column, m)


def exterior_power(elt: LambdaElt, k: int) -> LambdaElt:
    """λ^k via the Newton recurrence k·λ^k = Σ (-1)^{i-1} ψ^i(x) λ^{k-i}(x).

    Each division by k must be exact; failure signals a bug upstream.
    """
    if k < 0:
        raise PreconditionError("exterior power index must be >= 0")
    lam = [elt.ctx.unit()]
    psi = [None]
    for i in range(1, k + 1):
        psi.append(adams(elt, i))
        acc = elt.ctx.zero()
        sign = 1
        for j in range(1, i + 1):
            term = psi[j] * lam[i - j]
            acc = acc + (term if sign > 0 else -term)
            sign = -sign
        try:
            lam.append(LambdaElt(elt.ctx,
                                 tuple(f.divide_int_exact(i) for f in acc.coeffs)))
        except PreconditionError as exc:
            raise InternalCheckError(f"Newton recurrence not integral: {exc}") from exc
    return lam[k]
