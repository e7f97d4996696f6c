"""The quasi-elliptic cohomology of a finite G-set, with its structural maps.

A structure fixes, per torsion conjugacy class representative g, the fixed
set X^g cut into centralizer orbits, and attaches to each orbit the
representation ring of the rotation-extended stabilizer at g.  Elements carry
one coefficient vector per orbit.  Every map that lands on a non-representative
element or point reads the component at its class and orbit representatives
and conjugates it there in one step along cached transport elements
(``value_at_element``, ``_moved``), so all operations are deterministic
functions; each route and each conjugated ring is found once.

Every pullback is one map of pairs (φ: K -> G, f: X -> Y) with
f(k·x) = φ(k)·f(x), i.e. of global quotients X//K -> Y//G (``_pullback``):
``pullback_hom`` is (φ, id), ``pullback_map`` is (id, f), and
``change_of_group`` is (H ≤ G, x ↦ [e, x]).
"""

from __future__ import annotations

import random

from . import rotrep as rr
from .charmod import ScalarContext
from .errors import InternalCheckError, PreconditionError
from .groups import (
    FiniteGroup,
    GroupHom,
    Permutation,
    class_fusion,
    conjugate_subgroup,
    make_hom,
    memo,
    product_pair,
    product_split,
)
from .gsets import FiniteGSet, induced_gset, inertia_skeleton, point_set, product_gset
from .qlaurent import QLaurent, ZERO, q_power
from .rotrep import LambdaCtx, LambdaElt


class QEllStructure:
    """QEll_G(X): components indexed by (conjugacy class, centralizer orbit)."""

    def __init__(self, G: FiniteGroup, X: FiniteGSet, sctx: ScalarContext):
        if X.group != G:
            raise PreconditionError("X is not a G-set for the given group")
        sctx.check_group(G)
        self.group = G
        self.gset = X
        self.sctx = sctx
        self.conjugacy = G.conjugacy()
        self.classes = tuple(inertia_skeleton(G, X))
        for cb in self.classes:       # one representation ring per orbit
            cb.ctxs = tuple(rr.ctx_for(sctx, orb.stabilizer, cb.g) for orb in cb.orbits)
        self._routes: dict = {}       # (h, point) -> (class, orbit, transport or None)
        self._powers: dict = {}       # n -> the class reps' n-th powers

    @property
    def n_classes(self) -> int:
        return len(self.classes)

    def total_rank(self) -> int:
        return sum(ctx.rank for cb in self.classes for ctx in cb.ctxs)

    def zero(self) -> "QEllElt":
        return QEllElt(self, tuple(tuple(ctx.zero() for ctx in cb.ctxs)
                                   for cb in self.classes))

    def unit(self) -> "QEllElt":
        return QEllElt(self, tuple(tuple(ctx.unit() for ctx in cb.ctxs)
                                   for cb in self.classes))

    def q(self, exponent=1) -> "QEllElt":
        return self.unit() * q_power(exponent)

    def key(self):
        return (self.group.key(), self.gset.key())

    def __eq__(self, other) -> bool:
        return isinstance(other, QEllStructure) and self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())

    def __repr__(self) -> str:
        ranks = "/".join(str(sum(cb.ranks)) for cb in self.classes)
        return f"QEll[{self.group.name}, {self.gset.name}; ranks {ranks}]"


def structure(G: FiniteGroup, X: FiniteGSet, sctx: ScalarContext) -> QEllStructure:
    """Cached structure constructor (one object per (G, X) and context)."""
    return memo(sctx._structures, (G.key(), X.key()), QEllStructure, G, X, sctx)


class QEllElt:
    """An element: one rotation-ring element per (class, orbit) component."""

    __slots__ = ("structure", "components")

    def __init__(self, struct: QEllStructure, components):
        object.__setattr__(self, "structure", struct)
        object.__setattr__(self, "components", tuple(tuple(c) for c in components))
        if len(self.components) != struct.n_classes:
            raise PreconditionError("component count does not match the structure")
        for comp, cb in zip(self.components, struct.classes):
            if len(comp) != len(cb.orbits):
                raise PreconditionError("orbit count does not match the structure")
            for v, ctx in zip(comp, cb.ctxs):
                if v.ctx is not ctx and v.ctx != ctx:
                    raise PreconditionError("component does not live in its orbit's ring")

    def __setattr__(self, name, value):
        raise AttributeError("QEllElt is immutable")

    def _zip(self, other, op):
        if self.structure != other.structure:
            raise PreconditionError("elements live on different structures")
        return QEllElt(self.structure,
                       tuple(tuple(op(a, b) for a, b in zip(ca, cb))
                             for ca, cb in zip(self.components, other.components)))

    def __add__(self, other: "QEllElt") -> "QEllElt":
        return self._zip(other, lambda a, b: a + b)

    def __sub__(self, other: "QEllElt") -> "QEllElt":
        return self._zip(other, lambda a, b: a - b)

    def __neg__(self) -> "QEllElt":
        return QEllElt(self.structure,
                       tuple(tuple(-a for a in ca) for ca in self.components))

    def __mul__(self, other):
        if isinstance(other, (QLaurent, int)):
            return QEllElt(self.structure,
                           tuple(tuple(a * other for a in ca) for ca in self.components))
        return self._zip(other, lambda a, b: a * b)

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return all(a.is_zero() for ca in self.components for a in ca)

    def __eq__(self, other) -> bool:
        return (isinstance(other, QEllElt)
                and self.structure == other.structure
                and self.components == other.components)

    def __hash__(self) -> int:
        return hash((self.structure.key(), self.components))

    def __repr__(self) -> str:
        lines = []
        for cb, comp in zip(self.structure.classes, self.components):
            for orb, v in zip(cb.orbits, comp):
                if not v.is_zero():
                    lines.append(f"@({cb.g!r}, pt {orb.rep}): {v!r}")
        return "QEllElt[" + ("; ".join(lines) if lines else "0") + "]"


# ---------------------------------------------------------------------------
# point evaluation with transport

def _moved(v: LambdaElt, w: Permutation, G: FiniteGroup) -> LambdaElt:
    """v transported along s ↦ w s w⁻¹, onto the ring over w S w⁻¹ at w g w⁻¹;
    that ring is found once per w on v's ring."""
    src = v.ctx
    return rr.conjugate(v, w, memo(src._conjugates, w, _conjugated_ctx, src, w, G))


def _conjugated_ctx(src: LambdaCtx, w: Permutation, G: FiniteGroup) -> LambdaCtx:
    return rr.ctx_for(src.sctx, conjugate_subgroup(G, src.group, w),
                      w * src.g * w.inverse())


def value_at_element(elt: QEllElt, h: Permutation, point: int) -> LambdaElt:
    """Component at an arbitrary torsion element h and point of X^h.

    Conjugates from the class representative of h, then transports within
    the orbit, in one step; the result lives over the stabilizer of
    ``point`` in C_G(h).
    """
    struct = elt.structure
    ci, oi, w = memo(struct._routes, (h, point), _route, struct, h, point)
    v = elt.components[ci][oi]
    return v if w is None else _moved(v, w, struct.group)


def _route(struct: QEllStructure, h: Permutation, point: int):
    """(class, orbit, w): with h = u·g·u⁻¹ for g the class rep, ``point`` is
    u·t·rep for the orbit rep and its transport t, and w = u·t (None if e)."""
    ci, u = struct.conjugacy.transport_to_rep(h)
    cb = struct.classes[ci]
    if u != struct.group.identity:
        point = struct.gset.act(u.inverse(), point)
    oi = cb.orbit_of_point[point]
    w = u * cb.orbits[oi].transport[point]
    return ci, oi, None if w == struct.group.identity else w


# ---------------------------------------------------------------------------
# pullbacks along maps of pairs

def _pullback(phi: GroupHom, points, elt: QEllElt, X: FiniteGSet) -> QEllElt:
    """Pullback along (φ: K -> G, f: X -> Y) with f(k·x) = φ(k)·f(x), from
    QEll_G(Y) to QEll_K(X); ``points[x]`` is f(x).  The component at (τ, x)
    restricts elt's value at (φ(τ), f(x)) along φ."""
    target = structure(X.group, X, elt.structure.sctx)
    return QEllElt(target, [
        [rr.restrict_along(phi, value_at_element(elt, phi(cb.g), points[orb.rep]), tctx)
         for orb, tctx in zip(cb.orbits, cb.ctxs)]
        for cb in target.classes])


def pullback_hom(phi: GroupHom, elt: QEllElt) -> QEllElt:
    """Restriction along φ: K -> G, from QEll_G(X) to QEll_K(X via φ)."""
    src = elt.structure
    if phi.codomain != src.group:
        raise PreconditionError("hom codomain does not match the element's group")
    return _pullback(phi, src.gset.points(), elt, src.gset.via_hom(phi))


def pullback_map(point_map, elt: QEllElt, X: FiniteGSet) -> QEllElt:
    """Pullback along an equivariant map of G-sets f: X -> Y, elt over (G, Y).

    ``point_map[x]`` is f(x), checked equivariant on G's generators, which X
    and Y, as actions, extend to all of G.  φ is G's identity, the one hom
    ``change_of_group`` keeps on G, so restriction entries stay warm.
    """
    src = elt.structure
    G = src.group
    Y = src.gset
    point_map = list(point_map)
    if X.group != G:
        raise PreconditionError("X is not a set for the element's group")
    if len(point_map) != X.n_points:
        raise PreconditionError("point map does not cover X")
    if any(not 0 <= y < Y.n_points for y in point_map):
        raise PreconditionError("point map leaves the target set")
    for g in G.generators:
        for x in X.points():
            if point_map[X.act(g, x)] != Y.act(g, point_map[x]):
                raise PreconditionError("point map is not equivariant")
    return _pullback(_inclusion(G, G), point_map, elt, X)


# ---------------------------------------------------------------------------
# Künneth

def _kunneth_index(ctxA: LambdaCtx, ctxB: LambdaCtx, ctxP: LambdaCtx,
                   P: FiniteGroup) -> dict:
    """(i, j) -> basis row of ctxP carrying the external product character."""
    return memo(ctxP._decomp_cache, ("kun", ctxA.key(), ctxB.key()),
                _kunneth_table, ctxA, ctxB, ctxP, P)


def _factor_fusions(S: FiniteGroup, P: FiniteGroup, A: FiniteGroup, B: FiniteGroup):
    """The class fusions of S <= P into A and B along P's two projections."""
    return (class_fusion(S, A, lambda x: product_split(P, x)[0]),
            class_fusion(S, B, lambda x: product_split(P, x)[1]))


def _kunneth_table(ctxA: LambdaCtx, ctxB: LambdaCtx, ctxP: LambdaCtx,
                   P: FiniteGroup) -> dict:
    parts = list(zip(*_factor_fusions(ctxP.group, P, ctxA.group, ctxB.group)))
    table = {}
    p = ctxP.sctx.p
    for i in range(ctxA.rank):
        va = ctxA.table.rows[i].values
        for j in range(ctxB.rank):
            vb = ctxB.table.rows[j].values
            k = ctxP.table.row_of.get(tuple(va[a] * vb[b] % p for a, b in parts))
            if k is None:
                raise InternalCheckError("class function is not a row of the table")
            c = ctxA.angles[i] + ctxB.angles[j]
            if ctxP.angles[k] != c - int(c):
                raise InternalCheckError("product basis element has wrong angle")
            table[(i, j)] = (k, int(c))
    return table


def kunneth(a: QEllElt, b: QEllElt, P: FiniteGroup, XY: FiniteGSet) -> QEllElt:
    """The multiplicative external product landing in QEll_{GxH}(X x Y)."""
    sa, sb = a.structure, b.structure
    if P.factors is None:
        raise PreconditionError("P must be a direct product group")
    if P.factors != (sa.group, sb.group):
        raise PreconditionError(
            f"P's factors are not the factors' groups {sa.group.name} and {sb.group.name}")
    if XY != product_gset(sa.gset, sb.gset, P):
        raise PreconditionError("XY is not the product of the factors' G-sets under P")
    sctx = sa.sctx
    if sctx is not sb.sctx:
        raise PreconditionError("factors built over different scalar contexts")
    target = structure(P, XY, sctx)
    nY = sb.gset.n_points
    conjA, conjB = sa.conjugacy, sb.conjugacy
    out = []
    for cb, gi, hi in zip(target.classes, *_factor_fusions(P, P, sa.group, sb.group)):
        if product_pair(P, conjA.class_reps[gi], conjB.class_reps[hi]) != cb.g:
            raise InternalCheckError("product class rep is not a pair of reps")
        row = []
        for orb, tctx in zip(cb.orbits, cb.ctxs):
            x, y = divmod(orb.rep, nY)
            cbA = sa.classes[gi]
            cbB = sb.classes[hi]
            oa = cbA.orbit_of_point[x]
            ob = cbB.orbit_of_point[y]
            if cbA.orbits[oa].rep != x or cbB.orbits[ob].rep != y:
                raise InternalCheckError("product orbit rep is not a pair of reps")
            va = a.components[gi][oa]
            vb = b.components[hi][ob]
            ctxA, ctxB = cbA.ctxs[oa], cbB.ctxs[ob]
            index = _kunneth_index(ctxA, ctxB, tctx, P)
            coeffs = [ZERO] * tctx.rank
            for i, f in enumerate(va.coeffs):
                if f.is_zero():
                    continue
                for j, g2 in enumerate(vb.coeffs):
                    if g2.is_zero():
                        continue
                    k, shift = index[(i, j)]
                    coeffs[k] = coeffs[k] + (f * g2).shift(shift)
            row.append(LambdaElt(tctx, coeffs))
        out.append(row)
    return QEllElt(target, out)


# ---------------------------------------------------------------------------
# change of group

def change_of_group(G: FiniteGroup, H: FiniteGroup, X: FiniteGSet,
                    elt: QEllElt) -> QEllElt:
    """Forward map QEll_G(G x_H X) -> QEll_H(X): the pullback along (H ≤ G, x ↦ [e, x]).

    The inclusion H -> G is checked once per (H, G) and kept on G, so its
    restriction entries stay warm across calls."""
    incl = memo(G._induced, (H.key(),), _inclusion, H, G)
    src = elt.structure
    Z = induced_gset(G, H, X)
    if src.gset != Z:
        raise PreconditionError("element does not live on the induced G-set")
    # The identity is element 0 of every group, and the only pair in the
    # H-orbit of [e, x] with element index 0 is (0, x): that is its label.
    # Labels are sorted, so the (0, x) come first and [e, x] is point x.
    # Then x ↦ [e, x] is H-equivariant: h·[e, x] = [h, x] = [e, h·x].
    for x in X.points():
        if Z.labels[x] != (0, x):
            raise InternalCheckError(
                "[e, x] is not point x: induced G-set labels must sort the (0, x) first")
    return _pullback(incl, X.points(), elt, X)


def _inclusion(H: FiniteGroup, G: FiniteGroup) -> GroupHom:
    """The inclusion H -> G as G's identity: a pullback reads φ on subgroups
    of H only, so every H <= G shares one hom, the inclusion of G itself."""
    if not G.is_subgroup(H):
        raise PreconditionError(f"{H.name} is not a subgroup of {G.name}")
    return memo(G._induced, (G.key(),), GroupHom.identity_on, G)


def change_of_group_inverse(G: FiniteGroup, H: FiniteGroup, X: FiniteGSet,
                            elt: QEllElt) -> QEllElt:
    """Assemble QEll_G(G x_H X) from QEll_H(X) by conjugation transport."""
    if not G.is_subgroup(H):
        raise PreconditionError(f"{H.name} is not a subgroup of {G.name}")
    src = elt.structure
    if src.group != H or src.gset != X:
        raise PreconditionError("element does not live on (H, X)")
    sctx = src.sctx
    Z = induced_gset(G, H, X)
    target = structure(G, Z, sctx)
    out = []
    for cb in target.classes:
        sigma = cb.g
        row = []
        for orb, tctx in zip(cb.orbits, cb.ctxs):
            gi_label, x = Z.labels[orb.rep]
            u = G.elements[gi_label]
            h = u.inverse() * sigma * u
            if h not in H or X.act(h, x) != x:
                raise InternalCheckError("induced fixed point fails the descent test")
            v = value_at_element(elt, h, x)
            if u == G.identity:
                if v.ctx != tctx:
                    raise InternalCheckError("stabilizer mismatch in reassembly")
                row.append(v)
            else:
                row.append(rr.conjugate(v, u, tctx))
        out.append(row)
    return QEllElt(target, out)


# ---------------------------------------------------------------------------
# transfer

def transfer(G: FiniteGroup, elt: QEllElt, X: FiniteGSet | None = None,
             algorithm: str = "A") -> QEllElt:
    """Wrong-way map QEll_H(X|_H) -> QEll_G(X) for H the element's group.

    Algorithm A composes the change-of-group isomorphism with the pushforward
    along the finite covering G x_H X -> X.  Algorithm B is the explicit
    per-class sum of conjugated inductions; it applies only to X = pt.
    """
    H = elt.structure.group
    if algorithm not in ("A", "B"):
        raise PreconditionError(f"unknown transfer algorithm {algorithm!r}: expected 'A' or 'B'")
    if algorithm == "B":
        return _transfer_point_sum(G, elt)
    if X is None:
        raise PreconditionError("algorithm A needs the ambient G-set")
    XH = X.restrict_group(H)
    if elt.structure.gset != XH:
        raise PreconditionError("element does not live on X restricted to H")
    zelt = change_of_group_inverse(G, H, XH, elt)
    Z = induced_gset(G, H, XH)
    if zelt.structure.gset != Z:
        raise InternalCheckError("induced set drifted between constructions")
    cover = memo(Z._covers, X.key(), _cover, G, Z, X)
    target = structure(G, X, elt.structure.sctx)
    zstruct = zelt.structure
    out = []
    for ci, cb in enumerate(target.classes):
        zcb = zstruct.classes[ci]
        row = []
        for orb, tctx in zip(cb.orbits, cb.ctxs):
            fiber = [z for z in zcb.fixed if cover[z] == orb.rep]
            acc = tctx.zero()
            done = set()
            for z in fiber:
                if z in done:
                    continue
                piece = {Z.act(s, z) for s in orb.stabilizer.elements}
                done.update(piece)
                v = value_at_element(zelt, zcb.g, z)
                acc = acc + rr.induce_to(v, tctx)
            row.append(acc)
        out.append(row)
    return QEllElt(target, out)


def _cover(G: FiniteGroup, Z: FiniteGSet, X: FiniteGSet) -> list[int]:
    """The covering map G x_H X -> X, [g, x] ↦ g·x, equivariant on generators."""
    cover = [X.act(G.elements[gi], x) for (gi, x) in Z.labels]
    for g in G.generators:
        for z in Z.points():
            if cover[Z.act(g, z)] != X.act(g, cover[z]):
                raise InternalCheckError("covering map is not equivariant")
    return cover


def _transfer_point_sum(G: FiniteGroup, elt: QEllElt) -> QEllElt:
    H = elt.structure.group
    if elt.structure.gset.n_points != 1:
        raise PreconditionError("algorithm B applies only to the one-point set")
    if not G.is_subgroup(H):
        raise PreconditionError(f"{H.name} is not a subgroup of {G.name}")
    target = structure(G, point_set(G), elt.structure.sctx)
    acc = [cb.ctxs[0].zero() for cb in target.classes]
    for hi, h0 in enumerate(H.conjugacy().class_reps):
        ci, w = G.conjugacy().transport_to_rep(h0)
        # h0 == w g w^{-1} for g the class rep, so w^{-1} moves h0 to g
        moved = _moved(elt.components[hi][0], w.inverse(), G)
        acc[ci] = acc[ci] + rr.induce_to(moved, target.classes[ci].ctxs[0])
    return QEllElt(target, [[a] for a in acc])


# ---------------------------------------------------------------------------
# the root-transport family

def mu(elt: QEllElt, n: int) -> QEllElt:
    """The n-th root transport; a ring map with values in (1/n)-exponents."""
    if n < 1:
        raise PreconditionError("mu degree must be >= 1")
    struct = elt.structure
    powers = memo(struct._powers, n, lambda: tuple(cb.g ** n for cb in struct.classes))
    out = []
    for cb, gn in zip(struct.classes, powers):
        row = []
        for orb, tctx in zip(cb.orbits, cb.ctxs):
            v = value_at_element(elt, gn, orb.rep)
            row.append(rr.mu_transport(v, n, tctx))
        out.append(row)
    return QEllElt(struct, out)


def adams(elt: QEllElt, m: int) -> QEllElt:
    return QEllElt(elt.structure,
                   tuple(tuple(rr.adams(v, m) for v in comp)
                         for comp in elt.components))


def exterior_power(elt: QEllElt, k: int) -> QEllElt:
    return QEllElt(elt.structure,
                   tuple(tuple(rr.exterior_power(v, k) for v in comp)
                         for comp in elt.components))


# ---------------------------------------------------------------------------
# verification payloads

def free_quotient(elt: QEllElt) -> list[tuple[int, QLaurent]]:
    """For a free action: the e-component as plain K(X/G) x Z[q^±] data."""
    struct = elt.structure
    G = struct.group
    X = struct.gset
    for x in X.points():
        for g in G.elements:
            if g != G.identity and X.act(g, x) == x:
                raise PreconditionError("action not free")
    out = []
    for ci, cb in enumerate(struct.classes):
        if cb.g == G.identity:
            for orb, v in zip(cb.orbits, elt.components[ci]):
                if v.ctx.rank != 1:
                    raise InternalCheckError("free orbit has a nontrivial stabilizer")
                out.append((orb.rep, v.coeffs[0]))
        else:
            if cb.fixed:
                raise InternalCheckError("free action with a nonempty twisted sector")
    return out


def trivial_split(elt: QEllElt) -> list[tuple[QEllElt, QEllElt]]:
    """Factor an element over (G x H, X) with trivial H-action into tensors.

    Returns pairs (a_i, b_i) with Σ kunneth(a_i, b_i) equal to the input;
    b_i runs over the canonical basis of QEll_H(pt).
    """
    struct = elt.structure
    P = struct.group
    if P.factors is None:
        raise PreconditionError("element's group is not a direct product")
    G, H = P.factors
    X = struct.gset
    for h in H.generators:
        ph = product_pair(P, G.identity, h)
        for x in X.points():
            if X.act(ph, x) != x:
                raise PreconditionError("H-action not trivial")
    sctx = struct.sctx
    XG = X.via_hom(make_hom(G, P, [product_pair(P, a, H.identity) for a in G.generators]))
    sG = structure(G, XG, sctx)
    sH = structure(H, point_set(H), sctx)
    pieces: dict[tuple[int, int], list] = {}     # (hi, j) -> a_i's component lists
    fusions = _factor_fusions(P, P, G, H)
    for ci, (cb, gi, hi) in enumerate(zip(struct.classes, *fusions)):
        cbG = sG.classes[gi]
        ctxB = sH.classes[hi].ctxs[0]
        for oi, (orb, v) in enumerate(zip(cb.orbits, elt.components[ci])):
            x = orb.rep
            oa = cbG.orbit_of_point[x]
            ctxA = cbG.ctxs[oa]
            index = _kunneth_index(ctxA, ctxB, cb.ctxs[oi], P)
            back = {k: (i, j, shift) for (i, j), (k, shift) in index.items()}
            for k, f in enumerate(v.coeffs):
                if f.is_zero():
                    continue
                i, j, shift = back[k]
                if (hi, j) not in pieces:
                    pieces[(hi, j)] = [list(row) for row in sG.zero().components]
                comp = pieces[(hi, j)]
                comp[gi][oa] = comp[gi][oa] + ctxA.basis_elt(i, f.shift(-shift))
    out = []
    for (hi, j) in sorted(pieces):
        b = [list(row) for row in sH.zero().components]
        b[hi][0] = sH.classes[hi].ctxs[0].basis_elt(j)
        out.append((QEllElt(sG, pieces[(hi, j)]), QEllElt(sH, b)))
    return out


# ---------------------------------------------------------------------------
# randomized elements for property testing

def random_element(struct: QEllStructure, rng: random.Random) -> QEllElt:
    """Deterministic pseudo-random element given a seeded Random."""
    comps = []
    for cb in struct.classes:
        row = []
        for ctx in cb.ctxs:
            coeffs = []
            for _ in range(ctx.rank):
                if rng.random() < 0.6:
                    terms = [(rng.randint(-2, 2), rng.randint(-3, 3))
                             for _ in range(rng.randint(1, 2))]
                    coeffs.append(QLaurent(terms))
                else:
                    coeffs.append(ZERO)
            row.append(ctx.from_coeffs(coeffs))
        comps.append(row)
    return QEllElt(struct, comps)
