"""The quasi-elliptic cohomology of a finite G-set, with its structural maps.

A structure fixes, per torsion conjugacy class representative g, the fixed
set X^g cut into centralizer orbits, and attaches to each orbit the
representation ring of the rotation-extended stabilizer at g.  Elements carry
one coefficient vector per orbit.  Every map reads an element at (h, point)
through one helper, ``_read``: the component at the class and orbit
representatives, found once per (h, point) with the one element w
conjugating them there, and the map's entry out of the ring at (h, point)
with that conjugation folded into its columns.

Each structural map is a plan, built once per (source structure, map kind,
arguments) in the source's one registry ``_plans`` (``groups.memo``; a
pullback along a hom, known by identity, keeps its plan on the hom, keyed
by the source's scalar context and structure), after
every check of the map has passed.  A plan names its target structure and,
for each target (class, orbit), the (source class, source orbit, column
getter) terms that it sums; every piece of group work (images of class
reps, routes, descent tests, covers and fiber orbits, transports, product
sets and fusions) runs while the plan is built.  A warm call looks its plan
up and applies it (``_apply``): one pass of ``rotrep.apply_sum`` per output
component, no conjugated element and no group work.  All operations are
deterministic functions.

Every pullback is one map of pairs (φ: K -> G, f: X -> Y) with
f(k·x) = φ(k)·f(x), i.e. of global quotients X//K -> Y//G (``_pullback``):
``pullback_hom`` is (φ, id), ``pullback_map`` is (id, f), and
``change_of_group`` is (H ≤ G, x ↦ [e, x]).

Künneth reads G x H by the index law of ``groups``: class ci of G x H is
(class ci // k_H of G, class ci % k_H of H), and point t of X x Y is
divmod(t, |Y|), both checked at the reps; ``trivial_split`` reads that plan.
"""

from __future__ import annotations

import random
from fractions import Fraction

from . import rotrep as rr
from .charmod import ScalarContext
from .errors import InternalCheckError, PreconditionError
from .groups import (
    FiniteGroup,
    GroupHom,
    Permutation,
    conjugate_subgroup,
    make_hom,
    memo,
    product_pair,
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
        self._hash = hash(self.key())
        # ("route", h, point) -> (class, orbit, transport or None); (map kind,
        # *arguments) -> the map's plan, from this structure (``_apply``);
        # pullback_hom keeps its plans on the hom
        self._plans: dict = {}

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
        return self._hash

    def __repr__(self) -> str:
        ranks = "/".join(str(sum(cb.ranks)) for cb in self.classes)
        return f"QEll[{self.group.name}, {self.gset.name}; ranks {ranks}]"


def structure(G: FiniteGroup, X: FiniteGSet, sctx: ScalarContext) -> QEllStructure:
    """Cached structure constructor: one object per context, G with its
    presentation (generators and spec, which a document writes back), and X."""
    return memo(sctx._structures, (G.key(), G.generators, G.spec, X.key()),
                QEllStructure, G, X, sctx)


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

def value_at_element(elt: QEllElt, h: Permutation, point: int) -> LambdaElt:
    """Component at an arbitrary torsion element h and point of X^h.

    Conjugates from the class representative of h, then transports within
    the orbit, in one step; the result lives over the stabilizer of
    ``point`` in C_G(h).
    """
    struct = elt.structure
    ci, oi, w = memo(struct._plans, ("route", h, point), _route, struct, h, point)
    v = elt.components[ci][oi]
    return v if w is None else rr.apply_columns(
        v.coeffs, *memo(v.ctx._maps, ("at", w), _conjugation, v.ctx, w, struct.group))


def _route(struct: QEllStructure, h: Permutation, point: int):
    """(class, orbit, w): with h = u·g·u⁻¹ for g the class rep, ``point`` is
    u·t·rep for the orbit rep and its transport t, and w = u·t (None if e)."""
    ci, u = struct.conjugacy.transport_to_rep(h)
    cb, X = struct.classes[ci], struct.gset
    if not (0 <= point < X.n_points and X.act(h, point) == point):
        raise PreconditionError(f"{point!r} is not a point of {X.name} fixed by {h!r}")
    if u != struct.group.identity:
        point = X.act(u.inverse(), point)
    oi = cb.orbit_of_point[point]
    w = u * cb.orbits[oi].transport[point]
    return ci, oi, None if w == struct.group.identity else w


def _read(struct: QEllStructure, h: Permutation, point: int, columns, *args, n: int = 1):
    """(class, orbit, getter) of the map ``columns(ctx, *args)`` out of ctx,
    the ring at (h, point), applied with scale (1, n): the route's component
    and the entry with the route's conjugation folded into its columns."""
    ci, oi, w = memo(struct._plans, ("route", h, point), _route, struct, h, point)
    return ci, oi, _along(struct.classes[ci].ctxs[oi], w, struct.group, n, columns, *args)


def _along(src: LambdaCtx, w, G: FiniteGroup, n: int, columns, *args) -> rr.MapEntry:
    """The entry ``columns(·, *args)`` out of src conjugated along w ∈ G, or
    out of src if w is None; the fold is kept on src per (w, entry)."""
    if w is None:
        return columns(src, *args)
    conj, conj_column = memo(src._maps, ("at", w), _conjugation, src, w, G)
    entry = columns(conj, *args)
    return memo(src._maps, ("fold", w, entry), rr.MapEntry, _fold, conj_column, entry, n)


def _conjugation(src: LambdaCtx, w: Permutation, G: FiniteGroup):
    """The ring over w S w⁻¹ at w g w⁻¹, and the entry of the conjugation onto it."""
    conj = rr.ctx_for(src.sctx, conjugate_subgroup(G, src.group, w), w * src.g * w.inverse())
    return conj, rr.conjugate_columns(src, w, conj)


def _fold(conj_column, column, n: int, i: int):
    """The column of the one row j that conjugation sends row i to.  Its term
    is 1·q⁰ unless an angle check let an integral shift through, which the
    fold carries through the scale (1, n) as q^{shift/n}."""
    (j, t), = conj_column(i)
    if t.num == ((0, 1),):
        return column(j)
    t = t.rescale(Fraction(1, n))
    return tuple((k, t * m) for k, m in column(j))


def _apply(plan, components) -> tuple:
    """The target components of ``plan`` = (target, rows, scale) applied to
    ``components``: rows[ci][oi] lists the (class, orbit, getter) terms read
    from the source, summed by one kernel pass."""
    target, rows, scale = plan
    apply_sum = rr.apply_sum
    return tuple(tuple(apply_sum(tctx, [(components[ci][oi].coeffs, column)
                                        for ci, oi, column in terms], scale)
                       for terms, tctx in zip(row, cb.ctxs))
                 for row, cb in zip(rows, target.classes))


def _mapped(plan, elt: QEllElt) -> QEllElt:
    return QEllElt(plan[0], _apply(plan, elt.components))


# ---------------------------------------------------------------------------
# pullbacks along maps of pairs

def _pullback(src: QEllStructure, phi: GroupHom, points, X: FiniteGSet) -> tuple:
    """The plan of the pullback along (φ: K -> G, f: X -> Y) with f(k·x) =
    φ(k)·f(x), from QEll_G(Y) to QEll_K(X); ``points[x]`` is f(x).  The
    component at (τ, x) restricts the value at (φ(τ), f(x)) along φ."""
    target = structure(X.group, X, src.sctx)
    return target, tuple(
        tuple((_read(src, phi(cb.g), points[orb.rep], rr.restriction_columns, phi, tctx),)
              for orb, tctx in zip(cb.orbits, cb.ctxs))
        for cb in target.classes), (1, 1)


def pullback_hom(phi: GroupHom, elt: QEllElt) -> QEllElt:
    """Restriction along φ: K -> G, from QEll_G(X) to QEll_K(X via φ).

    A hom is known by identity, so its plans are kept on the hom and go with
    it: a caller who builds a hom per call adds nothing that outlives the
    hom.  Structures over two scalar contexts can be equal, so the key holds
    the source's context as well."""
    src = elt.structure
    return _mapped(memo(phi._restrictions, ("pullback", src.sctx, src), _pullback_hom_plan,
                        src, phi), elt)


def _pullback_hom_plan(src: QEllStructure, phi: GroupHom) -> tuple:
    if phi.codomain != src.group:
        raise PreconditionError("hom codomain does not match the element's group")
    return _pullback(src, phi, src.gset.points(), src.gset.via_hom(phi))


def pullback_map(point_map, elt: QEllElt, X: FiniteGSet) -> QEllElt:
    """Pullback along an equivariant map of G-sets f: X -> Y, elt over (G, Y).

    ``point_map[x]`` is f(x), checked equivariant on G's generators, which X
    and Y, as actions, extend to all of G.  φ is G's identity, the one hom
    ``change_of_group`` keeps on G, so restriction entries stay warm.
    """
    src = elt.structure
    point_map = tuple(point_map)
    return _mapped(memo(src._plans, ("pullback_map", point_map, X), _pullback_map_plan,
                        src, point_map, X), elt)


def _pullback_map_plan(src: QEllStructure, point_map: tuple, X: FiniteGSet) -> tuple:
    G = src.group
    Y = src.gset
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
    return _pullback(src, _inclusion(G, G), point_map, X)


# ---------------------------------------------------------------------------
# Künneth

def kunneth(a: QEllElt, b: QEllElt, P: FiniteGroup, XY: FiniteGSet) -> QEllElt:
    """The multiplicative external product landing in QEll_{GxH}(X x Y): at
    each pair of reps, the factors' components through their Künneth entry.
    The plan lists, per target (class, orbit), the factors' (class, orbit)
    pair and the entry (columns, inverse)."""
    sa, sb = a.structure, b.structure
    # P's factors and sb's context are no part of the plan's key: checked per call
    if P.factors is None:
        raise PreconditionError("P must be a direct product group")
    if P.factors != (sa.group, sb.group):
        raise PreconditionError(
            f"P's factors are not the factors' groups {sa.group.name} and {sb.group.name}")
    target, rows = memo(sa._plans, ("kunneth", sb, P, XY), _kunneth_plan, sa, sb, P, XY)
    if sa.sctx is not sb.sctx:
        raise PreconditionError("factors built over different scalar contexts")
    ca, cb = a.components, b.components
    return QEllElt(target, tuple(
        tuple(rr.apply_product(ca[gi][oa], cb[hi][ob], tctx, columns)
              for (gi, oa, hi, ob, (columns, _)), tctx in zip(row, tcb.ctxs))
        for row, tcb in zip(rows, target.classes)))


def _kunneth_plan(sa: QEllStructure, sb: QEllStructure, P: FiniteGroup, XY: FiniteGSet):
    if XY != product_gset(sa.gset, sb.gset, P):
        raise PreconditionError("XY is not the product of the factors' G-sets under P")
    if sa.sctx is not sb.sctx:      # so that no entry joins two contexts
        raise PreconditionError("factors built over different scalar contexts")
    target = structure(P, XY, sa.sctx)
    nY, kH = sb.gset.n_points, sb.conjugacy.n_classes
    rows = []
    for ci, cb in enumerate(target.classes):
        gi, hi = divmod(ci, kH)
        if product_pair(P, sa.conjugacy.class_reps[gi], sb.conjugacy.class_reps[hi]) != cb.g:
            raise InternalCheckError("product class rep is not a pair of reps")
        cbA, cbB = sa.classes[gi], sb.classes[hi]
        row = []
        for orb, tctx in zip(cb.orbits, cb.ctxs):
            x, y = divmod(orb.rep, nY)
            oa, ob = cbA.orbit_of_point[x], cbB.orbit_of_point[y]
            if cbA.orbits[oa].rep != x or cbB.orbits[ob].rep != y:
                raise InternalCheckError("product orbit rep is not a pair of reps")
            row.append((gi, oa, hi, ob, rr.kunneth_columns(cbA.ctxs[oa], cbB.ctxs[ob], tctx)))
        rows.append(tuple(row))
    return target, tuple(rows)


# ---------------------------------------------------------------------------
# change of group

def change_of_group(G: FiniteGroup, H: FiniteGroup, X: FiniteGSet,
                    elt: QEllElt) -> QEllElt:
    """Forward map QEll_G(G x_H X) -> QEll_H(X): the pullback along (H ≤ G, x ↦ [e, x]).

    The inclusion H -> G is checked once per (H, G) and kept on G, so its
    restriction entries stay warm across calls."""
    src = elt.structure
    return _mapped(memo(src._plans, ("change_of_group", G, H, X), _change_of_group_plan,
                        src, G, H, X), elt)


def _change_of_group_plan(src: QEllStructure, G: FiniteGroup, H: FiniteGroup,
                          X: FiniteGSet) -> tuple:
    incl = _inclusion(H, G)
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
    return _pullback(src, incl, X.points(), X)


def _inclusion(H: FiniteGroup, G: FiniteGroup) -> GroupHom:
    """The inclusion H -> G as G's identity: a pullback reads φ on subgroups
    of H only, so every H <= G shares one hom, the inclusion of G itself."""
    if not G.is_subgroup(H):
        raise PreconditionError(f"{H.name} is not a subgroup of {G.name}")
    return memo(G._induced, (G.key(),), GroupHom.identity_on, G)


def change_of_group_inverse(G: FiniteGroup, H: FiniteGroup, X: FiniteGSet,
                            elt: QEllElt) -> QEllElt:
    """Assemble QEll_G(G x_H X) from QEll_H(X) by conjugation transport."""
    src = elt.structure
    return _mapped(_inverse_plan(src, G, H, X), elt)


def _inverse_plan(src: QEllStructure, G: FiniteGroup, H: FiniteGroup, X: FiniteGSet):
    return memo(src._plans, ("change_of_group_inverse", G, H, X),
                _change_of_group_inverse_plan, src, G, H, X)


def _change_of_group_inverse_plan(src: QEllStructure, G: FiniteGroup, H: FiniteGroup,
                                  X: FiniteGSet) -> tuple:
    """Per target (class, orbit) with least label [u, x]: the value at
    (u⁻¹·g·u, x), conjugated along u."""
    if not G.is_subgroup(H):
        raise PreconditionError(f"{H.name} is not a subgroup of {G.name}")
    if src.group != H or src.gset != X:
        raise PreconditionError("element does not live on (H, X)")
    Z = induced_gset(G, H, X)
    target = structure(G, Z, src.sctx)
    rows = []
    for cb in target.classes:
        row = []
        for orb, tctx in zip(cb.orbits, cb.ctxs):
            gi_label, x = Z.labels[orb.rep]
            u = G.elements[gi_label]
            h = u.inverse() * cb.g * u
            if h not in H or X.act(h, x) != x:
                raise InternalCheckError("induced fixed point fails the descent test")
            row.append((_read(src, h, x, _reassembly, u, tctx),))
        rows.append(tuple(row))
    return target, tuple(rows), (1, 1)


def _reassembly(ctx: LambdaCtx, u: Permutation, tctx: LambdaCtx) -> rr.MapEntry:
    """The conjugation along u from ctx onto tctx; along e, ctx must be tctx."""
    if u == ctx.group.identity and ctx != tctx:
        raise InternalCheckError("stabilizer mismatch in reassembly")
    return rr.conjugate_columns(ctx, u, tctx)


# ---------------------------------------------------------------------------
# transfer

def transfer(G: FiniteGroup, elt: QEllElt, X: FiniteGSet | None = None,
             algorithm: str = "A") -> QEllElt:
    """Wrong-way map QEll_H(X|_H) -> QEll_G(X) for H the element's group.

    Algorithm A composes the change-of-group isomorphism with the pushforward
    along the finite covering G x_H X -> X: two plans, the second applied to
    the components the first makes.  Algorithm B is the explicit per-class
    sum of conjugated inductions; it applies only to X = pt.
    """
    if algorithm not in ("A", "B"):
        raise PreconditionError(f"unknown transfer algorithm {algorithm!r}: expected 'A' or 'B'")
    if algorithm == "B":
        if X is not None and (X.group != G or X.n_points != 1):
            raise PreconditionError(f"algorithm B lands on the one-point set, not on {X.name}")
        return _transfer_point_sum(G, elt)
    if X is None:
        raise PreconditionError("algorithm A needs the ambient G-set")
    src = elt.structure
    inverse, push = memo(src._plans, ("transfer_A", G, X), _transfer_plan, src, G, X)
    return QEllElt(push[0], _apply(push, _apply(inverse, elt.components)))


def _transfer_plan(src: QEllStructure, G: FiniteGroup, X: FiniteGSet) -> tuple:
    """(change of group inverse onto Z = G x_H X, pushforward along Z -> X):
    per target (class, orbit), one induction per stabilizer orbit of its
    fiber, read at a point of it."""
    H = src.group
    XH = X.restrict_group(H)
    if src.gset != XH:
        raise PreconditionError("element does not live on X restricted to H")
    inverse = _inverse_plan(src, G, H, src.gset)
    Z = induced_gset(G, H, XH)
    zstruct = inverse[0]
    if zstruct.gset != Z:
        raise InternalCheckError("induced set drifted between constructions")
    cover = _cover(G, Z, X)
    target = structure(G, X, src.sctx)
    rows = []
    for cb, zcb in zip(target.classes, zstruct.classes):
        row = []
        for orb, tctx in zip(cb.orbits, cb.ctxs):
            terms, done = [], set()
            for z in zcb.fixed:     # one point per stabilizer orbit of the fiber
                if cover[z] == orb.rep and z not in done:
                    done.update(Z.act(s, z) for s in orb.stabilizer.elements)
                    terms.append(_read(zstruct, zcb.g, z, rr.induction_columns, tctx))
            row.append(tuple(terms))
        rows.append(tuple(row))
    return inverse, (target, tuple(rows), (1, 1))


def _cover(G: FiniteGroup, Z: FiniteGSet, X: FiniteGSet) -> list[int]:
    """The covering map G x_H X -> X, [g, x] ↦ g·x, equivariant on generators."""
    cover = [X.act(G.elements[gi], x) for (gi, x) in Z.labels]
    for g in G.generators:
        for z in Z.points():
            if cover[Z.act(g, z)] != X.act(g, cover[z]):
                raise InternalCheckError("covering map is not equivariant")
    return cover


def _transfer_point_sum(G: FiniteGroup, elt: QEllElt) -> QEllElt:
    src = elt.structure
    return _mapped(memo(src._plans, ("transfer_B", G), _transfer_point_plan, src, G), elt)


def _transfer_point_plan(src: QEllStructure, G: FiniteGroup) -> tuple:
    """Per class of G: the inductions of the H-classes fusing into it, each
    read along the inverse of its transport to G's class rep."""
    H = src.group
    if src.gset.n_points != 1:
        raise PreconditionError("algorithm B applies only to the one-point set")
    if not G.is_subgroup(H):
        raise PreconditionError(f"{H.name} is not a subgroup of {G.name}")
    target = structure(G, point_set(G), src.sctx)
    terms = [[] for _ in target.classes]
    for hi, h0 in enumerate(H.conjugacy().class_reps):
        ci, w = G.conjugacy().transport_to_rep(h0)
        # h0 == w g w^{-1} for g the class rep, so w^{-1} moves h0 to g
        terms[ci].append((hi, 0, _along(src.classes[hi].ctxs[0], None if w == G.identity
                                        else w.inverse(), G, 1, rr.induction_columns,
                                        target.classes[ci].ctxs[0])))
    return target, tuple((tuple(t),) for t in terms), (1, 1)


# ---------------------------------------------------------------------------
# the root-transport family

def mu(elt: QEllElt, n: int) -> QEllElt:
    """The n-th root transport; a ring map with values in (1/n)-exponents.

    The component at (g, x) is the value at (g^n, x), transported by μ^n;
    the structure's plan for n names its source component and getter, so a
    warm call is one pass over each source's nonzero coefficients."""
    if n < 1:
        raise PreconditionError("mu degree must be >= 1")
    struct = elt.structure
    return _mapped(memo(struct._plans, ("mu", n), _mu_plan, struct, n), elt)


def _mu_plan(struct: QEllStructure, n: int) -> tuple:
    """Per (class, orbit): ``_read`` of μ^n of the value at (g^n, x)."""
    return struct, tuple(tuple((_read(struct, cb.g ** n, orb.rep, rr.mu_columns, n, tctx, n=n),)
                               for orb, tctx in zip(cb.orbits, cb.ctxs))
                         for cb in struct.classes), (1, n)


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
    b_i runs over the canonical basis of QEll_H(pt).  As H acts trivially,
    X is X_G x pt for X_G = X via G -> G x H, so the Künneth plan of
    (QEll_G(X_G), QEll_H(pt)) names each (class, orbit)'s G-slot (gi, oa),
    H-class hi and entry, checked there: the entry's index (i, j) -> k is a
    bijection, read backwards by its inverse, and the slots of one piece
    (hi, j) are disjoint, so each input coefficient is written once.
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
    _, rows = memo(sG._plans, ("kunneth", sH, P, X), _kunneth_plan, sG, sH, P, X)
    pieces: dict = {}     # (hi, j) -> {(gi, oa): a_i's coefficients at that slot}
    for row, comp in zip(rows, elt.components):
        for (gi, oa, hi, _, (_, inverse)), v in zip(row, comp):
            for k, f in enumerate(v.coeffs):
                if f.num:
                    i, j, shift = inverse[k]
                    piece = pieces.setdefault((hi, j), {})
                    slot = piece.get((gi, oa)) or piece.setdefault(
                        (gi, oa), [ZERO] * sG.classes[gi].ctxs[oa].rank)
                    slot[i] = f.shift(-shift)
    out = []
    for (hi, j), piece in sorted(pieces.items()):
        a = [[ctx.from_coeffs(piece[(gi, oa)]) if (gi, oa) in piece else ctx.zero()
              for oa, ctx in enumerate(cb.ctxs)] for gi, cb in enumerate(sG.classes)]
        b = [list(row) for row in sH.zero().components]
        b[hi][0] = sH.classes[hi].ctxs[0].basis_elt(j)
        out.append((QEllElt(sG, a), QEllElt(sH, b)))
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
