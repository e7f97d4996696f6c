"""The quasi-elliptic cohomology of a finite G-set, with its structural maps.

A structure fixes, per torsion conjugacy class representative g, the fixed
set X^g cut into centralizer orbits, and attaches to each orbit the
representation ring of the rotation-extended stabilizer at g.  Elements carry
one coefficient vector per orbit.  Every map that lands on a non-representative
element or point routes through conjugation transport along cached coset
representatives, so all operations are deterministic functions.
"""

from __future__ import annotations

import random
from fractions import Fraction

from . import rotrep as rr
from .charmod import ClassFunction, ScalarContext
from .errors import InternalCheckError, PreconditionError
from .groups import (
    FiniteGroup,
    GroupHom,
    Permutation,
    conjugate_subgroup,
    memo,
    product_split,
)
from .gsets import FiniteGSet, induced_gset, inertia_skeleton, point_set
from .qlaurent import QLaurent, ZERO, q_power
from .rotrep import LambdaCtx, LambdaElt


class ClassBlock:
    """Orbit decomposition of X^g with one representation ring per orbit."""

    def __init__(self, sctx: ScalarContext, entry):
        self.g = entry.g
        self.centralizer = entry.centralizer
        self.fixed = entry.fixed
        self.orbits = entry.orbits
        self.orbit_of_point = entry.orbit_of_point
        self.ctxs = tuple(rr.ctx_for(sctx, orb.stabilizer, entry.g)
                          for orb in entry.orbits)

    @property
    def ranks(self):
        return tuple(ctx.rank for ctx in self.ctxs)


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
        self.skeleton = inertia_skeleton(G, X)
        self.classes = tuple(ClassBlock(sctx, e) for e in self.skeleton.entries)

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

def value_at(elt: QEllElt, ci: int, point: int) -> LambdaElt:
    """The component of elt at (class ci, point), transported from the orbit rep."""
    struct = elt.structure
    cb = struct.classes[ci]
    oi = cb.orbit_of_point[point]
    orb = cb.orbits[oi]
    v = elt.components[ci][oi]
    if point == orb.rep:
        return v
    t = orb.transport[point]
    S = conjugate_subgroup(struct.group, orb.stabilizer, t)
    return rr.conjugate(v, t, rr.ctx_for(struct.sctx, S, cb.g))


def value_at_element(elt: QEllElt, h: Permutation, point: int) -> LambdaElt:
    """Component at an arbitrary torsion element h and point of X^h.

    Conjugates from the class representative of h, then transports within
    the orbit; the result lives over the stabilizer of ``point`` in C_G(h).
    """
    struct = elt.structure
    conj = struct.conjugacy
    ci, w = conj.transport_to_rep(h)
    if w == struct.group.identity:
        return value_at(elt, ci, point)
    y = struct.gset.act(w.inverse(), point)
    v = value_at(elt, ci, y)           # over Λ_{Stab(y)}(rep)
    S = conjugate_subgroup(struct.group, v.ctx.group, w)
    return rr.conjugate(v, w, rr.ctx_for(struct.sctx, S, h))


# ---------------------------------------------------------------------------
# pullbacks

def pullback_hom(phi: GroupHom, elt: QEllElt, sctx=None) -> QEllElt:
    """Restriction along φ: G -> H, from QEll_H(X) to QEll_G(X via φ)."""
    src = elt.structure
    if phi.codomain != src.group:
        raise PreconditionError("hom codomain does not match the element's group")
    sctx = sctx or src.sctx
    target = structure(phi.domain, src.gset.via_hom(phi), sctx)
    H_conj = src.conjugacy
    out = []
    for cb in target.classes:
        tau = cb.g
        h = phi(tau)
        row = []
        for orb, tctx in zip(cb.orbits, cb.ctxs):
            v = value_at_element(elt, h, orb.rep)
            psi = GroupHom(orb.stabilizer, v.ctx.group,
                           {s: phi(s) for s in orb.stabilizer.elements}, check=False)
            row.append(rr.restrict_along(psi, v, tctx))
        out.append(row)
    return QEllElt(target, out)


def pullback_map(point_map, elt: QEllElt, X: FiniteGSet) -> QEllElt:
    """Pullback along an equivariant map of G-sets f: X -> Y, elt over (G, Y).

    ``point_map[x]`` is f(x).  Equivariance is checked.
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
    for g in G.elements:
        for x in X.points():
            if point_map[X.act(g, x)] != Y.act(g, point_map[x]):
                raise PreconditionError("point map is not equivariant")
    target = structure(G, X, src.sctx)
    out = []
    for ci, cb in enumerate(target.classes):
        row = []
        for orb, tctx in zip(cb.orbits, cb.ctxs):
            y = point_map[orb.rep]
            v = value_at(elt, ci, y)
            incl = GroupHom.inclusion(orb.stabilizer, v.ctx.group)
            row.append(rr.restrict_along(incl, v, tctx))
        out.append(row)
    return QEllElt(target, out)


# ---------------------------------------------------------------------------
# Künneth

def _kunneth_index(ctxA: LambdaCtx, ctxB: LambdaCtx, ctxP: LambdaCtx,
                   P: FiniteGroup) -> dict:
    """(i, j) -> basis row of ctxP carrying the external product character."""
    return memo(ctxP._decomp_cache, ("kun", ctxA.key(), ctxB.key()),
                _kunneth_table, ctxA, ctxB, ctxP, P)


def _kunneth_table(ctxA: LambdaCtx, ctxB: LambdaCtx, ctxP: LambdaCtx,
                   P: FiniteGroup) -> dict:
    reps = ctxP.group.conjugacy().class_reps
    parts = [product_split(P, rep) for rep in reps]
    conjA = ctxA.group.conjugacy()
    conjB = ctxB.group.conjugacy()
    table = {}
    p = ctxP.sctx.p
    for i in range(ctxA.rank):
        va = ctxA.table.rows[i]
        for j in range(ctxB.rank):
            vb = ctxB.table.rows[j]
            values = [va.values[conjA.class_index(a)] * vb.values[conjB.class_index(b)] % p
                      for (a, b) in parts]
            k = ctxP.table.irreducible_index(
                ClassFunction(ctxP.group, ctxP.sctx, values))
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
    sctx = sa.sctx
    if sctx is not sb.sctx:
        raise PreconditionError("factors built over different scalar contexts")
    target = structure(P, XY, sctx)
    nY = sb.gset.n_points
    conjA, conjB = sa.conjugacy, sb.conjugacy
    out = []
    for cb in target.classes:
        sigma, tau = product_split(P, cb.g)
        gi = conjA.class_index(sigma)
        hi = conjB.class_index(tau)
        if conjA.class_reps[gi] != sigma or conjB.class_reps[hi] != tau:
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
    """Forward map QEll_G(G x_H X) -> QEll_H(X): restrict, then evaluate at [e, x]."""
    if not G.is_subgroup(H):
        raise PreconditionError(f"{H.name} is not a subgroup of {G.name}")
    src = elt.structure
    Z = induced_gset(G, H, X)
    if src.gset != Z:
        raise PreconditionError("element does not live on the induced G-set")
    incl = GroupHom.inclusion(H, G)
    pulled = pullback_hom(incl, elt)
    # The identity is element 0 of every group, and the only pair in the
    # H-orbit of [e, x] with element index 0 is (0, x): that is its label.
    # Labels are sorted, so the (0, x) come first and [e, x] is point x.
    for x in X.points():
        if Z.labels[x] != (0, x):
            raise InternalCheckError(
                "[e, x] is not point x: induced G-set labels must sort the (0, x) first")
    return pullback_map(range(X.n_points), pulled, X)


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
    cover = [X.act(G.elements[gi], x) for (gi, x) in Z.labels]
    for g in G.elements:
        for z in Z.points():
            if cover[Z.act(g, z)] != X.act(g, cover[z]):
                raise InternalCheckError("covering map is not equivariant")
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
                v = value_at(zelt, ci, z)
                acc = acc + rr.induce_to(v, tctx)
            row.append(acc)
        out.append(row)
    return QEllElt(target, out)


def _transfer_point_sum(G: FiniteGroup, elt: QEllElt) -> QEllElt:
    H = elt.structure.group
    if elt.structure.gset.n_points != 1:
        raise PreconditionError("algorithm B applies only to the one-point set")
    if not G.is_subgroup(H):
        raise PreconditionError(f"{H.name} is not a subgroup of {G.name}")
    sctx = elt.structure.sctx
    target = structure(G, point_set(G), sctx)
    acc = [cb.ctxs[0].zero() for cb in target.classes]
    for hi, h0 in enumerate(H.conjugacy().class_reps):
        ci, w = G.conjugacy().transport_to_rep(h0)
        r = w.inverse()               # r^{-1} g r == h0 for g the class rep
        cb = target.classes[ci]
        v = elt.components[hi][0]
        S = conjugate_subgroup(G, v.ctx.group, r)
        moved = rr.conjugate(v, r, rr.ctx_for(sctx, S, cb.g))
        acc[ci] = acc[ci] + rr.induce_to(moved, cb.ctxs[0])
    return QEllElt(target, [[a] for a in acc])


# ---------------------------------------------------------------------------
# the root-transport family

def mu(elt: QEllElt, n: int) -> QEllElt:
    """The n-th root transport; a ring map with values in (1/n)-exponents."""
    if n < 1:
        raise PreconditionError("mu degree must be >= 1")
    struct = elt.structure
    out = []
    for cb in struct.classes:
        gn = cb.g ** n
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
    from .groups import product_pair
    for h in H.elements:
        ph = product_pair(P, G.identity, h)
        for x in X.points():
            if X.act(ph, x) != x:
                raise PreconditionError("H-action not trivial")
    sctx = struct.sctx
    XG = FiniteGSet(G, X.n_points,
                    {a: tuple(X.act(product_pair(P, a, H.identity), x)
                              for x in X.points())
                     for a in G.elements},
                    name=f"{X.name}|left", check=False)
    sG = structure(G, XG, sctx)
    sH = structure(H, point_set(H), sctx)
    conjG, conjH = sG.conjugacy, sH.conjugacy
    pieces: dict[tuple[int, int], QEllElt] = {}
    for ci, cb in enumerate(struct.classes):
        sigma, tau = product_split(P, cb.g)
        gi = conjG.class_index(sigma)
        hi = conjH.class_index(tau)
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
                piece_key = (hi, j)
                if piece_key not in pieces:
                    pieces[piece_key] = sG.zero()
                comp = [list(row) for row in pieces[piece_key].components]
                comp[gi][oa] = comp[gi][oa] + ctxA.basis_elt(i, f.shift(-shift))
                pieces[piece_key] = QEllElt(sG, comp)
    out = []
    for (hi, j) in sorted(pieces):
        b = sH.zero().components
        b = [list(row) for row in b]
        b[hi][0] = sH.classes[hi].ctxs[0].basis_elt(j)
        out.append((pieces[(hi, j)], QEllElt(sH, b)))
    return out


def tate_presentation_report(N: int, sctx: ScalarContext | None = None) -> dict:
    """Check the cyclic-group components are Z[q^±][x]/(x^N - q^m) on the nose.

    For each component m: the canonical generator is the basis element pairing
    the dual generator character with angle m/N; its N-th power must equal
    q^m, and its lower powers must sweep the remaining basis elements up to
    integral q-shifts.
    """
    from .groups import cyclic
    if N < 1:
        raise PreconditionError("N must be >= 1")
    G = cyclic(N)
    sctx = sctx or ScalarContext.for_groups([G])
    struct = structure(G, point_set(G), sctx)
    s = G.generators[0] if N > 1 else G.identity
    conj = struct.conjugacy
    table = sctx.table(G)
    zN = sctx.root_of_unity(N) if N > 1 else 1
    gen_rows = [i for i in range(table.n_irr) if table.rows[i](s) == zN % sctx.p]
    report = {"N": N, "components": [], "ok": True}
    if len(gen_rows) != 1:
        raise InternalCheckError("dual generator character is not unique")
    j1 = gen_rows[0]
    for m in range(N):
        g = s ** m
        ci = conj.class_index(g)
        if conj.class_reps[ci] != g:
            raise InternalCheckError("cyclic group class rep is not the element")
        ctx = struct.classes[ci].ctxs[0]
        entry = {"m": m, "rank": ctx.rank, "rank_ok": ctx.rank == N}
        angle_ok = ctx.angles[j1] == Fraction(m % N, N) if N > 1 else True
        x = ctx.basis_elt(j1)
        power = ctx.unit()
        seen_rows = set()
        powers_ok = True
        for jexp in range(1, N):
            power = power * x
            idx = power.basis_index()
            if idx is None:
                powers_ok = False
                break
            seen_rows.add(idx)
        xn_ok = powers_ok and (power * x) == ctx.q(m)
        cover_ok = powers_ok and seen_rows == set(range(ctx.rank)) - {ctx.trivial_row}
        entry.update({"angle_ok": angle_ok, "xN_ok": xn_ok,
                      "powers_cover_basis": cover_ok})
        entry["ok"] = all((entry["rank_ok"], angle_ok, xn_ok, powers_ok, cover_ok))
        report["components"].append(entry)
        report["ok"] = report["ok"] and entry["ok"]
    return report


# ---------------------------------------------------------------------------
# randomized elements for property testing

def random_element(struct: QEllStructure, rng: random.Random,
                   density: float = 0.6, max_terms: int = 2) -> QEllElt:
    """Deterministic pseudo-random element given a seeded Random."""
    comps = []
    for cb in struct.classes:
        row = []
        for ctx in cb.ctxs:
            coeffs = []
            for _ in range(ctx.rank):
                if rng.random() < density:
                    terms = [(rng.randint(-2, 2), rng.randint(-3, 3))
                             for _ in range(rng.randint(1, max_terms))]
                    coeffs.append(QLaurent(terms))
                else:
                    coeffs.append(ZERO)
            row.append(ctx.from_coeffs(coeffs))
        comps.append(row)
    return QEllElt(struct, comps)
