"""Finite G-sets and the combinatorial skeleton of the constant-loop groupoid.

A caller's action table is checked on generator edges, with the check
homomorphisms use (``groups.broken_edges``); a set that qell derives from
sets and groups already checked is an action by construction and is not
checked again.  The inertia skeleton lists, per torsion conjugacy class
representative g, the fixed set X^g together with its decomposition into
centralizer orbits; every downstream structure map works through the
canonical orbit representatives and cached transport elements recorded here.
"""

from __future__ import annotations

from .errors import InternalCheckError, NotSubgroupError, PreconditionError
from .groups import FiniteGroup, GroupHom, Permutation, broken_edges, memo


class FiniteGSet:
    """A finite set {0..n-1} with a verified action table ``{g: row}``, row[x] = g·x."""

    def __init__(self, group: FiniteGroup, n_points: int, table: dict, name: str = "",
                 labels=None):
        self.group = group
        self.n_points = int(n_points)
        self._table = {g: tuple(row) for g, row in table.items()}
        self._key = None
        self._hash = None
        self.name = name or f"gset<{group.name}:{self.n_points}>"
        self.labels = list(labels) if labels is not None else None
        self._verify()

    def _verify(self):
        """A row of n points for exactly G's elements, the identity's
        trivial, the generators' bijective and no broken edge: an action."""
        G, table, points = self.group, self._table, tuple(range(self.n_points))
        if self.n_points < 0:
            raise PreconditionError(f"{self.name}: negative number of points")
        if table.keys() != G._index.keys():
            raise PreconditionError(f"{self.name}: table rows are not the elements of {G.name}")
        if table[G.identity] != points:
            raise PreconditionError(f"{self.name}: identity does not act trivially")
        for g, row in table.items():     # a short row would break the edge check
            if len(row) != len(points) or g in G.generators and sorted(row) != list(points):
                raise PreconditionError(f"{self.name}: {g!r} does not act bijectively")
        for g, h in broken_edges(G, table):
            x = next(x for x in points if table[g * h][x] != table[g][table[h][x]])
            raise PreconditionError(f"{self.name}: action not compatible at ({g!r}, {h!r}, {x})")

    def act(self, g: Permutation, x: int) -> int:
        return self._table[g][x]

    def points(self) -> range:
        return range(self.n_points)

    def restrict_group(self, H: FiniteGroup) -> "FiniteGSet":
        """Same points, action restricted to a subgroup H <= G."""
        if not self.group.is_subgroup(H):
            raise NotSubgroupError(f"{H.name} is not a subgroup of {self.group.name}")
        return _Derived(H, self.n_points, {h: self._table[h] for h in H.elements},
                        name=f"{self.name}|{H.name}", labels=self.labels)

    def via_hom(self, phi: GroupHom) -> "FiniteGSet":
        """Same points, G acting through phi: G -> group of self."""
        if phi.codomain != self.group:
            raise PreconditionError("hom codomain does not act on this set")
        return _Derived(phi.domain, self.n_points,
                        {g: self._table[phi(g)] for g in phi.domain.elements},
                        name=f"{self.name}*{phi.domain.name}", labels=self.labels)

    def key(self):
        """Structural identity: group key, size and every action row."""
        if self._key is None:
            self._key = (self.group.key(), self.n_points,
                         tuple(self._table[g] for g in self.group.elements))
        return self._key

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        return isinstance(other, FiniteGSet) and self.key() == other.key()

    def __hash__(self) -> int:
        if self._hash is None:      # the action is fixed once checked
            self._hash = hash(self.key())
        return self._hash

    def __repr__(self) -> str:
        return f"{self.name} ({self.n_points} points)"


class _Derived(FiniteGSet):
    """A set built from checked parts, an action by construction: the point
    set is trivial; restriction to H <= G and pullback along a hom into G
    compose a checked action with a checked inclusion or hom; X x Y over
    X.group x Y.group acts factor by factor; G x_H X, for H <= G and X an
    H-set, permutes H-orbits.  Each builder checks what its case needs."""

    def _verify(self):
        pass


def point_set(G: FiniteGroup) -> FiniteGSet:
    return _Derived(G, 1, dict.fromkeys(G.elements, (0,)), name="pt")

def regular_gset(G: FiniteGroup) -> FiniteGSet:
    """G acting on itself by left translation: G/1, points in element order."""
    return coset_gset(G, G.subgroup_of([G.identity]))

def coset_gset(G: FiniteGroup, H: FiniteGroup) -> FiniteGSet:
    """G/H = G x_H pt with left translation, cached on G like every induced set."""
    return induced_gset(G, H, point_set(H))

def product_gset(X: FiniteGSet, Y: FiniteGSet, P: FiniteGroup) -> FiniteGSet:
    """X x Y as a P-set for P = direct_product(X.group, Y.group).

    Point (x, y) is stored at index x * |Y| + y.  Element t of P acts by
    the rows of A's element t // |B| and B's element t % |B|, A = X.group
    and B = Y.group (the index law of ``groups``).
    """
    if P.factors != (X.group, Y.group):
        raise PreconditionError(
            f"{P.name} is not the direct product {X.group.name}x{Y.group.name}")
    nB, nY = Y.group.order, Y.n_points
    rowsX = [[x * nY for x in X._table[a]] for a in X.group.elements]
    rowsY = [Y._table[b] for b in Y.group.elements]
    table = {g: tuple(x + y for x in rowsX[t // nB] for y in rowsY[t % nB])
             for t, g in enumerate(P.elements)}
    return _Derived(P, X.n_points * nY, table, name=f"{X.name}x{Y.name}")


def fixed_points(X: FiniteGSet, g: Permutation) -> list[int]:
    return [x for x in X.points() if X.act(g, x) == x]


class Orbit:
    """One orbit of an acting group on a point subset.

    ``transport[x]`` is a fixed group element carrying the orbit
    representative to x; the representative is the least point.
    """

    def __init__(self, rep: int, points, stabilizer: FiniteGroup, transport: dict):
        self.rep = rep
        self.points = tuple(points)
        self.stabilizer = stabilizer
        self.transport = transport

    def __repr__(self) -> str:
        return f"orbit(rep={self.rep}, size={len(self.points)})"


def orbits_with_stabilizers(C: FiniteGroup, X: FiniteGSet, subset=None) -> list[Orbit]:
    """Decompose ``subset`` (default: all points) into C-orbits.

    C must act on X's points (a subgroup of X.group, or X.group itself).
    Orbits are listed by increasing representative.
    """
    if subset is None:
        subset = range(X.n_points)
    remaining = sorted(set(subset))
    out = []
    seen = set()
    for x in remaining:
        if x in seen:
            continue
        transport, fixers = {x: C.identity}, []
        for c in C.elements:
            y = X.act(c, x)
            if y == x:
                fixers.append(c)
            elif y not in transport:
                transport[y] = c
        pts = sorted(transport)
        stab = C.subgroup_of(fixers)
        if len(pts) * stab.order != C.order:
            raise InternalCheckError(f"orbit-stabilizer count fails at point {x}")
        out.append(Orbit(x, pts, stab, transport))
        seen.update(pts)
    return out


def induced_gset(G: FiniteGroup, H: FiniteGroup, X: FiniteGSet) -> FiniteGSet:
    """G x_H X: H-orbits of G x X under (g, x) ~ (g h^{-1}, h x).

    Points are labelled by canonical pairs (least (element index, point)).
    Built once per (H, X) and cached on G: equal arguments get the same
    object, named after the first.
    """
    if not G.is_subgroup(H):
        raise NotSubgroupError(f"{H.name} is not a subgroup of {G.name}")
    if X.group != H:
        raise PreconditionError("X must be an H-set")
    return memo(G._induced, (H.key(), X.key()), _build_induced_gset, G, H, X)


def _build_induced_gset(G: FiniteGroup, H: FiniteGroup, X: FiniteGSet) -> FiniteGSet:
    # Pairs are walked in (element index, point) order, so the first pair met
    # of each H-orbit {(g h^{-1}, h x)} is its least and numbers the orbit in
    # label order.  point_of[x][g] is the point of (g, x): a table entry is
    # one product and one lookup.
    moves = [(h.inverse(), X._table[h]) for h in H.elements]
    point_of = [{} for _ in X.points()]
    reps = []
    for gi, g in enumerate(G.elements):
        for x in X.points():
            if g not in point_of[x]:
                for hi, row in moves:
                    point_of[row[x]][g * hi] = len(reps)
                reps.append((gi, x))
    if len(reps) * H.order != G.order * X.n_points:
        raise InternalCheckError("induced set has the wrong number of points")
    cols = [(G.elements[gi], point_of[x]) for gi, x in reps]
    table = {a: tuple(p[a * g] for g, p in cols) for a in G.elements}
    return _Derived(G, len(reps), table, name=f"{G.name}x_{H.name}{X.name}", labels=reps)


class SkeletonEntry:
    """Data at one torsion class representative g: X^g and its orbit pieces.

    A structure over the skeleton sets ``ctxs``, one rotation-ring context
    per orbit; ``ranks`` are their ranks.
    """

    def __init__(self, g: Permutation, order: int, centralizer: FiniteGroup,
                 fixed: tuple, orbits: list[Orbit]):
        self.g = g
        self.order = order
        self.centralizer = centralizer
        self.fixed = fixed
        self.orbits = orbits
        self.orbit_of_point = {}
        for oi, orb in enumerate(orbits):
            for x in orb.points:
                self.orbit_of_point[x] = oi
        self.ctxs = ()

    @property
    def ranks(self) -> tuple[int, ...]:
        return tuple(ctx.rank for ctx in self.ctxs)

    def __repr__(self) -> str:
        return (f"skeleton@{self.g!r}: |X^g|={len(self.fixed)}, "
                f"{len(self.orbits)} orbit(s)")


def inertia_skeleton(G: FiniteGroup, X: FiniteGSet) -> list[SkeletonEntry]:
    """Per conjugacy class rep g, in class order: X^g cut into C_G(g)-orbits."""
    if X.group != G:
        raise PreconditionError("X is not a G-set for the given G")
    conj = G.conjugacy()
    entries = []
    for ci, g in enumerate(conj.class_reps):
        C = conj.centralizer(ci)
        fixed = tuple(fixed_points(X, g))
        entries.append(SkeletonEntry(g, conj.rep_orders[ci], C, fixed,
                                     orbits_with_stabilizers(C, X, fixed)))
    return entries
