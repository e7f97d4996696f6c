"""Finite permutation groups: enumeration, conjugacy structure, homomorphisms.

Groups are fully enumerated with a deterministic element order (lexicographic
on image tuples), so conjugacy classes, centralizers and transporters are
exact computations over the element list.  The enumeration order fixes every
canonical representative downstream.

A ``Permutation`` is its image tuple, so closures, scans, sorts and class
lookups take elements and plain image tuples alike.  For image tuples a, b
of degree >= 2, ``itemgetter(*a)(b)`` is the images of b·a, so a product is
one C call; on degree 0 or 1 there is only the identity, and no product is
taken.

Every subgroup, by members, by generators or from ``all_subgroups``, is its
root's registry entry, with one class walk per member set; a root is its own
entry for its full member set.  A central class's centralizer is the group
itself, any other's one ``transporter``: the elements of G among the maps
that send each cycle of g onto a cycle of the same length in its G-orbit, or
a scan of G when those maps are not clearly fewer than |G|.  Homomorphisms and G-set
tables are checked on generator edges (``broken_edges``); a builtin family or
product past the order cap is refused unbuilt.

A direct product P = A x B lists its elements as the pairs (a, b) in
lexicographic order, as its sorted image tuples are a's images followed by
b's.  So the index law holds for P and for every S = S_A x S_B <= P that
splits along the factors (``factor_split``, found once per member set):
element i of S is (element i // |S_B| of S_A, element i % |S_B| of S_B),
and class i of S is (class i // k_B of S_A, class i % k_B of S_B), k_B the
class count of S_B, as the least element of cl(a) x cl(b) is the pair of
the two class reps.  Product data is read through this law alone.
"""

from __future__ import annotations

import math
import os
from itertools import permutations, product
from operator import itemgetter

from .errors import (
    GroupTooLargeError,
    InternalCheckError,
    InvalidGeneratorError,
    NotHomomorphismError,
    NotSubgroupError,
    PreconditionError,
)
from .perm import Permutation, from_cycles, identity

DEFAULT_ORDER_CAP = 20160


def memo(cache: dict, key, build, *args):
    """``cache[key]``, filled with ``build(*args)`` on a miss.

    Every keyed cache in qell is filled here.  An entry is stored only after
    ``build`` has returned and is never replaced, so a reader sees no entry
    or a finished one, and every caller gets the same object.  Threads that
    miss together may each build it; the first to finish publishes.
    """
    try:
        return cache[key]
    except KeyError:
        pass
    return cache.setdefault(key, build(*args))


def order_cap() -> int:
    env = os.environ.get("QELL_ORDER_CAP")
    try:
        cap = int(env) if env else DEFAULT_ORDER_CAP
    except ValueError:
        cap = 0
    if cap < 1:
        raise PreconditionError(f"QELL_ORDER_CAP must be a positive integer, got {env!r}")
    return cap


class FiniteGroup:
    """A permutation group with a cached, sorted element list."""

    def __init__(self, degree: int, generators, name: str = "", spec: str | None = None,
                 _elements=None, _root=None):
        self.degree = int(degree)
        gens = []
        for g in generators:
            if not isinstance(g, Permutation):
                g = Permutation(g)
            if g.degree != self.degree:
                raise InvalidGeneratorError(
                    f"invalid generator: degree {g.degree} != group degree {self.degree}"
                )
            gens.append(g)
        self.generators = tuple(gens)
        if _elements is None:
            _elements = _closure(self.degree, self.generators)
        self.elements = tuple(sorted(_elements))
        self.name = name or f"group<{self.degree}:{len(self.elements)}>"
        self.spec = spec
        self._index = {g: i for i, g in enumerate(self.elements)}
        self._conjugacy = None
        # (H.key(), X.key()) -> G x_H X over a subgroup H; (G.key(),) -> G's
        # identity hom, the inclusion of every H <= G
        self._induced: dict = {}
        self._splits: dict = {}             # on a direct product: S -> factor_split(S)
        self._root = _root or self        # the group whose registry holds self
        # on a root, member bitmask -> subgroup; the full mask is the root itself
        self._subgroups: dict = {(1 << len(self.elements)) - 1: self} if _root is None else {}
        self._exponent = None
        self._orbits = None
        self._hash = None
        self.identity = identity(self.degree)
        if self.identity not in self._index:
            raise InvalidGeneratorError("invalid generator: identity missing from closure")
        self.factors: tuple["FiniteGroup", "FiniteGroup"] | None = None  # set by direct_product()

    @property
    def order(self) -> int:
        return len(self.elements)

    def index(self, g: Permutation) -> int:
        try:
            return self._index[g]
        except KeyError:
            raise PreconditionError(f"{g!r} is not an element of {self.name}") from None

    def __contains__(self, g) -> bool:
        return isinstance(g, Permutation) and g in self._index

    def __iter__(self):
        return iter(self.elements)

    def __len__(self) -> int:
        return self.order

    def key(self):
        """Structural identity used for caching: degree plus element tuple."""
        return (self.degree, self.elements)

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        return isinstance(other, FiniteGroup) and self.key() == other.key()

    def __hash__(self) -> int:
        if self._hash is None:      # the elements are fixed once enumerated
            self._hash = hash(self.key())
        return self._hash

    def __repr__(self) -> str:
        return f"{self.name} (order {self.order}, degree {self.degree})"

    def exponent(self) -> int:
        if self._exponent is None:      # order is a class function
            self._exponent = math.lcm(*self.conjugacy().rep_orders)
        return self._exponent

    def is_abelian(self) -> bool:
        return all(a * b == b * a for a in self.generators for b in self.generators)

    def is_subgroup(self, other: "FiniteGroup") -> bool:
        """True if ``other`` is a subgroup of self (same degree, subset)."""
        return other.degree == self.degree and all(g in self for g in other.elements)

    def subgroup(self, elements) -> "FiniteGroup":
        """The registry entry of the closure of ``elements``, which lie in self."""
        for g in elements:
            if g not in self:
                raise NotSubgroupError(f"{g!r} is not in {self.name}")
        span = _span(self.degree, elements, self.order)[1]
        return self.subgroup_of(self.elements[self._index[t]] for t in span)

    def conjugacy(self) -> "ConjugacyData":
        """The classes, from one class walk: each member set is one object."""
        if self._conjugacy is None:
            self._conjugacy = _conjugacy_data(self)
        return self._conjugacy

    def subgroup_of(self, members) -> "FiniteGroup":
        """The subgroup of self with elements ``members``, one object per set.

        The root group (one not built here) keeps the registry, keyed by the
        bitmask of the members' indices in its element list, and is its own
        entry for its full set, with the generators it was given.  Any other
        entry takes as each generator the least member outside the span so
        far: at most log2|H| generators.  Raises NotSubgroupError for a
        member outside self, InvalidGeneratorError if the members are not a
        group.
        """
        root, members = self._root, list(members)
        mask = 0
        for g in members:
            if g not in self._index:
                raise NotSubgroupError(f"{g!r} is not in {self.name}")
            mask |= 1 << root._index[g]
        return memo(root._subgroups, mask, _least_first, root, members)

    def centralizer(self, g: Permutation) -> "FiniteGroup":
        """The h with h*g == g*h: the transporter from g to itself."""
        return self.subgroup_of(transporter(self, g, g))


def _closure(degree: int, generators) -> set[Permutation]:
    return set(map(Permutation._raw, _span(degree, generators, order_cap())[1]))


def _span(degree: int, candidates, cap: int) -> tuple[list, set]:
    """(gens, span): the candidates outside the span of those before them, and
    the image tuples of the group they generate.  <H, g> is a union of right
    cosets H·r (Dimino): one more coset for each r·s outside it, r a coset
    rep, s a generator."""
    e = tuple(range(degree))
    gens, steps, span = [], [], {e}
    for g in candidates:
        if g in span:
            continue
        gens.append(g)
        steps.append(itemgetter(*g))                # r ↦ r·g
        H, reps = list(span), [e]
        for r in reps:
            for s in steps:
                x = s(r)
                if x not in span:
                    span.update(map(itemgetter(*x), H))
                    reps.append(x)
                    if len(span) > cap:
                        raise GroupTooLargeError(f"group too large: order exceeds cap {cap}")
    return gens, span


def make_group(degree: int, generators, name: str = "", spec: str | None = None) -> FiniteGroup:
    """Enumerate the group generated by ``generators`` on {0..degree-1}."""
    return FiniteGroup(degree, generators, name=name, spec=spec)


def _least_first(root: FiniteGroup, members) -> FiniteGroup:
    members = sorted(set(members))
    gens, span = _span(root.degree, members, root.order)
    # every member lies in the span, so equal sizes mean the members are it
    if len(span) != len(members):
        raise InvalidGeneratorError("invalid generator: the members do not form a group")
    return FiniteGroup(root.degree, gens, name=f"sub<{root.name}:{len(span)}>",
                       _elements=members, _root=root)


def conjugate_subgroup(G: FiniteGroup, S: FiniteGroup, w: Permutation) -> FiniteGroup:
    """w S w^{-1}, for S <= G and w in G, from G's registry."""
    wi = w.inverse()
    return G.subgroup_of([w * s * wi for s in S.elements])


class ConjugacyData:
    """Conjugacy classes of a group, with centralizers and transport helpers.

    Class representatives are the least elements of their classes in the
    group's element order, listed in that same order; ``rep_orders`` are
    their orders.
    """

    def __init__(self, group: FiniteGroup, class_reps, class_of, class_elements):
        self.group = group
        self.class_reps = tuple(class_reps)
        self.class_of = class_of          # element or image tuple -> class index
        self.class_elements = tuple(tuple(c) for c in class_elements)
        self.class_sizes = tuple(len(c) for c in class_elements)
        self.rep_orders = tuple(g.order() for g in self.class_reps)
        self._centralizers: dict[int, FiniteGroup] = {}
        self._transports: dict[Permutation, tuple[int, Permutation]] = {}
        self._power_classes: dict[int, tuple[int, ...]] = {}

    @property
    def n_classes(self) -> int:
        return len(self.class_reps)

    def class_index(self, g: Permutation) -> int:
        try:
            return self.class_of[g]
        except KeyError:
            raise PreconditionError(f"{g!r} is not an element of {self.group.name}") from None

    def centralizer(self, class_idx: int) -> FiniteGroup:
        """C_G(rep): the group itself for a central class, else
        ``transporter(G, rep, rep)``, found from rep's cycles."""
        return memo(self._centralizers, class_idx, self._centralizer, class_idx)

    def _centralizer(self, ci: int) -> FiniteGroup:
        G = self.group
        return G.centralizer(self.class_reps[ci]) if self.class_sizes[ci] > 1 else G

    def transport_to_rep(self, g: Permutation) -> tuple[int, Permutation]:
        """Return (class index i, w) with ``g == w * rep_i * w^{-1}``.

        w is the least such element, found once per g: the identity, the
        least element of every group, when g is rep_i, and otherwise the
        first element of ``transporter``.
        """
        return memo(self._transports, g, self._least_transport, g)

    def _least_transport(self, g: Permutation) -> tuple[int, Permutation]:
        i = self.class_index(g)
        rep = self.class_reps[i]
        return i, self.group.identity if g == rep else transporter(self.group, g, rep)[0]

    def inverse_classes(self) -> tuple[int, ...]:
        return memo(self._power_classes, -1, class_fusion, self.group, self.group,
                    Permutation.inverse)

    def power_classes(self, m: int) -> tuple[int, ...]:
        """For each class, the class of its rep to the m-th power: the power
        map g ↦ g^m on classes, formed once per (group, m)."""
        return memo(self._power_classes, m, class_fusion, self.group, self.group,
                    lambda g: g ** m)


def class_fusion(H: FiniteGroup, G: FiniteGroup, f=None) -> tuple[int, ...]:
    """For each class rep of H, in class order, the class of G holding f(rep);
    f = None is the inclusion H <= G.  A class function on G pulls back along
    f as the gather ``values[fusion[i]]``."""
    index = G.conjugacy().class_index
    reps = H.conjugacy().class_reps
    return tuple(map(index, reps if f is None else map(f, reps)))


def _conjugacy_data(G: FiniteGroup) -> ConjugacyData:
    class_of: dict[Permutation, int] = {}
    reps, classes = [], []
    elements, index = G.elements, G._index
    conjugators = [(s, itemgetter(*s.inverse())) for s in G.generators if s != G.identity]
    for g in elements:
        if g in class_of:
            continue
        # orbit of g under conjugation by the generators: s·x·s⁻¹ = s·(x·s⁻¹)
        orbit, todo = {g}, [g]
        for x in todo:
            for s, times_si in conjugators:
                y = itemgetter(*times_si(x))(s)
                if y not in orbit:
                    orbit.add(y)
                    todo.append(y)
        idx = len(reps)
        reps.append(g)
        cls = [elements[i] for i in sorted(map(index.__getitem__, orbit))]
        classes.append(cls)
        for x in cls:
            class_of[x] = idx
    data = ConjugacyData(G, reps, class_of, classes)
    if sum(data.class_sizes) != G.order:
        raise InternalCheckError("class sizes do not sum to the group order")
    return data


def transporter(G: FiniteGroup, g: Permutation, g2: Permutation) -> list[Permutation]:
    """The set {x in G : g*x == x*g2}, sorted; empty iff g, g2 not conjugate.

    g·x = x·g2 says x maps each cycle (a, g2(a), …) of g2 onto the cycle
    (x(a), g(x(a)), …) of g, and an x in G keeps every G-orbit.  So x is one
    of the maps that send the m cycles of length l of g2 in one orbit onto
    those of g in that orbit, each at one of its l turns: m!·l^m of them for
    each (orbit, length), their product ``count`` in all.  Different cycle
    types give the empty set at once.  Reading the two cycle decompositions
    costs about as much as trying 2·degree elements, and building and
    looking up a candidate about as much as trying two, so the candidates
    are built when 2·(degree + count) < |G|, and otherwise every element of
    G is tried; a group of order at most 2·(degree + 1) is scanned unread.
    """
    if len(g) != G.degree or len(g2) != G.degree:
        raise InvalidGeneratorError("degree mismatch in composition")
    if G.degree < 2:
        return list(G.elements)
    count = G.order                     # a scan, unless the cycles are read
    if G.order > 2 * (G.degree + 1):
        orbit = _point_orbits(G)
        blocks = _cycle_blocks(g, orbit)
        if g2 == g:                     # a centralizer
            blocks2 = blocks
        else:
            blocks2 = _cycle_blocks(g2, orbit)
            if {k: len(cs) for k, cs in blocks.items()} != \
                    {k: len(cs) for k, cs in blocks2.items()}:
                return []
        count = math.prod(math.factorial(len(cs)) * l ** len(cs)
                          for (_, l), cs in blocks.items())
    if 2 * (G.degree + count) >= G.order:
        times_g2 = itemgetter(*g2)      # x ↦ x·g2, and itemgetter(*x)(g) is g·x
        return [x for x in G.elements if times_g2(x) == itemgetter(*x)(g)]
    # each candidate's images of the points of g2's cycles, block by block
    points, images = [], [()]
    for key, cs2 in blocks2.items():
        l, cs = key[1], blocks[key]
        turns = [[c[r:] + c[:r] for r in range(l)] for c in cs]
        choices = [sum(choice, ()) for order in permutations(turns)
                   for choice in product(*order)]
        images = [a + b for a in images for b in choices]
        for c in cs2:
            points.extend(c)
    place = itemgetter(*sorted(range(G.degree), key=points.__getitem__))
    found = [i for i in map(G._index.get, map(place, images)) if i is not None]
    return [G.elements[i] for i in sorted(found)]


def _point_orbits(G: FiniteGroup) -> tuple[int, ...]:
    """For each point, the least point of its G-orbit, found once per group."""
    if G._orbits is None:
        orbit = [-1] * G.degree
        for a in range(G.degree):
            if orbit[a] < 0:
                orbit[a], todo = a, [a]
                for b in todo:
                    for s in G.generators:
                        if orbit[s[b]] < 0:
                            orbit[s[b]] = a
                            todo.append(s[b])
        G._orbits = tuple(orbit)
    return G._orbits


def _cycle_blocks(g: Permutation, orbit) -> dict:
    """The cycles of g, fixed points included, by (least orbit label met,
    length): a key every x in G keeps, as x keeps each point's orbit."""
    seen, blocks = [False] * len(g), {}
    for start in range(len(g)):
        if not seen[start]:
            cyc, j = [start], g[start]
            seen[start] = True
            while j != start:
                cyc.append(j)
                seen[j] = True
                j = g[j]
            key = (min(map(orbit.__getitem__, cyc)), len(cyc))
            blocks.setdefault(key, []).append(tuple(cyc))
    return blocks


def broken_edges(G: FiniteGroup, image_of):
    """Each (a, s) with f(a·s) != f(a)∘f(s), for a in G and s a generator (e if
    none), f(g) = ``image_of[g]`` a hom's image or a G-set's row.  Every
    constructor makes the generators generate, so with f(e) = e (for a hom, by
    f(e·s) = f(e)∘f(s)) and each f(s) a bijection, no broken edge gives f(a·b) =
    f(a·t_1…t_{m-1})∘f(t_m) = f(a)∘f(b) for b = t_1…t_m, by induction on m."""
    for a in G.elements:
        fa = image_of[a]
        for s in G.generators or (G.identity,):
            if image_of[a * s] != tuple(map(fa.__getitem__, image_of[s])):
                yield a, s


class GroupHom:
    """A verified homomorphism between two finite groups."""

    def __init__(self, domain: FiniteGroup, codomain: FiniteGroup, image_of: dict):
        self.domain = domain
        self.codomain = codomain
        self.image_of = dict(image_of)
        self._fusion = None
        # (source ctx, target ctx) -> checked restriction entry;
        # ("pullback", scalar context, source structure) -> the plan of the
        # pullback along self
        self._restrictions: dict = {}
        self._verify()

    def _verify(self):
        """A total map into the codomain with no broken edge (``broken_edges``)."""
        image_of, domain = self.image_of, self.domain
        if set(image_of) != set(domain.elements):
            raise NotHomomorphismError("image undefined: map is not total on the domain")
        for img in image_of.values():
            if img not in self.codomain:
                raise NotHomomorphismError(f"image {img!r} is not in the codomain")
        for a, b in broken_edges(domain, image_of):
            raise NotHomomorphismError(f"not a homomorphism: fails at ({a!r}, {b!r})")

    def __call__(self, g: Permutation) -> Permutation:
        return self.image_of[g]

    def fusion(self) -> tuple[int, ...]:
        """The class fusion of the domain into the codomain, found once."""
        if self._fusion is None:
            self._fusion = class_fusion(self.domain, self.codomain, self.image_of.__getitem__)
        return self._fusion

    def compose(self, inner: "GroupHom") -> "GroupHom":
        """self o inner (apply ``inner`` first)."""
        if inner.codomain != self.domain:
            raise PreconditionError("homomorphisms not composable")
        return GroupHom(inner.domain, self.codomain,
                        {g: self(inner(g)) for g in inner.domain.elements})

    def kernel(self) -> FiniteGroup:
        e = self.codomain.identity
        return self.domain.subgroup_of([g for g, x in self.image_of.items() if x == e])

    @staticmethod
    def identity_on(G: FiniteGroup) -> "GroupHom":
        return GroupHom(G, G, {g: g for g in G.elements})

    @staticmethod
    def inclusion(H: FiniteGroup, G: FiniteGroup) -> "GroupHom":
        if not G.is_subgroup(H):
            raise NotSubgroupError(f"{H.name} is not a subgroup of {G.name}")
        return GroupHom(H, G, {h: h for h in H.elements})


def make_hom(G: FiniteGroup, H: FiniteGroup, generator_images) -> GroupHom:
    """Extend generator images to a verified homomorphism G -> H."""
    imgs = []
    for im in generator_images:
        if not isinstance(im, Permutation):
            im = Permutation(im)
        if im not in H:
            raise NotHomomorphismError(f"image {im!r} is not in {H.name}")
        imgs.append(im)
    if len(imgs) != len(G.generators):
        raise NotHomomorphismError(
            f"expected {len(G.generators)} generator images, got {len(imgs)}"
        )
    image_of = {G.identity: H.identity}
    todo = [G.identity]                 # breadth first: appended while walked
    for g in todo:
        fg = image_of[g]
        for s, fs in zip(G.generators, imgs):
            h = g * s
            fh = fg * fs
            if h in image_of:
                if image_of[h] != fh:
                    raise NotHomomorphismError("image undefined: extension inconsistent")
            else:
                image_of[h] = fh
                todo.append(h)
    return GroupHom(G, H, image_of)


# ---------------------------------------------------------------------------
# builtin families

def _within_cap(factors) -> None:
    """Refuse a group whose order is the product of ``factors`` as soon as
    the running product passes the cap, before any element is built."""
    cap, order = order_cap(), 1
    for k in factors:
        order *= k
        if order > cap:
            raise GroupTooLargeError(f"group too large: order exceeds cap {cap}")


def cyclic(n: int) -> FiniteGroup:
    if n < 1:
        raise PreconditionError(f"C{n}: parameter out of range")
    _within_cap([n])
    gens = [] if n == 1 else [from_cycles(n, [tuple(range(n))])]
    return FiniteGroup(n, gens, name=f"C{n}", spec=f"C{n}")

def symmetric(n: int) -> FiniteGroup:
    if n < 1:
        raise PreconditionError(f"S{n}: parameter out of range")
    _within_cap(range(2, n + 1))
    if n == 1:
        return FiniteGroup(1, [], name="S1", spec="S1")
    gens = [from_cycles(n, [(0, 1)])]
    if n > 2:
        gens.append(from_cycles(n, [tuple(range(n))]))
    return FiniteGroup(n, gens, name=f"S{n}", spec=f"S{n}")

def alternating(n: int) -> FiniteGroup:
    if n < 1:
        raise PreconditionError(f"A{n}: parameter out of range")
    _within_cap(range(3, n + 1))     # n!/2
    if n <= 2:
        return FiniteGroup(max(n, 1), [], name=f"A{n}", spec=f"A{n}")
    gens = [from_cycles(n, [(i, i + 1, i + 2)]) for i in range(n - 2)]
    return FiniteGroup(n, gens, name=f"A{n}", spec=f"A{n}")

def dihedral(n: int) -> FiniteGroup:
    """Dihedral group of order 2n."""
    if n < 1:
        raise PreconditionError(f"D{n}: parameter out of range")
    _within_cap([2, n])
    if n == 1:
        return FiniteGroup(2, [from_cycles(2, [(0, 1)])], name="D1", spec="D1")
    if n == 2:
        return FiniteGroup(4, [from_cycles(4, [(0, 1)]), from_cycles(4, [(2, 3)])],
                           name="D2", spec="D2")
    r = from_cycles(n, [tuple(range(n))])
    s = Permutation([(n - i) % n for i in range(n)])
    return FiniteGroup(n, [r, s], name=f"D{n}", spec=f"D{n}")


def direct_product(G: FiniteGroup, H: FiniteGroup, spec: str | None = None) -> FiniteGroup:
    """G x H acting on the disjoint union of the factors' point sets."""
    _within_cap([G.order, H.order])
    dG = G.degree
    elements = [_pair(dG, a, b) for a in G.elements for b in H.elements]
    gens = [_pair(dG, a, H.identity) for a in G.generators] + \
           [_pair(dG, G.identity, b) for b in H.generators]
    P = FiniteGroup(dG + H.degree, gens, name=f"{G.name}x{H.name}", spec=spec,
                    _elements=elements)
    P.factors = (G, H)
    return P


def factor_split(S: FiniteGroup):
    """(S_A, S_B), the registry entries of S's images in the factors of its
    root P = A x B, when S = S_A x S_B, found once per member set by divmod
    of the members' indices in P; None when P is not a direct product or S
    does not split, |S_A|·|S_B| != |S|.  S's elements and classes are then
    pairs of theirs by the index law (module docstring)."""
    P = S._root
    if P.factors is None:
        return None
    return memo(P._splits, S, _factor_split, S, P)


def _factor_split(S: FiniteGroup, P: FiniteGroup):
    A, B = P.factors
    pairs = [divmod(P._index[g], B.order) for g in S.elements]
    left, right = {a for a, _ in pairs}, {b for _, b in pairs}
    if len(left) * len(right) != S.order:
        return None
    return (A.subgroup_of(map(A.elements.__getitem__, left)),
            B.subgroup_of(map(B.elements.__getitem__, right)))


def product_pair(P: FiniteGroup, a: Permutation, b: Permutation) -> Permutation:
    if P.factors is None:
        raise PreconditionError(f"{P.name} is not a direct product")
    return _pair(P.factors[0].degree, a, b)


def _pair(dG: int, a: Permutation, b: Permutation) -> Permutation:
    """(a, b) on the disjoint union, b's points shifted past a's dG points."""
    return Permutation(a + tuple(i + dG for i in b))


def builtin(family: str, *params) -> FiniteGroup:
    """Construct a named family member: C/S/A/D with one integer parameter."""
    table = {"C": cyclic, "S": symmetric, "A": alternating, "D": dihedral}
    if family not in table:
        raise PreconditionError(f"unknown family {family!r}")
    return table[family](*params)


def all_subgroups(G: FiniteGroup) -> list[FiniteGroup]:
    """Every subgroup of G, by closing unions of cyclic subgroups.

    Exponential in principle; meant for the small groups exercised in tests.
    """
    subs = [G.subgroup_of([G.identity])]
    seen = {id(subs[0])}                # registry entries: one object per member set
    for H in subs:                      # appended while walked
        # <H, g0·h> = <H, g0>: one closure per coset g0·H, from its least element
        tried = set(H.elements)
        for g in G.elements:
            if g in tried:
                continue
            tried.update(g * h for h in H.elements)
            K = G.subgroup(H.generators + (g,))
            if id(K) not in seen:
                seen.add(id(K))
                subs.append(K)
    return sorted(subs, key=lambda H: (H.order, H.elements))
