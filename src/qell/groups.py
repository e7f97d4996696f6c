"""Finite permutation groups: enumeration, conjugacy structure, homomorphisms.

Groups are fully enumerated with a deterministic element order (lexicographic
on image tuples), so conjugacy classes, centralizers and transporters are
exact brute-force computations.  The enumeration order fixes every canonical
representative downstream.
"""

from __future__ import annotations

import math
import os

from .errors import (
    GroupTooLargeError,
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
        self._induced: dict = {}          # (H.key(), X.key()) -> G x_H X
        self._root = _root or self        # the group whose registry holds self
        self._subgroups: dict = {}        # member bitmask -> subgroup (on a root)
        self._exponent = None
        self._key = None
        self.identity = identity(self.degree)
        if self.identity not in self._index:
            raise InvalidGeneratorError("invalid generator: identity missing from closure")
        # metadata set by direct_product()
        self.factor_degrees: tuple[int, int] | None = None
        self.factors: tuple["FiniteGroup", "FiniteGroup"] | None = None

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
        if self._key is None:
            self._key = (self.degree, tuple(g.images for g in self.elements))
        return self._key

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        return isinstance(other, FiniteGroup) and self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())

    def __repr__(self) -> str:
        return f"{self.name} (order {self.order}, degree {self.degree})"

    def exponent(self) -> int:
        if self._exponent is None:
            e = 1
            for g in self.conjugacy().class_reps:     # order is a class function
                e = math.lcm(e, g.order())
            self._exponent = e
        return self._exponent

    def is_abelian(self) -> bool:
        return all(a * b == b * a for a in self.generators for b in self.generators)

    def is_subgroup(self, other: "FiniteGroup") -> bool:
        """True if ``other`` is a subgroup of self (same degree, subset)."""
        return other.degree == self.degree and all(g in self for g in other.elements)

    def subgroup(self, elements, name: str = "") -> "FiniteGroup":
        """The subgroup generated by ``elements`` (must lie in self)."""
        for g in elements:
            if g not in self:
                raise NotSubgroupError(f"{g!r} is not in {self.name}")
        return FiniteGroup(self.degree, tuple(elements), name=name or f"sub<{self.name}>")

    def conjugacy(self) -> "ConjugacyData":
        if self._conjugacy is None:
            self._conjugacy = _conjugacy_data(self)
        return self._conjugacy

    def subgroup_of(self, members) -> "FiniteGroup":
        """The subgroup of self with elements ``members``, one object per set.

        The root group (one not built here) keeps the registry, keyed by the
        bitmask of the members' indices in its element list.  A new entry,
        the root's own set included, takes as each generator the least member
        outside the span so far: at most log2|H| generators.  Raises
        NotSubgroupError for a member outside self, InvalidGeneratorError if
        the members are not a group.
        """
        root, members = self._root, list(members)
        mask = 0
        for g in members:
            if g not in self._index:
                raise NotSubgroupError(f"{g!r} is not in {self.name}")
            mask |= 1 << root._index[g]
        return memo(root._subgroups, mask, _least_first, root, members)

    def centralizer(self, g: Permutation) -> "FiniteGroup":
        gi = g.images               # h*g == g*h, compared on images
        return self.subgroup_of([h for h in self.elements if tuple(
            map(h.images.__getitem__, gi)) == tuple(map(gi.__getitem__, h.images))])


def _closure(degree: int, generators) -> set[Permutation]:
    return _span(identity(degree), generators, order_cap())[1]


def _span(e: Permutation, candidates, cap: int) -> tuple[list, set]:
    """(gens, span): the candidates outside the span of those before them, and
    the group they generate.  <H, g> is a union of right cosets H·r (Dimino):
    one more coset for each r·s outside it, r a coset rep, s a generator."""
    gens, span = [], {e}
    for g in candidates:
        if g in span:
            continue
        gens.append(g)
        H, reps = list(span), [e]
        for r in reps:
            for s in gens:
                x = r * s
                if x not in span:
                    span.update([h * x for h in H])
                    reps.append(x)
                    if len(span) > cap:
                        raise GroupTooLargeError(f"group too large: order exceeds cap {cap}")
    return gens, span


def make_group(degree: int, generators, name: str = "", spec: str | None = None) -> FiniteGroup:
    """Enumerate the group generated by ``generators`` on {0..degree-1}."""
    return FiniteGroup(degree, generators, name=name, spec=spec)


def _least_first(root: FiniteGroup, members) -> FiniteGroup:
    members = sorted(set(members))
    gens, span = _span(root.identity, members, root.order)
    if len(span) != len(members):
        raise InvalidGeneratorError("invalid generator: the members do not form a group")
    return FiniteGroup(root.degree, gens, name=f"sub<{root.name}:{len(span)}>",
                       _elements=span, _root=root)


def conjugate_subgroup(G: FiniteGroup, S: FiniteGroup, w: Permutation) -> FiniteGroup:
    """w S w^{-1}, for S <= G and w in G, from G's registry."""
    wi = w.inverse()
    return G.subgroup_of([w * s * wi for s in S.elements])


class ConjugacyData:
    """Conjugacy classes of a group, with centralizers and transport helpers.

    Class representatives are the least elements of their classes in the
    group's element order, listed in that same order.
    """

    def __init__(self, group: FiniteGroup, class_reps, class_of, class_elements,
                 class_of_images):
        self.group = group
        self.class_reps = tuple(class_reps)
        self.class_of = class_of          # Permutation -> class index
        self.class_of_images = class_of_images    # image tuple -> class index
        self.class_elements = tuple(tuple(c) for c in class_elements)
        self.class_sizes = tuple(len(c) for c in class_elements)
        self._centralizers: dict[int, FiniteGroup] = {}
        self._transports: dict[Permutation, tuple[int, Permutation]] = {}
        self._inverse_classes: tuple[int, ...] | None = None

    @property
    def n_classes(self) -> int:
        return len(self.class_reps)

    def class_index(self, g: Permutation) -> int:
        try:
            return self.class_of[g]
        except KeyError:
            raise PreconditionError(f"{g!r} is not an element of {self.group.name}") from None

    def centralizer(self, class_idx: int) -> FiniteGroup:
        return memo(self._centralizers, class_idx,
                    self.group.centralizer, self.class_reps[class_idx])

    def transport_to_rep(self, g: Permutation) -> tuple[int, Permutation]:
        """Return (class index i, w) with ``g == w * rep_i * w^{-1}``.

        w is the least such element, found once per g by a transporter scan.
        """
        return memo(self._transports, g, self._least_transport, g)

    def _least_transport(self, g: Permutation) -> tuple[int, Permutation]:
        i = self.class_index(g)
        return i, transporter(self.group, g, self.class_reps[i])[0]

    def inverse_classes(self) -> tuple[int, ...]:
        if self._inverse_classes is None:
            self._inverse_classes = class_fusion(self.group, self.group, Permutation.inverse)
        return self._inverse_classes


def class_fusion(H: FiniteGroup, G: FiniteGroup, f=None) -> tuple[int, ...]:
    """For each class rep of H, in class order, the class of G holding f(rep);
    f = None is the inclusion H <= G.  A class function on G pulls back along
    f as the gather ``values[fusion[i]]``."""
    index = G.conjugacy().class_index
    reps = H.conjugacy().class_reps
    return tuple(map(index, reps if f is None else map(f, reps)))


def _conjugacy_data(G: FiniteGroup) -> ConjugacyData:
    class_of: dict[Permutation, int] = {}
    class_of_images: dict[tuple, int] = {}
    reps, classes = [], []
    element_of = {g.images: g for g in G.elements}
    conjugators = [(s.images.__getitem__, s.inverse().images) for s in G.generators]
    for g in G.elements:
        if g in class_of:
            continue
        # orbit of g under conjugation by the generators: (s x s^-1)(i) = s(x(s^-1(i)))
        orbit = {g.images}
        frontier = [g.images]
        while frontier:
            nxt = []
            for x in frontier:
                for s, si in conjugators:
                    y = tuple(map(s, map(x.__getitem__, si)))
                    if y not in orbit:
                        orbit.add(y)
                        nxt.append(y)
            frontier = nxt
        idx = len(reps)
        reps.append(g)
        cls = [element_of[y] for y in sorted(orbit)]
        classes.append(cls)
        for x in cls:
            class_of[x] = idx
            class_of_images[x.images] = idx
    data = ConjugacyData(G, reps, class_of, classes, class_of_images)
    assert sum(data.class_sizes) == G.order
    return data


def transporter(G: FiniteGroup, g: Permutation, g2: Permutation) -> list[Permutation]:
    """The set {x in G : g*x == x*g2}, sorted; empty iff g, g2 not conjugate."""
    return [x for x in G.elements if g * x == x * g2]


class GroupHom:
    """A verified homomorphism between two finite groups."""

    def __init__(self, domain: FiniteGroup, codomain: FiniteGroup,
                 image_of: dict, check: bool = True):
        self.domain = domain
        self.codomain = codomain
        self.image_of = dict(image_of)
        self._fusion = None
        self._restrictions: dict = {}   # (source ctx, target ctx) -> checked fusion, columns
        if check:
            self._verify()

    def _verify(self):
        if set(self.image_of) != set(self.domain.elements):
            raise NotHomomorphismError("image undefined: map is not total on the domain")
        for g, img in self.image_of.items():
            if img not in self.codomain:
                raise NotHomomorphismError(f"image {img!r} is not in the codomain")
        for a in self.domain.elements:
            fa = self.image_of[a]
            for b in self.domain.elements:
                if self.image_of[a * b] != fa * self.image_of[b]:
                    raise NotHomomorphismError(
                        f"not a homomorphism: fails at ({a!r}, {b!r})"
                    )

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
                        {g: self(inner(g)) for g in inner.domain.elements}, check=False)

    def kernel(self) -> FiniteGroup:
        e = self.codomain.identity
        return self.domain.subgroup_of([g for g, x in self.image_of.items() if x == e])

    @staticmethod
    def identity_on(G: FiniteGroup) -> "GroupHom":
        return GroupHom(G, G, {g: g for g in G.elements}, check=False)

    @staticmethod
    def inclusion(H: FiniteGroup, G: FiniteGroup) -> "GroupHom":
        if not G.is_subgroup(H):
            raise NotSubgroupError(f"{H.name} is not a subgroup of {G.name}")
        return GroupHom(H, G, {h: h for h in H.elements}, check=False)


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
    frontier = [G.identity]
    while frontier:
        nxt = []
        for g in frontier:
            fg = image_of[g]
            for s, fs in zip(G.generators, imgs):
                h = g * s
                fh = fg * fs
                if h in image_of:
                    if image_of[h] != fh:
                        raise NotHomomorphismError("image undefined: extension inconsistent")
                else:
                    image_of[h] = fh
                    nxt.append(h)
        frontier = nxt
    return GroupHom(G, H, image_of)


# ---------------------------------------------------------------------------
# builtin families

def cyclic(n: int) -> FiniteGroup:
    if n < 1:
        raise PreconditionError(f"C{n}: parameter out of range")
    gens = [] if n == 1 else [from_cycles(n, [tuple(range(n))])]
    return FiniteGroup(n, gens, name=f"C{n}", spec=f"C{n}")

def symmetric(n: int) -> FiniteGroup:
    if n < 1:
        raise PreconditionError(f"S{n}: parameter out of range")
    if n == 1:
        return FiniteGroup(1, [], name="S1", spec="S1")
    gens = [from_cycles(n, [(0, 1)])]
    if n > 2:
        gens.append(from_cycles(n, [tuple(range(n))]))
    return FiniteGroup(n, gens, name=f"S{n}", spec=f"S{n}")

def alternating(n: int) -> FiniteGroup:
    if n < 1:
        raise PreconditionError(f"A{n}: parameter out of range")
    if n <= 2:
        return FiniteGroup(max(n, 1), [], name=f"A{n}", spec=f"A{n}")
    gens = [from_cycles(n, [(i, i + 1, i + 2)]) for i in range(n - 2)]
    return FiniteGroup(n, gens, name=f"A{n}", spec=f"A{n}")

def dihedral(n: int) -> FiniteGroup:
    """Dihedral group of order 2n."""
    if n < 1:
        raise PreconditionError(f"D{n}: parameter out of range")
    if n == 1:
        return FiniteGroup(2, [from_cycles(2, [(0, 1)])], name="D1", spec="D1")
    if n == 2:
        return FiniteGroup(4, [from_cycles(4, [(0, 1)]), from_cycles(4, [(2, 3)])],
                           name="D2", spec="D2")
    r = from_cycles(n, [tuple(range(n))])
    s = Permutation([(n - i) % n for i in range(n)])
    return FiniteGroup(n, [r, s], name=f"D{n}", spec=f"D{n}")


def direct_product(G: FiniteGroup, H: FiniteGroup, name: str = "",
                   spec: str | None = None) -> FiniteGroup:
    """G x H acting on the disjoint union of the factors' point sets."""
    dG, dH = G.degree, H.degree

    def pair(a: Permutation, b: Permutation) -> Permutation:
        return Permutation(tuple(a.images) + tuple(i + dG for i in b.images))

    elements = [pair(a, b) for a in G.elements for b in H.elements]
    gens = [pair(a, H.identity) for a in G.generators] + \
           [pair(G.identity, b) for b in H.generators]
    if len(elements) > order_cap():
        raise GroupTooLargeError(f"group too large: order exceeds cap {order_cap()}")
    P = FiniteGroup(dG + dH, gens, name=name or f"{G.name}x{H.name}",
                    spec=spec, _elements=elements)
    P.factor_degrees = (dG, dH)
    P.factors = (G, H)
    return P


def product_split(P: FiniteGroup, g: Permutation) -> tuple[Permutation, Permutation]:
    """Split an element of a direct product into its two factor parts."""
    if P.factor_degrees is None:
        raise PreconditionError(f"{P.name} is not a direct product")
    dG, _ = P.factor_degrees
    return (Permutation(g.images[:dG]),
            Permutation(tuple(i - dG for i in g.images[dG:])))


def product_pair(P: FiniteGroup, a: Permutation, b: Permutation) -> Permutation:
    if P.factor_degrees is None:
        raise PreconditionError(f"{P.name} is not a direct product")
    dG, _ = P.factor_degrees
    return Permutation(tuple(a.images) + tuple(i + dG for i in b.images))


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
    trivial = FiniteGroup(G.degree, [], name="1")
    seen: dict[frozenset, FiniteGroup] = {frozenset(trivial.elements): trivial}
    frontier = [trivial]
    while frontier:
        nxt = []
        for H in frontier:
            # <H, g0·h> = <H, g0>: one closure per coset g0·H, from its least element
            tried = set(H.elements)
            for g in G.elements:
                if g in tried:
                    continue
                tried.update(g * h for h in H.elements)
                K = FiniteGroup(G.degree, H.generators + (g,))
                fz = frozenset(K.elements)
                if fz not in seen:
                    seen[fz] = K
                    nxt.append(K)
        frontier = nxt
    subs = sorted(seen.values(), key=lambda H: (H.order, [g.images for g in H.elements]))
    return subs
