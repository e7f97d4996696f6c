"""Group core: enumeration, conjugacy, transporters, homomorphisms."""

import itertools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qell import groups, jsonio
from qell import qell_core as qc
from qell.charmod import ScalarContext
from qell.errors import (
    GroupTooLargeError,
    InternalCheckError,
    InvalidGeneratorError,
    NotHomomorphismError,
    NotSubgroupError,
    PreconditionError,
)
from qell.groups import (
    FiniteGroup,
    GroupHom,
    Permutation,
    all_subgroups,
    alternating,
    conjugate_subgroup,
    cyclic,
    dihedral,
    direct_product,
    factor_split,
    make_group,
    make_hom,
    symmetric,
    transporter,
)
from qell.groupspec import parse_group_spec
from qell.gsets import FiniteGSet, inertia_skeleton, point_set, product_gset, regular_gset
from qell.perm import from_cycles, identity
from strategies import small_perm_specs


def brute_conjugacy_classes(elements):
    """Independent conjugation-orbit computation over a full element list."""
    classes = []
    seen = set()
    for g in elements:
        if g in seen:
            continue
        orbit = {h * g * h.inverse() for h in elements}
        seen |= orbit
        classes.append(orbit)
    return classes


def test_make_group_s3():
    G = make_group(3, [from_cycles(3, [(0, 1)]), from_cycles(3, [(0, 1, 2)])])
    assert G.order == 6
    assert G.elements[0] == identity(3)
    assert sorted(G.elements) == list(G.elements)


def test_a_class_walk_that_misses_an_element_fails_its_check(S3):
    """An element list holding the identity twice: the walk meets the copy
    in no class, so the class sizes fall one short of the list's length."""
    G = FiniteGroup(3, S3.generators, _elements=S3.elements + (S3.identity,))
    assert G.order == 7
    with pytest.raises(InternalCheckError, match="^class sizes do not sum to the group order$"):
        G.conjugacy()


@pytest.mark.parametrize("p", [from_cycles(5, [(0, 1, 2), (3, 4)]), identity(4), identity(0)],
                         ids=["order-6", "identity", "degree-0"])
def test_power_matches_repeated_products(p):
    """p ** n for n = 0, n < 0 and n >= ord(p), against products from the identity."""
    pi = p.inverse()
    order = p.order()
    for n in range(-2 * order - 1, 2 * order + 2):
        expected = identity(p.degree)
        for _ in range(abs(n)):
            expected = expected * (p if n > 0 else pi)
        assert p ** n == expected, n
    assert p ** 0 == identity(p.degree)
    assert p ** order == identity(p.degree)
    assert p ** (order + 1) == p
    assert p ** -1 == pi


def test_make_group_trivial_and_cyclic():
    assert make_group(1, []).order == 1
    assert make_group(4, [from_cycles(4, [(0, 1, 2, 3)])]).order == 4


def test_make_group_rejects_bad_generator():
    with pytest.raises(InvalidGeneratorError):
        Permutation([0, 0, 1])
    with pytest.raises(InvalidGeneratorError):
        make_group(3, [Permutation([1, 0])])  # degree mismatch


def test_order_cap(monkeypatch):
    monkeypatch.setenv("QELL_ORDER_CAP", "5")
    with pytest.raises(GroupTooLargeError, match="group too large"):
        make_group(3, [from_cycles(3, [(0, 1)]), from_cycles(3, [(0, 1, 2)])])


def test_builtin_families():
    assert cyclic(6).order == 6 and len(cyclic(6).generators) == 1
    assert symmetric(3).order == 6
    assert alternating(4).order == 12
    assert dihedral(4).order == 8
    assert dihedral(1).order == 2
    assert dihedral(2).order == 4
    P = direct_product(cyclic(2), cyclic(3))
    assert P.order == 6 and P.is_abelian() and P.exponent() == 6


def test_conjugacy_s3(S3):
    conj = S3.conjugacy()
    assert conj.n_classes == 3
    assert sorted(conj.class_sizes) == [1, 2, 3]
    assert conj.class_reps[0] == S3.identity
    assert sum(conj.class_sizes) == S3.order


def test_conjugacy_c4(C4):
    conj = C4.conjugacy()
    assert conj.n_classes == 4
    assert all(s == 1 for s in conj.class_sizes)


def test_conjugacy_d4_against_brute_force(D4):
    conj = D4.conjugacy()
    oracle = brute_conjugacy_classes(D4.elements)
    assert sorted(len(c) for c in oracle) == [1, 1, 2, 2, 2]
    assert sorted(conj.class_sizes) == sorted(len(c) for c in oracle)
    # representatives must be the least member of their own class
    for rep, size in zip(conj.class_reps, conj.class_sizes):
        cls = next(c for c in oracle if rep in c)
        assert len(cls) == size
        assert rep == min(cls)


def test_class_equation_builtin_sweep():
    for G in (cyclic(5), symmetric(4), dihedral(6), alternating(4)):
        conj = G.conjugacy()
        assert sum(conj.class_sizes) == G.order
        for ci, size in enumerate(conj.class_sizes):
            assert size * conj.centralizer(ci).order == G.order


def test_transporter_s3(S3):
    g = Permutation([1, 0, 2])    # (0 1)
    g2 = Permutation([2, 1, 0])   # (0 2)
    ts = transporter(S3, g, g2)
    oracle = [x for x in S3.elements if g * x == x * g2]
    assert ts == oracle
    assert len(ts) == 2


def test_transporter_specializes_to_centralizer(S3):
    g = Permutation([1, 0, 2])
    assert transporter(S3, g, g) == list(S3.centralizer(g).elements)


def test_transporter_empty_for_nonconjugate(S3):
    assert transporter(S3, Permutation([1, 0, 2]), Permutation([1, 2, 0])) == []


def test_transporter_is_centralizer_coset(S3, D4):
    for G in (S3, D4):
        for g, g2 in itertools.product(G.elements, repeat=2):
            ts = transporter(G, g, g2)
            if not ts:
                continue
            x0 = ts[0]
            C = G.centralizer(g)
            assert sorted(ts) == sorted(c * x0 for c in C.elements)
            assert len(ts) == C.order


def test_make_hom_inclusion(S3, c2_in_s3):
    phi = make_hom(c2_in_s3, S3, [g for g in c2_in_s3.generators])
    assert phi(c2_in_s3.identity) == S3.identity


def test_make_hom_sign(S3):
    C2 = cyclic(2)
    images = []
    for g in S3.generators:
        odd = sum(len(c) - 1 for c in g.cycles()) % 2
        images.append(C2.generators[0] if odd else C2.identity)
    sign = make_hom(S3, C2, images)
    kernel = sign.kernel()
    oracle = [g for g in S3.elements
              if sum(len(c) - 1 for c in g.cycles()) % 2 == 0]
    assert kernel.order == 3
    assert sorted(kernel.elements) == sorted(oracle)


def test_make_hom_c4_to_c2():
    C4, C2 = cyclic(4), cyclic(2)
    phi = make_hom(C4, C2, [C2.generators[0]])
    g = C4.generators[0]
    assert phi(g).order() == 2
    assert phi(g * g) == C2.identity


def test_make_hom_rejects_non_hom():
    C4, C3 = cyclic(4), cyclic(3)
    with pytest.raises(NotHomomorphismError):
        make_hom(C4, C3, [C3.generators[0]])


def test_make_hom_inconsistent_extension():
    flip = from_cycles(2, [(0, 1)])
    G = make_group(2, [flip, flip])      # the same generator twice
    C4 = cyclic(4)
    h = C4.generators[0]
    with pytest.raises(NotHomomorphismError, match="image undefined"):
        make_hom(G, C4, [h, h])          # (01)(01) = e would need h^2 = e


def test_hom_compose_round_trip(S3, c2_in_s3):
    inc = GroupHom.inclusion(c2_in_s3, S3)
    ident = GroupHom.identity_on(S3)
    comp = ident.compose(inc)
    assert all(comp(g) == inc(g) for g in c2_in_s3.elements)
    GroupHom(comp.domain, comp.codomain, comp.image_of)  # re-verify


def test_hom_check_failures_name_their_branch(S3, c2_in_s3):
    ident = {g: g for g in S3.elements}
    partial = dict(ident)
    del partial[S3.elements[-1]]
    with pytest.raises(NotHomomorphismError, match="map is not total on the domain"):
        GroupHom(S3, S3, partial)
    with pytest.raises(NotHomomorphismError, match="is not in the codomain"):
        GroupHom(S3, c2_in_s3, ident)
    t, e, s = c2_in_s3.generators[0], S3.identity, S3.generators[0]
    with pytest.raises(NotHomomorphismError) as info:
        GroupHom(S3, S3, {g: t for g in S3.elements})      # f(e·s) = t, f(e)·f(s) = e
    assert str(info.value) == f"not a homomorphism: fails at ({e!r}, {s!r})"


# -- generator checks against all pairs -------------------------------------------

def _odd(g):
    return sum(len(c) - 1 for c in g.cycles()) % 2


def _not_a_hom(G, H, image_of):
    """The all-pairs reference for GroupHom's check."""
    return (set(image_of) != set(G.elements) or any(x not in H for x in image_of.values())
            or any(image_of[a * b] != image_of[a] * image_of[b] for a in G for b in G))


def _not_an_action(G, n, table):
    """The all-pairs reference for FiniteGSet's check."""
    points = tuple(range(n))
    return (table[G.identity] != points or any(sorted(r) != list(points) for r in table.values())
            or any(table[a * b][x] != table[a][table[b][x]]
                   for a in G for b in G for x in points))


def _not_equivariant(G, X, Y, f):
    """The all-(g, x) reference for pullback_map's equivariance check."""
    return any(f[X.act(g, x)] != Y.act(g, f[x]) for g in G for x in X.points())


def _raises(error, build):
    try:
        build()
    except error:
        return True
    return False


def _coset_to_twist(data, G):
    """One left coset x<s> of a generator's cyclic group, or one element.
    A map twisted on x<s> still passes every s-edge, so only the other
    generators' edges can catch it."""
    x = data.draw(st.sampled_from(G.elements))
    if not G.generators or data.draw(st.booleans()):
        return [x]
    s, coset = data.draw(st.sampled_from(G.generators)), [x]
    while coset[-1] * s != x:
        coset.append(coset[-1] * s)
    return coset


@settings(max_examples=60, deadline=None)
@given(st.one_of(st.sampled_from(["S4", "D6", "C2xC4"]), small_perm_specs(max_degree=4)),
       st.data())
def test_generator_checks_match_the_all_pairs_reference(spec, data):
    """A hom, an action or an equivariant map checked on generator edges
    fails exactly when some pair fails.  Valid maps are corrupted on one
    element or on one coset of a generator: an image replaced or multiplied
    by t, a row's entries swapped or its points relabelled, a point's image
    moved along its <s>-orbit.  A table with a row missing or a row for a
    non-element is refused outright."""
    G = parse_group_spec(spec)
    conj = G.conjugacy()
    C = conj.centralizer(data.draw(st.integers(0, conj.n_classes - 1)))
    homs = [(G, G, {g: g for g in G.elements}), (C, G, {c: c for c in C.elements})]
    if any(map(_odd, G.generators)):
        C2 = cyclic(2)
        homs.append((G, C2, {g: C2.generators[0] if _odd(g) else C2.identity for g in G}))
    for domain, codomain, image_of in homs:
        assert not _raises(NotHomomorphismError, lambda: GroupHom(domain, codomain, image_of))
        bad, t = dict(image_of), data.draw(st.sampled_from(codomain.elements))
        twisted = _coset_to_twist(data, domain)
        for g in twisted:
            bad[g] = t if len(twisted) == 1 else t * bad[g]
        assert _raises(NotHomomorphismError, lambda: GroupHom(domain, codomain, bad)) == \
            _not_a_hom(domain, codomain, bad)
    for n, table in ((G.degree, {g: tuple(g) for g in G.elements}),
                     (G.order, regular_gset(G)._table)):
        assert not _raises(PreconditionError, lambda: FiniteGSet(G, n, table))
        bad = dict(table)
        i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        twisted = _coset_to_twist(data, G)
        for g in twisted:
            row = list(bad[g])
            if len(twisted) > 1:                    # relabel: swap the values i and j
                row = [j if y == i else i if y == j else y for y in row]
            elif data.draw(st.booleans()):
                row[i], row[j] = row[j], row[i]
            else:
                row[i] = j
            bad[g] = tuple(row)
        assert _raises(PreconditionError, lambda: FiniteGSet(G, n, bad)) == \
            _not_an_action(G, n, bad)
        gone = data.draw(st.sampled_from(G.elements))
        partial = {g: row for g, row in table.items() if g != gone}
        outside = {**table, identity(G.degree + 1): tuple(range(n))}
        for wrong in (partial, outside):
            assert _raises(PreconditionError, lambda: FiniteGSet(G, n, wrong))
    # g ↦ g·0 from the regular set to the natural one, moved on one point, or
    # on its <s>-orbit as s^k·y ↦ s^k·j so that every s-edge still holds
    X, Y = regular_gset(G), FiniteGSet(G, G.degree, {g: g for g in G.elements})
    elt = qc.structure(G, Y, ScalarContext.for_groups([G])).unit()
    bad = [g[0] for g in G.elements]
    y, j = data.draw(st.sampled_from(G.elements)), data.draw(st.integers(0, G.degree - 1))
    s = data.draw(st.sampled_from((G.identity,) + G.generators))
    for k in range(s.order()):
        bad[G.index(s ** k * y)] = (s ** k)[j]
    try:
        qc.pullback_map(bad, elt, X)
        raised = False
    except PreconditionError as err:
        assert str(err) == "point map is not equivariant"
        raised = True
    assert raised == _not_equivariant(G, X, Y, bad)


def test_product_gset_needs_the_product_of_its_factor_groups(S3):
    C3 = cyclic(3)
    for X, Y, P in ((regular_gset(C3), point_set(C3), direct_product(S3, C3)),
                    (regular_gset(S3), point_set(C3), direct_product(C3, C3)),
                    (regular_gset(C3), point_set(C3), S3)):
        with pytest.raises(PreconditionError, match="is not the direct product"):
            product_gset(X, Y, P)


def test_all_subgroups_counts(S3, D4):
    assert len(all_subgroups(S3)) == 6
    assert len(all_subgroups(D4)) == 10


def _all_subgroups_every_element(G):
    """The reference for all_subgroups: one closure per subgroup and per
    element outside it."""
    trivial = FiniteGroup(G.degree, [], name="1")
    seen = {frozenset(trivial.elements): trivial}
    frontier = [trivial]
    while frontier:
        nxt = []
        for H in frontier:
            for g in G.elements:
                if g in H:
                    continue
                K = FiniteGroup(G.degree, H.generators + (g,))
                fz = frozenset(K.elements)
                if fz not in seen:
                    seen[fz] = K
                    nxt.append(K)
        frontier = nxt
    return sorted(seen.values(), key=lambda H: (H.order, [g for g in H.elements]))


@pytest.mark.parametrize("spec", ["S3", "S4", "D6", "C2xC4", "A5"])
def test_all_subgroups_one_closure_per_coset(spec):
    """Skipping the rest of a tried coset finds the same subgroups, in the
    same order, each the registry entry of its member set."""
    G = parse_group_spec(spec)
    subs = all_subgroups(G)
    assert [H.elements for H in subs] == [H.elements for H in _all_subgroups_every_element(G)]
    assert all(G.subgroup_of(H.elements) is H for H in subs)


def _parts(P, g):
    """The two factor parts of an element of P = A x B, sliced off its image
    tuple: the oracle the index law is checked against."""
    d = P.factors[0].degree
    return g[:d], tuple(i - d for i in g[d:])


def test_direct_product_classes_are_pairs():
    """Class i of S3xC2 is the pair of S3's class i // 2 and C2's class i % 2."""
    S3, C2 = symmetric(3), cyclic(2)
    P = direct_product(S3, C2)
    conj = P.conjugacy()
    assert conj.n_classes == 6
    for ci, rep in enumerate(conj.class_reps):
        gi, hi = divmod(ci, 2)
        assert _parts(P, rep) == (S3.conjugacy().class_reps[gi], C2.conjugacy().class_reps[hi])


def test_factor_split_finds_each_split_subgroup_once():
    """Each subgroup S of S3xC4 that splits is S_A x S_B, registry entries of
    the factors' images; the split is found once per member set, and one
    that does not split, or a group with no direct-product root, has none."""
    S3, C4 = symmetric(3), cyclic(4)
    P = direct_product(S3, C4)
    assert factor_split(P) == (S3, C4) and factor_split(P)[0] is S3
    n_split = 0
    for S in all_subgroups(P):
        split = factor_split(S)
        assert factor_split(S) is split
        left = {_parts(P, g)[0] for g in S.elements}
        right = {_parts(P, g)[1] for g in S.elements}
        if len(left) * len(right) != S.order:
            assert split is None
            continue
        n_split += 1
        assert split[0] is S3.subgroup_of(left) and split[1] is C4.subgroup_of(right)
        _assert_the_index_law(S)
    assert n_split == 6 * 3        # a subgroup of S3 times one of C4
    assert factor_split(S3) is None


def _assert_the_index_law(S):
    """Element i of a split S is (S_A's element i // |S_B|, S_B's element
    i % |S_B|), and class i is (S_A's class i // k_B, S_B's class i % k_B):
    checked against each element's parts and the factors' class maps."""
    SA, SB = factor_split(S)
    P, kB = S._root, SB.conjugacy().n_classes
    assert [_parts(P, g) for g in S.elements] == \
        [(SA.elements[i // SB.order], SB.elements[i % SB.order]) for i in range(S.order)]
    in_a, in_b = SA.conjugacy().class_of, SB.conjugacy().class_of
    pairs = [_parts(P, g) for g in S.conjugacy().class_reps]
    assert [(in_a[a], in_b[b]) for a, b in pairs] == \
        [divmod(i, kB) for i in range(len(pairs))]


_LAW_FACTORS = st.one_of(st.sampled_from(["C1", "C2", "C3", "C4", "D2", "S3", "D4", "A4", "S4",
                                          "(S3xC2)"]),
                         small_perm_specs(max_degree=4))


@settings(max_examples=25, deadline=None)
@given(_LAW_FACTORS, _LAW_FACTORS)
def test_the_index_law_holds_on_every_split_subgroup(left, right):
    """Every split subgroup of A x B is S_A x S_B for S_A <= A and S_B <= B,
    and ``factor_split`` finds those two; (S3xC2) is itself a product, so a
    product with it is nested."""
    A, B = parse_group_spec(left), parse_group_spec(right)
    P = direct_product(A, B)
    for SA in all_subgroups(A):
        for SB in all_subgroups(B):
            S = P.subgroup_of(groups.product_pair(P, a, b) for a in SA.elements
                              for b in SB.elements)
            assert factor_split(S) == (SA, SB)
            _assert_the_index_law(S)


# -- the subgroup registry ---------------------------------------------------------

# the perm: spec lists a redundant generator: (0 1) and (1 2) with the 5-cycle
@pytest.fixture(scope="module",
                params=["S4", "D6", "perm:5:(0,1,2,3,4);(0,1);(1,2)"])
def registry_group(request):
    return parse_group_spec(request.param)


def test_centralizers_are_interned(registry_group):
    G = registry_group
    conj = G.conjugacy()
    for ci in range(conj.n_classes):
        C = conj.centralizer(ci)
        assert G.subgroup_of(C.elements) is C
        assert G.subgroup_of(reversed(C.elements)) is C
        assert C.subgroup_of(C.elements) is C       # one registry, on the root


def test_one_point_stabilizers_are_centralizers(registry_group):
    for entry in inertia_skeleton(registry_group, point_set(registry_group)):
        (orbit,) = entry.orbits
        assert orbit.stabilizer is entry.centralizer


def test_a_root_is_its_own_full_set_entry(registry_group):
    """The root answers for its full member set, keeping the generators it
    was given, and is the centralizer of each central class."""
    G = registry_group
    generators = G.generators
    assert G.subgroup_of(G.elements) is G
    assert G.subgroup_of(reversed(G.elements)) is G
    assert G.subgroup(G.generators) is G
    assert G.generators == generators
    conj = G.conjugacy()
    central = [ci for ci, size in enumerate(conj.class_sizes) if size == 1]
    assert central and all(conj.centralizer(ci) is G for ci in central)


def test_a_cold_build_closes_no_root_member_set_again(registry_group, monkeypatch):
    G = parse_group_spec(registry_group.spec)       # a fresh root: cold caches
    closed = []
    least_first = groups._least_first
    monkeypatch.setattr(groups, "_least_first", lambda root, members: closed.append(
        len(set(members))) or least_first(root, members))
    qc.structure(G, point_set(G), ScalarContext.for_groups([G]))
    assert closed and G.order not in closed


def test_subgroup_of_rejects_non_groups(registry_group):
    G = registry_group
    g = next(x for x in G.elements if x.order() > 2)
    for members in ([G.identity, g], G.elements[1:]):
        with pytest.raises(InvalidGeneratorError):
            G.subgroup_of(members)
    C = G.conjugacy().centralizer(1)
    outside = next(x for x in G.elements if x not in C)
    with pytest.raises(NotSubgroupError):
        C.subgroup_of(C.elements + (outside,))


def test_conjugation_is_interned(registry_group):
    G = registry_group
    conj = G.conjugacy()
    for ci in range(conj.n_classes):
        C = conj.centralizer(ci)
        for w in G.elements:
            S = conjugate_subgroup(G, C, w)
            assert conjugate_subgroup(G, C, w) is S
            assert set(S.elements) == {w * c * w.inverse() for c in C.elements}
        assert all(conjugate_subgroup(G, C, c) is C for c in C.elements)


# -- one class walk per member set ---------------------------------------------------

WALK_SPECS = ["S4", "D6", "C2xC4", "A5", "perm:5:(0,1,2,3,4);(0,1);(1,2)"]


@pytest.fixture
def walks(monkeypatch):
    """The groups ``_conjugacy_data`` walks, in call order."""
    seen = []
    walk = groups._conjugacy_data
    monkeypatch.setattr(groups, "_conjugacy_data", lambda G: seen.append(G) or walk(G))
    return seen


@pytest.mark.parametrize("spec", WALK_SPECS)
def test_full_member_set_copy_has_the_roots_classes(spec):
    G = parse_group_spec(spec)
    H = G.subgroup_of(G.elements)
    a, b = G.conjugacy(), H.conjugacy()
    assert b.group is H
    assert b.class_reps == a.class_reps and b.class_sizes == a.class_sizes
    assert b.class_elements == a.class_elements
    assert b.class_of == a.class_of
    assert {g: b.class_index(g) for g in H} == {g: a.class_index(g) for g in G}


@pytest.mark.parametrize("spec", WALK_SPECS)
def test_one_class_walk_per_member_set(spec, walks):
    G = parse_group_spec(spec)
    G.subgroup_of(G.elements).conjugacy()
    G.conjugacy()
    assert walks == [G]
    conj = G.conjugacy()
    for ci in range(conj.n_classes):
        conj.centralizer(ci).conjugacy()
    assert len(walks) == 1 + len({conj.centralizer(ci) for ci in range(conj.n_classes)
                                  if conj.class_sizes[ci] > 1})


@pytest.mark.parametrize("spec", WALK_SPECS)
def test_one_object_and_one_walk_per_member_set(spec, walks):
    """Subgroups by generators and every entry of all_subgroups come from the
    root's registry, so walking them and their centralizers walks each member
    set once."""
    G = parse_group_spec(spec)
    subs = all_subgroups(G)
    for H in subs:
        assert G.subgroup_of(H.elements) is H
        assert G.subgroup(H.generators) is H
    walked = []
    for H in subs:
        conj = H.conjugacy()
        walked += [H, *map(conj.centralizer, range(conj.n_classes))]
    assert len(walks) == len({H.elements for H in walked})


@pytest.mark.parametrize("spec", WALK_SPECS)
def test_central_classes_have_the_whole_group_as_centralizer(spec):
    G = parse_group_spec(spec)
    conj = G.conjugacy()
    for ci in range(conj.n_classes):
        C = conj.centralizer(ci)
        assert C.order * conj.class_sizes[ci] == G.order
        if conj.class_sizes[ci] == 1:
            assert C is G.subgroup_of(G.elements)
        inner = C.conjugacy()           # a subgroup's central classes too
        for cj, size in enumerate(inner.class_sizes):
            if size == 1:
                assert inner.centralizer(cj) is C


@pytest.mark.parametrize("spec", WALK_SPECS)
def test_central_classes_need_no_scan(spec, monkeypatch):
    scanned = []
    scan = FiniteGroup.centralizer
    monkeypatch.setattr(FiniteGroup, "centralizer",
                        lambda self, g: scanned.append(g) or scan(self, g))
    G = parse_group_spec(spec)
    conj = G.conjugacy()
    for ci in range(conj.n_classes):
        assert conj.centralizer(ci).order * conj.class_sizes[ci] == G.order
    assert scanned == [g for g, size in zip(conj.class_reps, conj.class_sizes) if size > 1]


def _assert_elements_sorted_by_lt(G):
    """Element order is the order of ``Permutation.__lt__``, for the group, its
    full-set entry and every centralizer, so canonical reps cannot move."""
    conj = G.conjugacy()
    for H in (G, G.subgroup_of(G.elements), *map(conj.centralizer, range(conj.n_classes))):
        assert list(H.elements) == sorted(H.elements)
        assert H.conjugacy().class_reps == tuple(sorted(H.conjugacy().class_reps))


@pytest.mark.parametrize("spec", WALK_SPECS)
def test_elements_follow_permutation_order(spec):
    _assert_elements_sorted_by_lt(parse_group_spec(spec))


@settings(max_examples=25, deadline=None)
@given(small_perm_specs(max_degree=6))
def test_elements_follow_permutation_order_on_random_groups(spec):
    _assert_elements_sorted_by_lt(parse_group_spec(spec))


@pytest.mark.parametrize("degree", [0, 1])
def test_groups_of_degree_below_two_are_trivial(degree):
    e = identity(degree)
    G = FiniteGroup(degree, [e, e])
    assert G.elements == (e,) and G.exponent() == 1
    assert G.conjugacy().class_reps == (e,)
    assert G.centralizer(e).elements == (e,)
    assert G.conjugacy().centralizer(0).elements == (e,)


# -- a permutation is its image tuple ---------------------------------------------

def test_a_permutation_is_its_image_tuple():
    p = from_cycles(5, [(0, 1, 2), (3, 4)])
    images = (1, 2, 0, 4, 3)
    assert isinstance(p, tuple) and p == images and images == p
    assert hash(p) == hash(images)
    assert len(p) == p.degree == 5 and p[3] == p(3) == 4
    assert type(p[1:]) is tuple and type(p + p) is tuple
    assert not identity(0) and identity(0) == ()


def test_permutations_sort_as_their_tuples():
    perms = list(symmetric(4).elements) + [identity(2), Permutation([1, 0]), identity(0)]
    random.Random(0).shuffle(perms)
    assert [tuple(p) for p in sorted(perms)] == sorted(tuple(p) for p in perms)


@pytest.mark.parametrize("spec", ["S4", "D6", "C2xC4"])
def test_a_plain_image_tuple_finds_its_element(spec):
    G = parse_group_spec(spec)
    conj = G.conjugacy()
    for i, g in enumerate(G.elements):
        images = tuple(g)
        assert type(images) is tuple
        assert G._index[images] == i
        assert conj.class_of[images] == conj.class_of[g] == conj.class_index(images)
    assert tuple(G.identity) not in G       # membership still asks for a Permutation


def test_permutations_hold_no_per_element_state():
    p = from_cycles(3, [(0, 1)])
    with pytest.raises(AttributeError):
        p.images = (1, 0, 2)
    assert not hasattr(p, "__dict__")
    assert "__mul__" in Permutation.__dict__ and "inverse" in Permutation.__dict__


@pytest.mark.parametrize("degree", [0, 1])
def test_trivial_groups_build_their_rings_and_unit_payloads(degree):
    G = FiniteGroup(degree, [])
    sctx = ScalarContext.for_groups([G])
    for X in (point_set(G), regular_gset(G)):
        st = qc.structure(G, X, sctx)
        assert st.total_rank() == 1
        payload = json.loads(jsonio.dumps(jsonio.element_payload(st.unit())))
        assert [c["rep"] for c in payload["classes"]] == [list(range(degree))]


# -- one element scan ---------------------------------------------------------------

@pytest.mark.parametrize("spec", ["S4", "A5", "D6", "C2xC4", "C1"])
def test_transporter_is_the_one_element_scan(spec):
    G = parse_group_spec(spec)
    conj = G.conjugacy()
    for ci, g in enumerate(conj.class_reps):
        assert transporter(G, g, g) == list(conj.centralizer(ci).elements)
        assert transporter(G, g, g) == list(G.centralizer(g).elements)
        for rep in conj.class_reps:
            assert transporter(G, g, rep) == [x for x in G if g * x == x * rep]


def test_transporter_rejects_a_degree_mismatch(S3):
    for g, g2 in ((identity(4), identity(4)), (identity(3), identity(4))):
        with pytest.raises(InvalidGeneratorError, match="degree mismatch in composition"):
            transporter(S3, g, g2)
