"""Group core: enumeration, conjugacy, transporters, homomorphisms."""

import itertools

import pytest

from qell.errors import (
    GroupTooLargeError,
    InvalidGeneratorError,
    NotHomomorphismError,
    NotSubgroupError,
)
from qell.groups import (
    FiniteGroup,
    GroupHom,
    Permutation,
    _closure,
    all_subgroups,
    alternating,
    conjugate_subgroup,
    cyclic,
    dihedral,
    direct_product,
    make_group,
    make_hom,
    symmetric,
    transporter,
)
from qell.groupspec import parse_group_spec
from qell.gsets import inertia_skeleton, point_set
from qell.perm import from_cycles, identity


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
        assert (p ** n).images == expected.images
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
    return sorted(seen.values(), key=lambda H: (H.order, [g.images for g in H.elements]))


@pytest.mark.parametrize("spec", ["S3", "S4", "D6", "C2xC4", "A5"])
def test_all_subgroups_one_closure_per_coset(spec):
    """Skipping the rest of a tried coset finds the same subgroups, in the
    same order, with the same generators."""
    G = parse_group_spec(spec)

    def data(subs):
        return [(H.elements, H.generators) for H in subs]
    assert data(all_subgroups(G)) == data(_all_subgroups_every_element(G))


def test_direct_product_classes_are_pairs():
    P = direct_product(symmetric(3), cyclic(2))
    conj = P.conjugacy()
    assert conj.n_classes == 6
    from qell.groups import product_split
    for rep in conj.class_reps:
        a, b = product_split(P, rep)
        assert a in symmetric(3)


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


def test_full_member_set_is_a_least_first_copy(registry_group):
    G = registry_group
    H = G.subgroup_of(G.elements)
    assert H == G and H is not G
    assert G.subgroup_of(G.elements) is H
    for k, g in enumerate(H.generators):
        span = set(_closure(G.degree, H.generators[:k]))
        assert g == min(x for x in G.elements if x not in span)
    assert set(_closure(G.degree, H.generators)) == set(G.elements)


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
