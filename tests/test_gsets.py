"""G-sets, fixed points, induced sets, and the inertia skeleton."""

import pytest

from qell import gsets, jsonio
from qell import qell_core as qc
from qell.charmod import ScalarContext
from qell.errors import InternalCheckError, NotSubgroupError, PreconditionError, SchemaError
from qell.groups import (
    FiniteGroup,
    GroupHom,
    Permutation,
    all_subgroups,
    cyclic,
    dihedral,
    direct_product,
    symmetric,
    transporter,
)
from qell.groupspec import parse_group_spec
from qell.gsets import (
    FiniteGSet,
    coset_gset,
    fixed_points,
    induced_gset,
    inertia_skeleton,
    orbits_with_stabilizers,
    point_set,
    regular_gset,
)

SMALL_GROUPS = pytest.mark.parametrize(
    "G", [symmetric(4), dihedral(6), direct_product(cyclic(2), cyclic(4))],
    ids=["S4", "D6", "C2xC4"])


def natural_gset(G):
    return FiniteGSet(G, G.degree, {g: g for g in G.elements}, name="natural")


def test_action_verification_rejects_bad_table(S3):
    bad = {g: (1, 2, 0) for g in S3.elements}   # identity fails to fix points
    with pytest.raises(PreconditionError, match="identity does not act trivially"):
        FiniteGSet(S3, 3, bad)
    bad2 = {g: tuple((g * g)(x) for x in range(3)) for g in S3.elements}
    with pytest.raises(PreconditionError, match="action not compatible at"):
        FiniteGSet(S3, 3, bad2)   # squaring is not compatible with composition
    short = {g: tuple(g) for g in S3.elements}
    short[next(g for g in S3.elements[1:] if g not in S3.generators)] = (0, 1)
    with pytest.raises(PreconditionError, match="does not act bijectively"):
        FiniteGSet(S3, 3, short)  # a non-generator row too short to compose with
    with pytest.raises(PreconditionError, match="negative number of points"):
        FiniteGSet(S3, -1, {g: () for g in S3.elements})


def test_fixed_points_natural(S3):
    X = natural_gset(S3)
    assert fixed_points(X, Permutation([1, 0, 2])) == [2]
    assert fixed_points(X, S3.identity) == [0, 1, 2]
    assert fixed_points(X, Permutation([1, 2, 0])) == []


def test_induced_gset_cosets(S3, c2_in_s3):
    Z = induced_gset(S3, c2_in_s3, point_set(c2_in_s3))
    assert Z.n_points == 3
    orbs = orbits_with_stabilizers(S3, Z)
    assert len(orbs) == 1 and len(orbs[0].points) == 3


def test_induced_gset_size_formula(S3, c3_in_s3):
    X = regular_gset(c3_in_s3)
    Z = induced_gset(S3, c3_in_s3, X)
    assert Z.n_points == S3.order * X.n_points // c3_in_s3.order


def test_induced_rejects_non_subgroup(S3):
    C2 = cyclic(2)
    with pytest.raises(NotSubgroupError):
        induced_gset(S3, C2, point_set(C2))


def induced_by_definition(G, H, X):
    """G x_H X with every pair labelled by its least (g h^{-1}, h x) over H."""
    def canon(g, x):
        return min((G.index(g * h.inverse()), X.act(h, x)) for h in H.elements)

    reps = sorted({canon(g, x) for g in G.elements for x in X.points()})
    index = {c: i for i, c in enumerate(reps)}
    table = {a: tuple(index[canon(a * G.elements[gi], x)] for gi, x in reps)
             for a in G.elements}
    return FiniteGSet(G, len(reps), table, labels=reps)


@SMALL_GROUPS
def test_induced_gset_matches_definition(G):
    for H in all_subgroups(G):
        for X in (point_set(H), regular_gset(H)):
            Z, oracle = induced_gset(G, H, X), induced_by_definition(G, H, X)
            assert Z.labels == oracle.labels
            assert Z.key() == oracle.key()
            assert Z.n_points == oracle.n_points


def test_induced_gset_is_cached_per_equal_hset(S3, c3_in_s3):
    X = regular_gset(c3_in_s3)
    Z = induced_gset(S3, c3_in_s3, X)
    X2 = X.restrict_group(c3_in_s3)
    assert X2 is not X and X2 == X
    assert induced_gset(S3, c3_in_s3, X2) is Z
    H2 = FiniteGroup(3, [Permutation([1, 2, 0])])
    assert H2 is not c3_in_s3
    assert induced_gset(S3, H2, X2) is Z


def test_induced_gset_checks_preconditions_on_a_warm_cache(S3, c2_in_s3, monkeypatch):
    C2 = cyclic(2)
    Z = induced_gset(S3, c2_in_s3, point_set(c2_in_s3))
    # even an entry stored under the bad arguments' key must not skip the checks
    monkeypatch.setitem(S3._induced, (C2.key(), point_set(C2).key()), Z)
    monkeypatch.setitem(S3._induced, (c2_in_s3.key(), point_set(S3).key()), Z)
    with pytest.raises(NotSubgroupError):
        induced_gset(S3, C2, point_set(C2))
    with pytest.raises(PreconditionError, match="X must be an H-set"):
        induced_gset(S3, c2_in_s3, point_set(S3))


@pytest.mark.parametrize("G", [symmetric(4), dihedral(6)], ids=["S4", "D6"])
def test_transport_to_rep_is_least_transporter(G):
    conj = G.conjugacy()
    for g in G.elements:
        i, w = conj.transport_to_rep(g)
        rep = conj.class_reps[i]
        assert i == conj.class_index(g)
        assert w == transporter(G, g, rep)[0]
        assert g == w * rep * w.inverse()
        assert conj.transport_to_rep(g) is conj.transport_to_rep(g)


@pytest.mark.parametrize("spec", ["S4", "D6", "C2xC4"])
def test_transport_to_rep_of_a_rep_calls_no_transporter(spec, monkeypatch):
    from qell import groups
    calls = []
    original = groups.transporter
    monkeypatch.setattr(groups, "transporter",
                        lambda *args: calls.append(args) or original(*args))
    G = parse_group_spec(spec)
    conj = G.conjugacy()
    for i, rep in enumerate(conj.class_reps):
        assert conj.transport_to_rep(rep) == (i, G.identity)
    assert calls == []


def test_quotient_free_transitive():
    C2 = cyclic(2)
    X = regular_gset(C2)
    assert len(orbits_with_stabilizers(C2, X)) == 1


def test_orbit_stabilizer_invariant(S3):
    X = natural_gset(S3)
    for orb in orbits_with_stabilizers(S3, X):
        assert len(orb.points) * orb.stabilizer.order == S3.order
        for pt in orb.points:
            assert X.act(orb.transport[pt], orb.rep) == pt



# A table made no action after its check: r² acts as r does.  The stabilizer
# of 0 is the subgroup {e}, yet the orbit of 0 has 2 points, not |C3| = 3.
def test_orbit_stabilizer_check_fires_on_an_unchecked_table():
    C3 = cyclic(3)
    e, r, r2 = C3.elements[0], C3.generators[0], C3.generators[0] ** 2
    X = FiniteGSet(C3, 3, {e: (0, 1, 2), r: (1, 2, 0), r2: (2, 0, 1)})
    X._table[r2] = (1, 2, 0)
    with pytest.raises(InternalCheckError, match="orbit-stabilizer"):
        orbits_with_stabilizers(C3, X)


# A C2-table made no action after its check, its generator sending both
# points to 0: the pairs (g, x) then fall into 3 classes, not |C2 x X| / |C2| = 2.
def test_induced_point_count_check_fires_on_an_unchecked_table():
    C2 = cyclic(2)
    e, s = C2.elements
    X = FiniteGSet(C2, 2, {e: (0, 1), s: (1, 0)})
    X._table[s] = (0, 0)
    with pytest.raises(InternalCheckError, match="induced set"):
        induced_gset(C2, C2, X)

def test_skeleton_s3_point(S3):
    sk = inertia_skeleton(S3, point_set(S3))
    cents = [e.centralizer.order for e in sk]
    assert cents == [6, 2, 3]
    for e in sk:
        assert len(e.orbits) == 1
        assert e.orbits[0].stabilizer == e.centralizer
        assert e.g in e.orbits[0].stabilizer


def test_skeleton_free_action():
    C2 = cyclic(2)
    sk = inertia_skeleton(C2, regular_gset(C2))
    assert len(sk[0].orbits) == 1
    assert sk[0].orbits[0].stabilizer.order == 1
    assert sk[1].fixed == ()


def test_skeleton_s3_on_cosets(S3, c2_in_s3):
    X = induced_gset(S3, c2_in_s3, point_set(c2_in_s3))
    sk = inertia_skeleton(S3, X)
    # brute-force oracle for fixed sets
    for entry in sk:
        oracle = tuple(x for x in X.points() if X.act(entry.g, x) == x)
        assert entry.fixed == oracle
    by_order = {e.g.order(): e for e in sk}
    assert len(by_order[1].orbits) == 1 and by_order[1].orbits[0].stabilizer.order == 2
    assert len(by_order[2].fixed) == 1 and by_order[2].orbits[0].stabilizer.order == 2
    assert by_order[3].fixed == () and by_order[3].orbits == []


def test_coset_gset_matches_induced(S3, c2_in_s3):
    A = coset_gset(S3, c2_in_s3)
    assert A.n_points == 3
    orbs = orbits_with_stabilizers(S3, A)
    assert len(orbs) == 1



# -- references for the removed G/H builders and the old space classifier ------

def coset_gset_by_min(G, H):
    """G/H with every (g, coset) labelled by a min over H: O(|G|^2 |H|)."""
    rep_of = {}
    reps = []
    for g in G.elements:
        coset = min(g * h for h in H.elements)
        if coset not in rep_of:
            rep_of[coset] = len(reps)
            reps.append(coset)
        rep_of[g] = rep_of[coset]
    return FiniteGSet(G, len(reps),
                      {g: tuple(rep_of[min(g * r * h for h in H.elements)] for r in reps)
                       for g in G.elements},
                      name=f"{G.name}/{H.name}", labels=reps)


def regular_gset_by_table(G):
    """G acting on itself by left translation, from a |G|^2 table of indices."""
    idx = {g: i for i, g in enumerate(G.elements)}
    return FiniteGSet(G, G.order,
                      {g: tuple(idx[g * h] for h in G.elements) for g in G.elements},
                      name=f"reg<{G.name}>")


def space_payload_by_regular_table(G, X):
    """The space classifier that compared with a rebuilt regular table."""
    if X == point_set(G):
        return {"kind": "pt"}
    if X.n_points == G.order and X == regular_gset_by_table(G):
        return {"kind": "regular"}
    H = G.subgroup_of([g for g in G.elements if X.act(g, 0) == 0])
    if X == induced_gset(G, H, point_set(H)):
        return {"kind": "cosets", "subgroup": dict(
            jsonio.group_payload(H), generators=[list(g) for g in H.elements])}
    raise SchemaError(f"space {X.name} has no JSON descriptor")


def classified(classify, struct):
    try:
        return classify(struct.group, struct.gset)
    except SchemaError as exc:
        return "SchemaError", str(exc)


@SMALL_GROUPS
def test_coset_and_regular_gsets_match_the_removed_builders(G):
    assert regular_gset(G).key() == regular_gset_by_table(G).key()
    for H in all_subgroups(G):
        assert coset_gset(G, H).key() == coset_gset_by_min(G, H).key()


@SMALL_GROUPS
def test_space_payload_matches_the_regular_table_classifier(G):
    sctx = ScalarContext.for_groups([G])
    spaces = [point_set(G), regular_gset(G)] + [coset_gset(G, H) for H in all_subgroups(G)]
    for X in spaces:
        struct = qc.structure(G, X, sctx)
        assert classified(jsonio.space_payload, struct) == \
            classified(space_payload_by_regular_table, struct)


def test_space_payload_on_a_set_without_descriptor():
    S4 = symmetric(4)
    H = parse_group_spec("perm:4:(0,1,2);(0,1)")
    X = regular_gset(S4).via_hom(GroupHom.inclusion(H, S4))
    struct = qc.structure(H, X, ScalarContext.for_groups([S4]))
    new = classified(jsonio.space_payload, struct)
    assert new == classified(space_payload_by_regular_table, struct)
    assert new == ("SchemaError", f"space {X.name} has no JSON descriptor")


def test_structure_payload_on_an_empty_set():
    S3 = symmetric(3)
    X = FiniteGSet(S3, 0, dict.fromkeys(S3.elements, ()), name="empty")
    struct = qc.structure(S3, X, ScalarContext.for_groups([S3]))
    with pytest.raises(SchemaError, match="space empty has no JSON descriptor"):
        jsonio.structure_payload(struct)


def test_classifying_a_regular_structure_builds_no_induced_set(monkeypatch):
    G = symmetric(4)
    struct = qc.structure(G, regular_gset(G), ScalarContext.for_groups([G]))
    assert jsonio.space_payload(G, struct.gset) == {"kind": "regular"}
    calls = []
    build = gsets._build_induced_gset
    monkeypatch.setattr(gsets, "_build_induced_gset",
                        lambda *args: calls.append(1) or build(*args))
    assert jsonio.space_payload(G, struct.gset) == {"kind": "regular"}
    assert calls == []


def test_a_one_point_space_is_classified_without_a_point_set(monkeypatch):
    G = symmetric(4)
    struct = qc.structure(G, coset_gset(G, G.subgroup_of(G.elements)),
                          ScalarContext.for_groups([G]))
    monkeypatch.setattr(jsonio, "point_set", None)
    assert jsonio.space_payload(G, struct.gset) == {"kind": "pt"}


def test_restrict_and_via_hom(S3, c3_in_s3):
    from qell.groups import GroupHom
    X = natural_gset(S3)
    XH = X.restrict_group(c3_in_s3)
    assert XH.group == c3_in_s3 and XH.n_points == X.n_points
    inc = GroupHom.inclusion(c3_in_s3, S3)
    assert X.via_hom(inc) == XH
