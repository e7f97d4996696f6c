"""QEll structures and the structural maps between them."""

import random
from fractions import Fraction

import pytest

from qell import groups
from qell import qell_core as qc
from qell import rotrep as rr
from qell import verify
from qell.charmod import ScalarContext, central_angle
from qell.errors import InternalCheckError, PreconditionError
from qell.groups import (
    GroupHom,
    cyclic,
    dihedral,
    direct_product,
    make_hom,
    symmetric,
)
from qell.gsets import (
    FiniteGSet,
    coset_gset,
    induced_gset,
    point_set,
    product_gset,
    regular_gset,
)
from qell.qlaurent import q_power


@pytest.fixture(scope="module")
def s3_point(S3):
    sctx = ScalarContext.for_groups([S3])
    return qc.structure(S3, point_set(S3), sctx)


def test_structure_z2_point():
    G = cyclic(2)
    sctx = ScalarContext.for_groups([G])
    st = qc.structure(G, point_set(G), sctx)
    assert [sum(cb.ranks) for cb in st.classes] == [2, 2]
    ctx = st.classes[1].ctxs[0]
    x = ctx.basis_elt(1)
    assert x * x == ctx.q()


def test_structure_s3_point_ranks(s3_point):
    assert [sum(cb.ranks) for cb in s3_point.classes] == [3, 2, 3]
    assert s3_point.total_rank() == 8
    for cb in s3_point.classes:
        assert len(cb.orbits) == 1
        assert cb.orbits[0].stabilizer == cb.centralizer


def test_structure_free_regular_set():
    G = cyclic(2)
    sctx = ScalarContext.for_groups([G])
    st = qc.structure(G, regular_gset(G), sctx)
    assert len(st.classes[0].orbits) == 1
    assert st.classes[0].ctxs[0].rank == 1
    assert st.classes[1].orbits == []
    assert st.total_rank() == 1


def test_rank_identity_sum_over_centralizers():
    for G in (symmetric(3), dihedral(4), symmetric(4)):
        sctx = ScalarContext.for_groups([G])
        st = qc.structure(G, point_set(G), sctx)
        conj = G.conjugacy()
        expected = sum(conj.centralizer(ci).conjugacy().n_classes
                       for ci in range(conj.n_classes))
        assert st.total_rank() == expected


def test_ring_ops_and_unit(s3_point):
    rng = random.Random(0)
    a = qc.random_element(s3_point, rng)
    b = qc.random_element(s3_point, rng)
    assert a * b == b * a
    assert a * s3_point.unit() == a
    assert (a - a).is_zero()
    assert a * s3_point.q() * s3_point.q(-1) == a


# -- pullbacks ----------------------------------------------------------------

def test_pullback_identity_hom(s3_point, S3):
    ident = GroupHom.identity_on(S3)
    a = qc.random_element(s3_point, random.Random(1))
    assert qc.pullback_hom(ident, a) == a


def test_pullback_inclusion_restricts_rank(S3, s3_point, c2_in_s3):
    incl = GroupHom.inclusion(c2_in_s3, S3)
    u = qc.pullback_hom(incl, s3_point.unit())
    stH = u.structure
    assert [sum(cb.ranks) for cb in stH.classes] == [2, 2]
    assert u == stH.unit()


def test_pullback_is_ring_hom(S3, s3_point, c3_in_s3):
    incl = GroupHom.inclusion(c3_in_s3, S3)
    rng = random.Random(2)
    for _ in range(6):
        a, b = qc.random_element(s3_point, rng), qc.random_element(s3_point, rng)
        assert qc.pullback_hom(incl, a * b) == \
            qc.pullback_hom(incl, a) * qc.pullback_hom(incl, b)


def test_collapse_map_gives_algebra_structure(S3, s3_point):
    X = regular_gset(S3)
    sctx = s3_point.sctx
    stX = qc.structure(S3, X, sctx)
    collapse = [0] * X.n_points
    pulled = qc.pullback_map(collapse, s3_point.q(), X)
    assert pulled == stX.q()


def test_pullback_map_rejects_non_equivariant(S3, s3_point):
    X = regular_gset(S3)
    bad = list(range(X.n_points))   # identity into a 1-point set is nonsense
    with pytest.raises(PreconditionError):
        qc.pullback_map(bad, s3_point.unit(), X)


def test_element_rejects_a_component_from_another_ring(S3, s3_point):
    def with_component(v):
        comps = [list(row) for row in s3_point.zero().components]
        comps[1][0] = v
        return comps

    with pytest.raises(PreconditionError, match="does not live in its orbit's ring"):
        qc.QEllElt(s3_point, with_component(s3_point.classes[2].ctxs[0].unit()))
    other = ScalarContext.for_groups([S3])
    assert other is not s3_point.sctx
    ctx = s3_point.classes[1].ctxs[0]
    with pytest.raises(PreconditionError, match="does not live in its orbit's ring"):
        qc.QEllElt(s3_point, with_component(rr.ctx_for(other, ctx.group, ctx.g).unit()))
    # an equal context built outside the cache is the same ring
    twin = rr.LambdaCtx(s3_point.sctx, ctx.group, ctx.g)
    assert twin is not ctx
    assert qc.QEllElt(s3_point, with_component(twin.unit())) == \
        qc.QEllElt(s3_point, with_component(ctx.unit()))


# -- one pullback along maps of pairs ------------------------------------------
#
# pullback_hom, pullback_map and change_of_group end in one body.  The oracles
# below are the bodies it replaced: a GroupHom per orbit, the transport
# snippet inline, and change of group as pullback_hom along H <= G followed
# by pullback_map along x -> [e, x].

def _old_value_at(elt, ci, point):
    struct = elt.structure
    cb = struct.classes[ci]
    oi = cb.orbit_of_point[point]
    orb = cb.orbits[oi]
    v = elt.components[ci][oi]
    if point == orb.rep:
        return v
    t = orb.transport[point]
    S = groups.conjugate_subgroup(struct.group, orb.stabilizer, t)
    return rr.conjugate(v, t, rr.ctx_for(struct.sctx, S, cb.g))


def _old_value_at_element(elt, h, point):
    struct = elt.structure
    ci, w = struct.conjugacy.transport_to_rep(h)
    if w == struct.group.identity:
        return _old_value_at(elt, ci, point)
    v = _old_value_at(elt, ci, struct.gset.act(w.inverse(), point))
    S = groups.conjugate_subgroup(struct.group, v.ctx.group, w)
    return rr.conjugate(v, w, rr.ctx_for(struct.sctx, S, h))


def _old_pullback_hom(phi, elt):
    src = elt.structure
    target = qc.structure(phi.domain, src.gset.via_hom(phi), src.sctx)
    out = []
    for cb in target.classes:
        row = []
        for orb, tctx in zip(cb.orbits, cb.ctxs):
            v = _old_value_at_element(elt, phi(cb.g), orb.rep)
            psi = GroupHom(orb.stabilizer, v.ctx.group,
                           {s: phi(s) for s in orb.stabilizer.elements})
            row.append(rr.restrict_along(psi, v, tctx))
        out.append(row)
    return qc.QEllElt(target, out)


def _old_pullback_map(point_map, elt, X):
    target = qc.structure(X.group, X, elt.structure.sctx)
    out = []
    for ci, cb in enumerate(target.classes):
        row = []
        for orb, tctx in zip(cb.orbits, cb.ctxs):
            v = _old_value_at(elt, ci, point_map[orb.rep])
            incl = GroupHom.inclusion(orb.stabilizer, v.ctx.group)
            row.append(rr.restrict_along(incl, v, tctx))
        out.append(row)
    return qc.QEllElt(target, out)


def _old_change_of_group(G, H, X, elt):
    pulled = _old_pullback_hom(GroupHom.inclusion(H, G), elt)
    return _old_pullback_map(range(X.n_points), pulled, X)


@pytest.mark.parametrize("G", [symmetric(4), dihedral(6), direct_product(cyclic(2), cyclic(4))],
                         ids=["S4", "D6", "C2xC4"])
def test_pullbacks_match_the_per_orbit_bodies(G):
    sctx = ScalarContext.for_groups([G])
    rng = random.Random(7)
    on_G = [qc.random_element(qc.structure(G, Y, sctx), rng)
            for Y in (point_set(G), regular_gset(G))]
    subgroups = [G.subgroup_of(H.elements) for H in groups.all_subgroups(G)]
    for H in subgroups:
        incl = GroupHom.inclusion(H, G)
        for a in on_G:
            assert qc.pullback_hom(incl, a) == _old_pullback_hom(incl, a)
        for X in (point_set(H), regular_gset(H)):
            z = qc.random_element(qc.structure(G, induced_gset(G, H, X), sctx), rng)
            assert qc.change_of_group(G, H, X, z) == _old_change_of_group(G, H, X, z)
        # G/K -> G/H for K <= H: the coset of element gi goes to gi·H, and
        # point 0 of G/H is the coset of the identity
        GH = coset_gset(G, H)
        y = qc.random_element(qc.structure(G, GH, sctx), rng)
        for K in subgroups:
            if H.is_subgroup(K):
                GK = coset_gset(G, K)
                f = [GH.act(G.elements[gi], 0) for gi, _ in GK.labels]
                assert qc.pullback_map(f, y, GK) == _old_pullback_map(f, y, GK)


def test_pullback_map_reuses_the_identity_hom(monkeypatch):
    """Two pullbacks along G-maps share G's identity hom (and with it its
    restriction entries): it is built at most once."""
    G = dihedral(6)
    sctx = ScalarContext.for_groups([G])
    built = []
    identity_on = GroupHom.identity_on

    def counted(H):
        built.append(H)
        return identity_on(H)

    monkeypatch.setattr(GroupHom, "identity_on", staticmethod(counted))
    Y = point_set(G)
    X = regular_gset(G)
    rng = random.Random(11)
    for _ in range(2):
        y = qc.random_element(qc.structure(G, Y, sctx), rng)
        f = [0] * X.n_points
        assert qc.pullback_map(f, y, X) == _old_pullback_map(f, y, X)
    assert len(built) <= 1


def test_pullback_along_the_sign_map_matches_the_per_orbit_body():
    S3, C2 = symmetric(3), cyclic(2)
    sctx = ScalarContext.for_groups([S3, C2])
    sign = make_hom(S3, C2, [C2.generators[0] if sum(len(c) - 1 for c in g.cycles()) % 2
                             else C2.identity for g in S3.generators])
    rng = random.Random(5)
    for Y in (point_set(C2), regular_gset(C2)):
        for _ in range(3):
            a = qc.random_element(qc.structure(C2, Y, sctx), rng)
            assert qc.pullback_hom(sign, a) == _old_pullback_hom(sign, a)


# -- Künneth -------------------------------------------------------------------

def test_kunneth_units_and_q():
    G, H = cyclic(2), cyclic(3)
    P = direct_product(G, H)
    sctx = ScalarContext.for_groups([P])
    sG = qc.structure(G, point_set(G), sctx)
    sH = qc.structure(H, point_set(H), sctx)
    XY = product_gset(point_set(G), point_set(H), P)
    sP = qc.structure(P, XY, sctx)
    assert qc.kunneth(sG.unit(), sH.unit(), P, XY) == sP.unit()
    assert qc.kunneth(sG.q(), sH.unit(), P, XY) == sP.q()
    assert qc.kunneth(sG.unit(), sH.q(), P, XY) == sP.q()


def test_kunneth_halves_make_whole_q():
    """Angle-1/2 generators multiply to q times the angle-0 pair."""
    G = cyclic(2)
    P = direct_product(G, G)
    sctx = ScalarContext.for_groups([P])
    sG = qc.structure(G, point_set(G), sctx)
    XY = product_gset(point_set(G), point_set(G), P)
    x = sG.zero()
    comp = [list(r) for r in x.components]
    comp[1][0] = sG.classes[1].ctxs[0].basis_elt(1)
    x = qc.QEllElt(sG, comp)
    img = qc.kunneth(x, x, P, XY)
    # the (g, g) component must be q * basis elt of angle 0
    sP = img.structure
    for cb, row in zip(sP.classes, img.components):
        v = row[0]
        if v.is_zero():
            continue
        hits = [(k, f) for k, f in enumerate(v.coeffs) if f]
        assert len(hits) == 1
        k, f = hits[0]
        assert f == q_power(1)
        assert cb.ctxs[0].angles[k] == 0
        # cross-check via central angles of the product group element
        assert central_angle(cb.ctxs[0].table.rows[k], cb.g, sctx) == 0


def test_kunneth_basis_bijection_z2_z3(assert_pass):
    assert_pass(verify.kunneth_on_points(((cyclic(2), cyclic(3)),)))


@pytest.fixture(scope="module")
def s3_c2_points():
    """Units of QEll_{S3}(pt) and QEll_{C2}(pt) over S3xC2's scalars."""
    S3, C2 = symmetric(3), cyclic(2)
    sctx = ScalarContext.for_groups([direct_product(S3, C2)])
    return (qc.structure(S3, point_set(S3), sctx).unit(),
            qc.structure(C2, point_set(C2), sctx).unit())


def test_kunneth_rejects_a_set_that_is_not_the_product(s3_c2_points):
    a, b = s3_c2_points
    S3, C2 = a.structure.group, b.structure.group
    P = direct_product(S3, C2)
    XY = product_gset(regular_gset(S3), point_set(C2), P)
    with pytest.raises(PreconditionError, match="^XY is not the product of the factors' G-sets"):
        qc.kunneth(a, b, P, XY)


def test_kunneth_rejects_swapped_factors(s3_c2_points):
    a, b = s3_c2_points
    S3, C2 = a.structure.group, b.structure.group
    Q = direct_product(C2, S3)
    XY = product_gset(point_set(C2), point_set(S3), Q)
    with pytest.raises(PreconditionError, match="^P's factors are not the factors' groups S3 and C2$"):
        qc.kunneth(a, b, Q, XY)


# -- change of group -----------------------------------------------------------

def test_cog_identity_subgroup(S3, s3_point):
    X = point_set(S3)
    a = qc.random_element(s3_point, random.Random(3))
    z = qc.change_of_group_inverse(S3, S3, X, a)
    assert qc.change_of_group(S3, S3, X, z) == a


def test_cog_rank_match(S3, c2_in_s3):
    sctx = ScalarContext.for_groups([S3])
    Z = induced_gset(S3, c2_in_s3, point_set(c2_in_s3))
    stZ = qc.structure(S3, Z, sctx)
    stH = qc.structure(c2_in_s3, point_set(c2_in_s3), sctx)
    assert [sum(cb.ranks) for cb in stZ.classes] == [2, 2, 0]
    assert [sum(cb.ranks) for cb in stH.classes] == [2, 2]
    assert stZ.total_rank() == stH.total_rank()


def test_cog_regular_c3(S3, c3_in_s3):
    sctx = ScalarContext.for_groups([S3])
    X = regular_gset(c3_in_s3)
    Z = induced_gset(S3, c3_in_s3, X)
    stZ = qc.structure(S3, Z, sctx)
    stH = qc.structure(c3_in_s3, X, sctx)
    assert stZ.total_rank() == stH.total_rank() == 1


def test_cog_checks_that_e_x_is_point_x(S3, c3_in_s3, monkeypatch):
    X = regular_gset(c3_in_s3)
    z = qc.change_of_group_inverse(S3, c3_in_s3, X, qc.random_element(
        qc.structure(c3_in_s3, X, ScalarContext.for_groups([S3])), random.Random(2)))
    Z = induced_gset(S3, c3_in_s3, X)
    assert Z.labels[:X.n_points] == [(0, x) for x in X.points()]
    unsorted = FiniteGSet(S3, Z.n_points, {g: Z._table[g] for g in S3.elements},
                          labels=Z.labels[::-1])
    monkeypatch.setattr(qc, "induced_gset", lambda G, H, X: unsorted)
    with pytest.raises(InternalCheckError, match="must sort the"):
        qc.change_of_group(S3, c3_in_s3, X, z)


def test_cog_checks_its_inclusion_once_and_stores_no_failure(S3, c3_in_s3):
    """The inclusion H <= G is kept on G after its check; a subgroup of
    another group is refused whether or not a good inclusion is warm."""
    G = symmetric(4)
    sctx = ScalarContext.for_groups([G])
    H = G.subgroup([groups.Permutation([1, 0, 2, 3])])
    X = point_set(H)
    z = qc.change_of_group_inverse(G, H, X, qc.structure(H, X, sctx).unit())
    assert qc.change_of_group(G, H, X, z) == qc.structure(H, X, sctx).unit()
    incl = G._induced[(H.key(),)]
    assert qc.change_of_group(G, H, X, z) == qc.structure(H, X, sctx).unit()
    assert G._induced[(H.key(),)] is incl
    stored = dict(G._induced)
    for K in (S3, c3_in_s3):            # degree 3: no subgroup of S4
        with pytest.raises(PreconditionError, match="is not a subgroup of"):
            qc.change_of_group(G, K, point_set(K), z)
    assert G._induced == stored


def test_cog_round_trips(assert_pass):
    assert_pass(verify.change_of_group_round_trips(10, 5))


# -- transfer -------------------------------------------------------------------

def test_transfer_worked_table_c3(assert_pass):
    """The unit transfer from the 3-cycle subgroup of S3, by algorithms A and B.

    Per class: at e the induced character 1 + sign; nothing at transpositions;
    at 3-cycles both cosets are fixed, giving 2 * unit.
    """
    assert_pass(verify.transfer_tables()[:1])


def test_transfer_worked_table_c2(assert_pass):
    assert_pass(verify.transfer_tables()[1:])


def test_transfer_identity_subgroup(S3, s3_point):
    a = qc.random_element(s3_point, random.Random(6))
    assert qc.transfer(S3, a, point_set(S3), algorithm="A") == a
    assert qc.transfer(S3, a, algorithm="B") == a


def test_transfer_algorithms_agree(assert_pass):
    assert_pass(verify.transfer_cross_checks(5, 7))


@pytest.mark.parametrize("algorithm", ["b", "a", "C", ""])
def test_transfer_rejects_an_unknown_algorithm(S3, s3_point, algorithm):
    with pytest.raises(PreconditionError, match="^unknown transfer algorithm"):
        qc.transfer(S3, s3_point.unit(), point_set(S3), algorithm=algorithm)


def test_transfer_b_rejects_bigger_sets(S3, c2_in_s3):
    sctx = ScalarContext.for_groups([S3])
    stH = qc.structure(c2_in_s3, regular_gset(c2_in_s3), sctx)
    with pytest.raises(PreconditionError):
        qc.transfer(S3, stH.unit(), algorithm="B")


# -- root transports -------------------------------------------------------------

def test_mu_identity_and_trivial_group(s3_point):
    a = qc.random_element(s3_point, random.Random(8))
    assert qc.mu(a, 1) == a
    G1 = cyclic(1)
    sctx = ScalarContext.for_groups([G1])
    st1 = qc.structure(G1, point_set(G1), sctx)
    f = q_power(2) - 3 * q_power(-1)
    elt = qc.QEllElt(st1, [[st1.classes[0].ctxs[0].from_coeffs([f])]])
    out = qc.mu(elt, 4)
    assert out.components[0][0].coeffs[0] == f.rescale(Fraction(1, 4))


def test_mu_z2_worked_example():
    G = cyclic(2)
    sctx = ScalarContext.for_groups([G])
    st = qc.structure(G, point_set(G), sctx)
    sgn_at_e = qc.QEllElt(st, [[st.classes[0].ctxs[0].basis_elt(1)],
                               [st.classes[1].ctxs[0].zero()]])
    out = qc.mu(sgn_at_e, 2)
    x1 = st.classes[1].ctxs[0].basis_elt(1, q_power(Fraction(-1, 2)))
    assert out.components[1][0] == x1
    assert qc.mu(sgn_at_e * sgn_at_e, 2) == out * out


def test_mu_ring_hom_and_exterior_commute(S3, assert_pass):
    assert_pass(verify.mu_properties((S3,), 6, 9))


def test_mu_exponent_denominators(s3_point):
    """Exponents after one mu stay within (1/(n * exponent))-integral support."""
    rng = random.Random(10)
    for n in (2, 3):
        a = qc.random_element(s3_point, rng)
        out = qc.mu(a, n)
        bound = n * s3_point.group.exponent()
        for comp in out.components:
            for v in comp:
                for f in v.coeffs:
                    assert f.in_fractional_ring(bound)


# -- verification payloads --------------------------------------------------------

def test_free_quotient_examples(S3):
    for G in (cyclic(2), S3):
        sctx = ScalarContext.for_groups([G])
        st = qc.structure(G, regular_gset(G), sctx)
        data = qc.free_quotient(st.unit())
        assert len(data) == 1
        assert data[0][1] == q_power(0)


def test_free_quotient_rejects_nonfree(S3, s3_point):
    with pytest.raises(PreconditionError, match="action not free"):
        qc.free_quotient(s3_point.unit())


def test_trivial_split_round_trip():
    G, H = cyclic(2), cyclic(3)
    P = direct_product(G, H)
    sctx = ScalarContext.for_groups([P])
    XY = product_gset(regular_gset(G), point_set(H), P)
    stP = qc.structure(P, XY, sctx)
    rng = random.Random(11)
    for _ in range(4):
        elt = qc.random_element(stP, rng)
        pieces = qc.trivial_split(elt)
        total = stP.zero()
        for a, b in pieces:
            total = total + qc.kunneth(a, b, P, XY)
        assert total == elt


def test_trivial_split_rejects_acting_h():
    G, H = cyclic(3), cyclic(2)
    P = direct_product(G, H)
    sctx = ScalarContext.for_groups([P])
    XY = product_gset(point_set(G), regular_gset(H), P)
    stP = qc.structure(P, XY, sctx)
    with pytest.raises(PreconditionError, match="H-action not trivial"):
        qc.trivial_split(stP.unit())


def test_tate_reports(assert_pass):
    assert_pass(verify.cyclic_presentations((1, 2, 5, 8)))


def test_tate_n6_m4_directly():
    G = cyclic(6)
    sctx = ScalarContext.for_groups([G])
    st = qc.structure(G, point_set(G), sctx)
    s = G.generators[0]
    conj = st.conjugacy
    ci = conj.class_index(s ** 4)
    ctx = st.classes[ci].ctxs[0]
    j1 = next(i for i in range(6)
              if ctx.table.rows[i](s) == sctx.root_of_unity(6))
    x4 = ctx.basis_elt(j1)
    assert ctx.angles[j1] == Fraction(4, 6)
    assert x4 ** 6 == ctx.q(4)
