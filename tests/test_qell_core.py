"""QEll structures and the structural maps between them."""

import random
from fractions import Fraction

import pytest

from qell import qell_core as qc
from qell import verify
from qell.charmod import ScalarContext, central_angle
from qell.errors import PreconditionError
from qell.groups import (
    GroupHom,
    cyclic,
    dihedral,
    direct_product,
    symmetric,
)
from qell.gsets import (
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
