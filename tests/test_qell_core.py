"""QEll structures and the structural maps between them."""

import random
from fractions import Fraction

import pytest

from qell import groups, jsonio
from qell import qell_core as qc
from qell import rotrep as rr
from qell import verify
from qell.charmod import ScalarContext, central_angle
from qell.errors import InternalCheckError, PreconditionError
from qell.groupspec import parse_group_spec
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
from qell.qlaurent import ONE, QLaurent, ZERO, q_power


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


def test_one_structure_per_presentation_of_a_group():
    """S3 read from two documents with different generators: the group is
    the same set of elements, but each document's element writes back its
    own group, so each presentation has its own structure."""
    docs = []
    for spec in ("perm:3:(0,1);(0,1,2)", "perm:3:(1,2);(0,1,2)"):
        G = parse_group_spec(spec)
        st = qc.structure(G, point_set(G), ScalarContext.for_groups([G]))
        docs.append(jsonio.element_payload(qc.random_element(st, random.Random(2))))
    assert docs[0]["group"] != docs[1]["group"]
    first = jsonio.group_from_payload(docs[0]["group"])
    sctx = ScalarContext.for_groups([first])
    for doc in docs:
        elt = jsonio.element_from_payload(doc, jsonio.group_from_payload(doc["group"]), sctx)
        assert jsonio.element_payload(elt) == doc
    S3, other = (jsonio.group_from_payload(doc["group"]) for doc in docs)
    assert S3 == other
    assert qc.structure(S3, point_set(S3), sctx) == qc.structure(other, point_set(other), sctx)
    assert qc.structure(S3, point_set(S3), sctx) is not \
        qc.structure(other, point_set(other), sctx)


def _map_under(name, presented, sctx):
    """Apply map ``name`` once, with ``presented`` the group whose structure
    it returns; the other groups are fixed, so only that group's
    presentation changes between calls."""
    S3, C3 = symmetric(3), parse_group_spec("perm:3:(0,1,2)")
    rng = random.Random(4)
    if name in ("transfer_A", "transfer_B"):
        elt = qc.random_element(qc.structure(C3, point_set(C3), sctx), rng)
        return qc.transfer(presented, elt, point_set(presented), algorithm=name[-1])
    if name == "change_of_group":
        Z = induced_gset(S3, presented, point_set(presented))
        elt = qc.random_element(qc.structure(S3, Z, sctx), rng)
        return qc.change_of_group(S3, presented, point_set(presented), elt)
    if name == "change_of_group_inverse":
        elt = qc.random_element(qc.structure(C3, point_set(C3), sctx), rng)
        return qc.change_of_group_inverse(presented, C3, point_set(C3), elt)
    if name == "pullback_map":
        elt = qc.random_element(qc.structure(S3, point_set(S3), sctx), rng)
        return qc.pullback_map([0] * 6, elt, regular_gset(presented))
    a = qc.random_element(qc.structure(S3, point_set(S3), sctx), rng)
    b = qc.random_element(qc.structure(C3, point_set(C3), sctx), rng)
    return qc.kunneth(a, b, presented, product_gset(point_set(S3), point_set(C3), presented))


@pytest.mark.parametrize("name", ["transfer_A", "transfer_B", "change_of_group",
                                  "change_of_group_inverse", "pullback_map", "kunneth"])
def test_each_map_writes_back_the_presentation_it_was_called_with(name):
    """A map's plan is kept per presentation of the group whose structure it
    returns: a second call with the same elements under other generators or
    another spec returns an element whose document writes back that group."""
    S3, C3 = symmetric(3), parse_group_spec("perm:3:(0,1,2)")
    if name == "change_of_group":
        presentations = [C3, parse_group_spec("perm:3:(0,2,1)")]
    elif name == "kunneth":
        presentations = [direct_product(S3, C3, spec="(S3)x(perm:3:(0,1,2))"),
                   direct_product(S3, C3)]
    else:
        presentations = [S3, parse_group_spec("perm:3:(0,1,2);(1,2)")]
    assert presentations[0] == presentations[1]
    assert jsonio.group_payload(presentations[0]) != jsonio.group_payload(presentations[1])
    sctx = ScalarContext.for_groups([S3, presentations[0]])
    for presented in presentations:
        out = _map_under(name, presented, sctx)
        assert out.structure.group.generators == presented.generators
        assert jsonio.element_payload(out)["group"] == jsonio.group_payload(presented)


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
    with pytest.raises(PreconditionError, match="^component count does not match the structure$"):
        qc.QEllElt(s3_point, s3_point.zero().components[:-1])
    extra = with_component(ctx.unit())
    extra[1].append(ctx.unit())
    with pytest.raises(PreconditionError, match="^orbit count does not match the structure$"):
        qc.QEllElt(s3_point, extra)


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


def test_one_hom_pulls_back_equal_structures_over_two_contexts():
    """Structures over two scalar contexts are equal but are different rings:
    one hom applied to both answers each over its own context."""
    S4 = symmetric(4)
    A4 = next(K for K in groups.all_subgroups(S4) if K.order == 12)
    H = S4.subgroup_of(A4.elements)
    incl = GroupHom.inclusion(H, S4)
    rng = random.Random(5)
    elts = [qc.random_element(qc.structure(S4, regular_gset(S4), ScalarContext.for_groups([S4])),
                              rng) for _ in range(2)]
    assert elts[0].structure == elts[1].structure
    for elt in elts:
        out = qc.pullback_hom(incl, elt)
        assert out.structure.sctx is elt.structure.sctx
        _same_bytes(out, qc.pullback_hom(GroupHom.inclusion(H, S4), elt))
        _same_bytes(out, _old_pullback_hom(GroupHom.inclusion(H, S4), elt))
    (a_ctx,), (b_ctx,) = (elt.structure.classes[0].ctxs for elt in elts)
    assert a_ctx.sctx is not b_ctx.sctx


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


@pytest.mark.parametrize("h, point", [((1, 0, 2), 0), ((1, 0, 2), 99), ((1, 0, 2), -1),
                                      ((0, 1, 2), 99), ((0, 1, 2), -1), ((0, 1, 2), 6)])
def test_value_at_element_rejects_a_point_off_the_fixed_set(S3, h, point):
    """(0 1) fixes no point of S3's regular set, and 99, -1 and 6 are no
    points of it: each is one line, raised before a route is stored."""
    st = qc.structure(S3, regular_gset(S3), ScalarContext.for_groups([S3]))
    e = qc.random_element(st, random.Random(4))
    h = groups.Permutation(h)
    good = qc.value_at_element(e, S3.identity, 5)
    plans = dict(st._plans)
    for _ in range(2):
        with pytest.raises(PreconditionError) as err:
            qc.value_at_element(e, h, point)
        assert str(err.value) == f"{point!r} is not a point of {st.gset.name} fixed by {h!r}"
        assert st._plans == plans
    assert qc.value_at_element(e, S3.identity, 5) == good


# -- one read path: change of group inverse and transfer ---------------------------
#
# change_of_group_inverse and transfer A and B read each component through
# qc._read, with a route's conjugation folded into the map's columns.  The
# oracles are the two-step bodies they replaced: the conjugated value
# (value_at_element), then the second map on it.

def _old_change_of_group_inverse(G, H, X, elt):
    Z = induced_gset(G, H, X)
    target = qc.structure(G, Z, elt.structure.sctx)
    out = []
    for cb in target.classes:
        row = []
        for orb, tctx in zip(cb.orbits, cb.ctxs):
            gi, x = Z.labels[orb.rep]
            u = G.elements[gi]
            v = qc.value_at_element(elt, u.inverse() * cb.g * u, x)
            row.append(v if u == G.identity else rr.conjugate(v, u, tctx))
        out.append(row)
    return qc.QEllElt(target, out)


def _old_transfer_A(G, elt, X):
    H = elt.structure.group
    XH = X.restrict_group(H)
    zelt = _old_change_of_group_inverse(G, H, XH, elt)
    Z = induced_gset(G, H, XH)
    cover = [X.act(G.elements[gi], x) for gi, x in Z.labels]
    target = qc.structure(G, X, elt.structure.sctx)
    out = []
    for cb, zcb in zip(target.classes, zelt.structure.classes):
        row = []
        for orb, tctx in zip(cb.orbits, cb.ctxs):
            acc, done = tctx.zero(), set()
            for z in [z for z in zcb.fixed if cover[z] == orb.rep]:
                if z not in done:
                    done.update({Z.act(s, z) for s in orb.stabilizer.elements})
                    acc = acc + rr.induce_to(qc.value_at_element(zelt, zcb.g, z), tctx)
            row.append(acc)
        out.append(row)
    return qc.QEllElt(target, out)


def _old_transfer_B(G, elt):
    H = elt.structure.group
    target = qc.structure(G, point_set(G), elt.structure.sctx)
    acc = [cb.ctxs[0].zero() for cb in target.classes]
    for hi, h0 in enumerate(H.conjugacy().class_reps):
        ci, w = G.conjugacy().transport_to_rep(h0)
        v, wi = elt.components[hi][0], w.inverse()
        conj = rr.ctx_for(v.ctx.sctx, groups.conjugate_subgroup(G, v.ctx.group, wi),
                          wi * v.ctx.g * w)
        acc[ci] = acc[ci] + rr.induce_to(rr.conjugate(v, wi, conj), target.classes[ci].ctxs[0])
    return qc.QEllElt(target, [[a] for a in acc])


def _same_bytes(a, b):
    assert a == b
    for ca, cb in zip(a.components, b.components):
        for v, w in zip(ca, cb):
            assert v.ctx is w.ctx
            assert [(f.den, f.num) for f in v.coeffs] == [(f.den, f.num) for f in w.coeffs]


@pytest.mark.parametrize("G, nonabelian", [(symmetric(4), True), (dihedral(6), True),
                                           (direct_product(cyclic(2), cyclic(4)), False)],
                         ids=["S4", "D6", "C2xC4"])
def test_reads_match_the_two_step_bodies(G, nonabelian, monkeypatch):
    sctx = ScalarContext.for_groups([G])
    rng = random.Random(29)
    moved = {"transfer_A": [], "transfer_B": [], "cog_inverse": []}
    along, reassembly, kind = qc._along, qc._reassembly, []
    monkeypatch.setattr(qc, "_along", lambda src, w, *args: moved[kind[-1]].append(
        w is not None) or along(src, w, *args))
    monkeypatch.setattr(qc, "_reassembly", lambda ctx, u, tctx: moved["cog_inverse"].append(
        u != G.identity) or reassembly(ctx, u, tctx))
    for H in [G.subgroup_of(H.elements) for H in groups.all_subgroups(G)]:
        K = H.subgroup_of(H.subgroup(H.generators[:1]).elements)
        for Y in (point_set(G), regular_gset(G), coset_gset(G, K)):
            st = qc.structure(H, Y.restrict_group(H), sctx)
            for a in (qc.random_element(st, rng), _mixed_element(st, rng)):
                kind.append("transfer_A")
                _same_bytes(qc.transfer(G, a, Y, algorithm="A"), _old_transfer_A(G, a, Y))
                if Y.n_points == 1:
                    kind.append("transfer_B")
                    _same_bytes(qc.transfer(G, a, algorithm="B"), _old_transfer_B(G, a))
        for X in (point_set(H), regular_gset(H), coset_gset(H, K)):
            st = qc.structure(H, X, sctx)
            for a in (qc.random_element(st, rng), _mixed_element(st, rng)):
                kind.append("cog_inverse")
                _same_bytes(qc.change_of_group_inverse(G, H, X, a),
                            _old_change_of_group_inverse(G, H, X, a))
    # some route conjugates (w ≠ e), so a conjugation is folded into the
    # induction columns.  Transfer B conjugates only where a class of H is not
    # made of G's class reps, and change of group inverse, which reads its
    # values at class and orbit reps, along u ≠ e only where the least label
    # of an orbit is not [e, x]: an abelian G has neither.
    assert any(moved["transfer_A"])
    assert any(moved["transfer_B"]) == any(moved["cog_inverse"]) == nonabelian


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


def test_warm_kunneth_builds_no_gset_and_still_checks_its_arguments(monkeypatch):
    """A warm Künneth reads its plan, built with the product set checked
    once: no G-set and no fusion.  What the plan's key does not hold (P's
    factors, the second factor's scalar context) is checked on every call."""
    S3, C2 = symmetric(3), cyclic(2)
    P = direct_product(S3, C2)
    sctx = ScalarContext.for_groups([P])
    rng = random.Random(8)
    a = qc.random_element(qc.structure(S3, regular_gset(S3), sctx), rng)
    b = qc.random_element(qc.structure(C2, point_set(C2), sctx), rng)
    XY = product_gset(regular_gset(S3), point_set(C2), P)
    cold = qc.kunneth(a, b, P, XY)
    built = []
    init = FiniteGSet.__init__
    monkeypatch.setattr(FiniteGSet, "__init__", lambda self, *args, **kwargs:
                        built.append(args) or init(self, *args, **kwargs))
    monkeypatch.setattr(rr, "factor_split", lambda *args: pytest.fail("a split was formed"))
    _same_bytes(qc.kunneth(a, b, P, XY), cold)
    assert not built
    flat = groups.make_group(P.degree, P.generators)     # P's elements, no factors
    assert flat == P and flat.factors is None
    with pytest.raises(PreconditionError, match="^P must be a direct product group$"):
        qc.kunneth(a, b, flat, XY)
    other = ScalarContext.for_groups([P])
    b2 = qc.random_element(qc.structure(C2, point_set(C2), other), rng)
    assert b2.structure == b.structure and b2.structure is not b.structure
    with pytest.raises(PreconditionError, match="^factors built over different scalar contexts$"):
        qc.kunneth(a, b2, P, XY)
    _same_bytes(qc.kunneth(a, b, P, XY), cold)


# Künneth and the trivial split against the bodies they had when the index
# table was built in qell_core: each class rep's two parts sliced off its
# image tuple and looked up in the factors' classes, the external product
# character's row looked up in the product's table, and the coefficients
# multiplied and shifted as QLaurents, pair by pair.

def _part(P, side):
    """The map from P = A x B onto its factor ``side`` (0 or 1), on image tuples."""
    d = P.factors[0].degree
    return (lambda x: x[:d]) if side == 0 else (lambda x: tuple(i - d for i in x[d:]))


def _old_kunneth_table(ctxA, ctxB, ctxP, P):
    parts = list(zip(groups.class_fusion(ctxP.group, ctxA.group, _part(P, 0)),
                     groups.class_fusion(ctxP.group, ctxB.group, _part(P, 1))))
    table, p = {}, ctxP.sctx.p
    for i in range(ctxA.rank):
        va = ctxA.table.rows[i].values
        for j in range(ctxB.rank):
            vb = ctxB.table.rows[j].values
            k = ctxP.table.row_of[tuple(va[a] * vb[b] % p for a, b in parts)]
            c = ctxA.angles[i] + ctxB.angles[j]
            assert ctxP.angles[k] == c - int(c)
            table[(i, j)] = (k, int(c))
    return table


def _factor_classes(P, sa, sb):
    """Per class of P: the classes of its two factors."""
    return zip(groups.class_fusion(P, sa.group, _part(P, 0)),
               groups.class_fusion(P, sb.group, _part(P, 1)))


def _old_kunneth(a, b, P, XY):
    sa, sb = a.structure, b.structure
    target = qc.structure(P, XY, sa.sctx)
    out = []
    for cb, (gi, hi) in zip(target.classes, _factor_classes(P, sa, sb)):
        row = []
        for orb, tctx in zip(cb.orbits, cb.ctxs):
            x, y = divmod(orb.rep, sb.gset.n_points)
            oa, ob = sa.classes[gi].orbit_of_point[x], sb.classes[hi].orbit_of_point[y]
            va, vb = a.components[gi][oa], b.components[hi][ob]
            index = _old_kunneth_table(va.ctx, vb.ctx, tctx, P)
            coeffs = [ZERO] * tctx.rank
            for i, f in enumerate(va.coeffs):
                for j, g in enumerate(vb.coeffs):
                    if f and g:
                        k, shift = index[(i, j)]
                        coeffs[k] = coeffs[k] + (f * g).shift(shift)
            row.append(tctx.from_coeffs(coeffs))
        out.append(row)
    return qc.QEllElt(target, out)


def _old_trivial_split(elt):
    struct = elt.structure
    P = struct.group
    G, H = P.factors
    X = struct.gset
    XG = X.via_hom(make_hom(G, P, [groups.product_pair(P, a, H.identity)
                                   for a in G.generators]))
    sG = qc.structure(G, XG, struct.sctx)
    sH = qc.structure(H, point_set(H), struct.sctx)
    pieces = {}
    for ci, (cb, (gi, hi)) in enumerate(zip(struct.classes, _factor_classes(P, sG, sH))):
        for oi, (orb, v) in enumerate(zip(cb.orbits, elt.components[ci])):
            oa = sG.classes[gi].orbit_of_point[orb.rep]
            ctxA = sG.classes[gi].ctxs[oa]
            index = _old_kunneth_table(ctxA, sH.classes[hi].ctxs[0], cb.ctxs[oi], P)
            back = {k: (i, j, shift) for (i, j), (k, shift) in index.items()}
            for k, f in enumerate(v.coeffs):
                if f:
                    i, j, shift = back[k]
                    comp = pieces.setdefault(
                        (hi, j), [list(row) for row in sG.zero().components])
                    comp[gi][oa] = comp[gi][oa] + ctxA.basis_elt(i, f.shift(-shift))
    out = []
    for hi, j in sorted(pieces):
        b = [list(row) for row in sH.zero().components]
        b[hi][0] = sH.classes[hi].ctxs[0].basis_elt(j)
        out.append((qc.QEllElt(sG, pieces[(hi, j)]), qc.QEllElt(sH, b)))
    return out


@pytest.mark.parametrize("G, H", [(dihedral(4), symmetric(3)),
                                  (cyclic(3), direct_product(cyclic(2), cyclic(4)))],
                         ids=["D4xS3", "C3xC2xC4"])
def test_kunneth_and_trivial_split_match_the_old_bodies(G, H):
    P = direct_product(G, H)
    sctx = ScalarContext.for_groups([P])
    rng = random.Random(30)
    K = H.subgroup_of(H.subgroup(H.generators[:1]).elements)
    assert K.order < H.order
    for X, Y in ((point_set(G), point_set(H)), (regular_gset(G), point_set(H)),
                 (point_set(G), coset_gset(H, K))):
        sa, sb = qc.structure(G, X, sctx), qc.structure(H, Y, sctx)
        XY = product_gset(X, Y, P)
        for a, b in ((qc.random_element(sa, rng), qc.random_element(sb, rng)),
                     (_mixed_element(sa, rng), _mixed_element(sb, rng)),
                     (qc.random_element(sa, rng), _mixed_element(sb, rng))):
            _same_bytes(qc.kunneth(a, b, P, XY), _old_kunneth(a, b, P, XY))
        if Y.n_points == 1:
            stP = qc.structure(P, XY, sctx)
            for elt in (qc.random_element(stP, rng), _mixed_element(stP, rng)):
                new, old = qc.trivial_split(elt), _old_trivial_split(elt)
                assert len(new) == len(old)
                for (a, b), (a0, b0) in zip(new, old):
                    _same_bytes(a, a0)
                    _same_bytes(b, b0)


def _kunneth_case(X, Y):
    """Seeded factors over S3 and C2, on the point unless X or Y says
    otherwise, over a fresh scalar context, with the target structure built."""
    S3, C2 = symmetric(3), cyclic(2)
    P = direct_product(S3, C2)
    sctx = ScalarContext.for_groups([P])
    X, Y = (X or point_set)(S3), (Y or point_set)(C2)
    rng = random.Random(4)
    a = qc.random_element(qc.structure(S3, X, sctx), rng)
    b = qc.random_element(qc.structure(C2, Y, sctx), rng)
    XY = product_gset(X, Y, P)
    return a, b, P, XY, qc.structure(P, XY, sctx)


def test_a_warm_kunneth_stores_no_new_entry():
    a, b, P, XY, target = _kunneth_case(regular_gset, None)
    first = qc.kunneth(a, b, P, XY)
    rings = [ctx for st in (a.structure, b.structure, target)
             for cb in st.classes for ctx in cb.ctxs]
    stored = [dict(ctx._maps) for ctx in rings]
    assert any(stored)
    assert qc.kunneth(a, b, P, XY) == first
    for ctx, before in zip(rings, stored):
        assert ctx._maps.keys() == before.keys()
        assert all(ctx._maps[key] is entry for key, entry in before.items())


# Each of Künneth's internal checks, on a corrupted copy of the data it reads.
# The class-rep, orbit-rep and angle checks guard the index law: a factor's
# class reps out of order, a factor's points sent to the wrong orbits, or
# the product context's angles off, each fail there.

def _corrupt_row_lookup(monkeypatch, a, b, target):
    for cb in target.classes:
        for ctx in cb.ctxs:
            monkeypatch.setattr(ctx.table, "row_of", {})


def _corrupt_product_angle(monkeypatch, a, b, target):
    ctx = target.classes[0].ctxs[0]
    monkeypatch.setattr(ctx, "angles", (Fraction(1, 2),) + ctx.angles[1:])


def _corrupt_class_rep(monkeypatch, a, b, target):
    monkeypatch.setattr(qc, "product_pair", lambda P, g, h: P.identity)


def _reverse_factor_class_reps(monkeypatch, a, b, target):
    conj = a.structure.conjugacy
    monkeypatch.setattr(conj, "class_reps", conj.class_reps[::-1])


def _corrupt_orbit_rep(monkeypatch, a, b, target):
    monkeypatch.setattr(a.structure.classes[0].orbits[0], "rep", 1)


def _reverse_factor_orbit_of_point(monkeypatch, a, b, target):
    for cb in a.structure.classes:
        last = len(cb.orbits) - 1
        monkeypatch.setattr(cb, "orbit_of_point",
                            {x: last - oi for x, oi in cb.orbit_of_point.items()})


def _s3_mod_c3(S3):
    """S3/C3: the 3-cycles fix both points, two orbits of their centralizer."""
    return coset_gset(S3, S3.subgroup([groups.Permutation([1, 2, 0])]))


_KUNNETH_FAULTS = [
    (_corrupt_row_lookup, None, "class function is not a row of the table"),
    (_corrupt_product_angle, None, "product basis element has wrong angle"),
    (_corrupt_class_rep, None, "product class rep is not a pair of reps"),
    (_reverse_factor_class_reps, None, "product class rep is not a pair of reps"),
    (_corrupt_orbit_rep, None, "product orbit rep is not a pair of reps"),
    (_reverse_factor_orbit_of_point, _s3_mod_c3, "product orbit rep is not a pair of reps"),
]
_KUNNETH_FAULT_IDS = ["row", "angle", "class-rep", "class-rep-order", "orbit-rep",
                      "orbit-of-point"]


@pytest.mark.parametrize("corrupt, space, message", _KUNNETH_FAULTS, ids=_KUNNETH_FAULT_IDS)
def test_kunneth_internal_checks(monkeypatch, corrupt, space, message):
    a, b, P, XY, target = _kunneth_case(space, None)
    corrupt(monkeypatch, a, b, target)
    with pytest.raises(InternalCheckError, match=message) as err:
        qc.kunneth(a, b, P, XY)
    assert str(err.value) == message


@pytest.mark.parametrize("corrupt, space, message", _KUNNETH_FAULTS, ids=_KUNNETH_FAULT_IDS)
def test_trivial_split_reads_the_checked_kunneth_plan(monkeypatch, corrupt, space, message):
    """An element over S3xC2 with C2 on the point splits through the Künneth
    plan of QEll_{S3}(X) and QEll_{C2}(pt), the structures ``a`` and ``b``
    live on, so the plan's checks guard the split too."""
    a, b, P, XY, target = _kunneth_case(space, None)
    elt = qc.random_element(target, random.Random(9))
    corrupt(monkeypatch, a, b, target)
    with pytest.raises(InternalCheckError, match=message) as err:
        qc.trivial_split(elt)
    assert str(err.value) == message


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
    """The inclusion H <= G, G's identity hom, is kept on G after its check;
    a subgroup of another group is refused whether or not a good inclusion
    is warm."""
    G = symmetric(4)
    sctx = ScalarContext.for_groups([G])
    H = G.subgroup([groups.Permutation([1, 0, 2, 3])])
    X = point_set(H)
    z = qc.change_of_group_inverse(G, H, X, qc.structure(H, X, sctx).unit())
    assert qc.change_of_group(G, H, X, z) == qc.structure(H, X, sctx).unit()
    incl = G._induced[(G.key(),)]
    assert incl.domain is G and (H.key(),) not in G._induced
    assert qc.change_of_group(G, H, X, z) == qc.structure(H, X, sctx).unit()
    assert G._induced[(G.key(),)] is incl
    stored = dict(G._induced)
    for K in (S3, c3_in_s3):            # degree 3: no subgroup of S4
        with pytest.raises(PreconditionError, match="is not a subgroup of"):
            qc.change_of_group(G, K, point_set(K), z)
    assert G._induced == stored


def test_reassembly_along_e_needs_the_same_ring(S3, c3_in_s3):
    """Change of group inverse reads a value at [e, x] as it is: its ring must
    be the target ring, and along u ≠ e it is conjugated there."""
    sctx = ScalarContext.for_groups([S3])
    e = S3.identity
    on_s3, on_c3 = rr.ctx_for(sctx, S3, e), rr.ctx_for(sctx, c3_in_s3, e)
    with pytest.raises(InternalCheckError, match="^stabilizer mismatch in reassembly$"):
        qc._reassembly(on_s3, e, on_c3)
    assert qc._reassembly(on_s3, e, on_s3) is rr.conjugate_columns(on_s3, e, on_s3)


def _descent_fault(monkeypatch, S3, C2):
    """Relabel the point of S3/C2 that the transposition class rep g fixes as
    [e, pt]: descent then asks for g itself in C2, and g = (1 2) is not."""
    X = point_set(C2)
    Z = induced_gset(S3, C2, X)
    g = S3.conjugacy().class_reps[1]
    z = next(z for z in Z.points() if z and Z.act(g, z) == z)
    monkeypatch.setattr(Z, "labels", [(0, 0) if y == z else label
                                      for y, label in enumerate(Z.labels)])
    sctx = ScalarContext.for_groups([S3])
    qc.change_of_group_inverse(S3, C2, X, qc.structure(C2, X, sctx).unit())


def _drift_fault(monkeypatch, S3, C2):
    """The change of group onto S3 x_C2 (X|C2) lands on the regular set instead."""
    X = point_set(S3)
    sctx = ScalarContext.for_groups([S3])
    elt = qc.structure(C2, X.restrict_group(C2), sctx).unit()
    monkeypatch.setattr(qc, "_inverse_plan", lambda src, G, H, X: (
        qc.structure(G, regular_gset(G), sctx), (), (1, 1)))
    qc.transfer(S3, elt, X)


def _cover_fault(monkeypatch, S3, C2):
    """With its change of group built, S3 x_C2 (S3|C2) has its labels rotated
    by one, so [g, x] ↦ g·x no longer commutes with the action."""
    X = regular_gset(S3)
    XH = X.restrict_group(C2)
    sctx = ScalarContext.for_groups([S3])
    elt = qc.structure(C2, XH, sctx).unit()
    qc.change_of_group_inverse(S3, C2, XH, elt)
    Z = induced_gset(S3, C2, XH)
    monkeypatch.setattr(Z, "labels", Z.labels[1:] + Z.labels[:1])
    qc.transfer(S3, elt, X)


def _free_rank_fault(monkeypatch, S3, C2):
    """The ring at the identity over the free orbit claims rank 2."""
    st = qc.structure(S3, regular_gset(S3), ScalarContext.for_groups([S3]))
    unit = st.unit()
    monkeypatch.setattr(st.classes[0].ctxs[0], "rank", 2)
    qc.free_quotient(unit)


def _twisted_sector_fault(monkeypatch, S3, C2):
    """The transposition class of a free action claims the fixed point 0."""
    st = qc.structure(S3, regular_gset(S3), ScalarContext.for_groups([S3]))
    monkeypatch.setattr(st.classes[1], "fixed", (0,))
    qc.free_quotient(st.unit())


@pytest.mark.parametrize("corrupt, message", [
    (_descent_fault, "induced fixed point fails the descent test"),
    (_drift_fault, "induced set drifted between constructions"),
    (_cover_fault, "covering map is not equivariant"),
    (_free_rank_fault, "free orbit has a nontrivial stabilizer"),
    (_twisted_sector_fault, "free action with a nonempty twisted sector"),
], ids=["descent", "drift", "cover", "free-rank", "twisted-sector"])
def test_change_of_group_transfer_and_free_quotient_checks(monkeypatch, S3, c2_in_s3,
                                                          corrupt, message):
    with pytest.raises(InternalCheckError, match=message) as err:
        corrupt(monkeypatch, S3, c2_in_s3)
    assert str(err.value) == message


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


def test_transfer_b_refuses_a_set_other_than_the_point(S3, c3_in_s3):
    """B lands on G's one-point set: a given X must be that set, as A refuses
    an element that does not live on X restricted to H."""
    sctx = ScalarContext.for_groups([S3])
    a = qc.random_element(qc.structure(c3_in_s3, point_set(c3_in_s3), sctx), random.Random(2))
    for X in (regular_gset(S3), point_set(c3_in_s3)):
        with pytest.raises(PreconditionError) as err:
            qc.transfer(S3, a, X, algorithm="B")
        assert str(err.value) == f"algorithm B lands on the one-point set, not on {X.name}"
    with pytest.raises(PreconditionError, match="does not live on X restricted to H"):
        qc.transfer(S3, a, regular_gset(S3), algorithm="A")
    b = qc.transfer(S3, a, algorithm="B")
    assert qc.transfer(S3, a, point_set(S3), algorithm="B") == b
    assert qc.transfer(S3, a, point_set(S3), algorithm="A") == b


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


# -- μ from one plan per (structure, n) -------------------------------------------
#
# qc.mu reads each component through the structure's plan for n.  The oracle is
# the per-component body it replaced: the value at (g^n, x), then μ^n on it.

def _old_mu(elt, n):
    return [[rr.mu_transport(qc.value_at_element(elt, cb.g ** n, orb.rep), n, tctx)
             for orb, tctx in zip(cb.orbits, cb.ctxs)]
            for cb in elt.structure.classes]


def _mixed_element(struct, rng):
    """Every coefficient a sum of terms in q, q^{1/2} and q^{1/3}."""
    return qc.QEllElt(struct, [
        [ctx.from_coeffs([QLaurent([(Fraction(rng.randint(-6, 6), d), rng.choice([-2, 1, 3]))
                                    for d in (1, 2, 3)]) for _ in range(ctx.rank)])
         for ctx in cb.ctxs]
        for cb in struct.classes])


@pytest.mark.parametrize("G, nonabelian", [(symmetric(4), True), (dihedral(4), True),
                                      (direct_product(cyclic(2), cyclic(4)), False)],
                         ids=["S4", "D4", "C2xC4"])
def test_mu_matches_the_per_component_body(G, nonabelian, monkeypatch):
    sctx = ScalarContext.for_groups([G])
    H = G.subgroup([G.generators[-1]])
    rng = random.Random(28)
    several, moved = [], []
    sum_of_terms = rr._sum_of_terms
    monkeypatch.setattr(rr, "_sum_of_terms",
                        lambda *args: several.append(1) or sum_of_terms(*args))
    for X in (point_set(G), regular_gset(G), coset_gset(G, H)):
        st = qc.structure(G, X, sctx)
        elts = [qc.random_element(st, rng), _mixed_element(st, rng)]
        for n in range(1, 5):
            moved += [qc._route(st, cb.g ** n, orb.rep)[2] is not None
                      for cb in st.classes for orb in cb.orbits]
            for e in elts:
                got = qc.mu(e, n)
                for comp, old, src in zip(got.components, _old_mu(e, n), e.components):
                    for v, w, x in zip(comp, old, src):
                        assert v.ctx is w.ctx
                        assert [(f.den, f.num) for f in v.coeffs] == \
                            [(f.den, f.num) for f in w.coeffs]
                        # μ¹'s columns are unit terms: each nonzero coefficient is
                        # handed back
                        assert n > 1 or all(f is g for f, g in zip(v.coeffs, x.coeffs) if g)
    # off the abelian group, some g^n is no class rep, or x no orbit rep, so
    # a conjugation is folded in, and some outputs take several contributions;
    # on it every μ column is one row
    assert any(moved) == bool(several) == nonabelian


def test_mu_folds_an_integral_conjugation_shift():
    """Rings whose angles are all off by +1 still pass the conjugation's
    angle check, with the term q; the plan carries it through μ² as q^{1/2},
    as the conjugation followed by μ² does.  (On S4(pt) the rings read through
    a conjugation at n = 2 are read through nothing else.)"""
    G = symmetric(4)
    st = qc.structure(G, point_set(G), ScalarContext.for_groups([G]))
    routes = [qc._route(st, cb.g ** 2, orb.rep) for cb in st.classes for orb in cb.orbits]
    moved = {st.classes[ci].ctxs[oi] for ci, oi, w in routes if w is not None}
    for ctx in moved:
        ctx.angles = tuple(a + 1 for a in ctx.angles)
    e = _mixed_element(st, random.Random(3))
    assert moved and qc.mu(e, 2) == qc.QEllElt(st, _old_mu(e, 2))


# A μ plan and its columns come from the checked entries of rr.conjugate and
# rr.mu_transport, filled through groups.memo: a failed check stores nothing,
# so a bad call raises as on a cold structure, warm or not.

def _s4_with_a_bad_angle():
    """S4(pt) on a fresh scalar context; row 0 of the ring at e claims angle
    1/2, so μ² of that row has a shift off the integers."""
    G = symmetric(4)
    st = qc.structure(G, point_set(G), ScalarContext.for_groups([G]))
    assert st.classes[0].g == G.identity
    ctx = st.classes[0].ctxs[0]
    ctx.angles = (Fraction(1, 2),) + ctx.angles[1:]
    return st


def _ones(st, row0: bool):
    """Every coefficient 1, but row 0 of the ring at e only if ``row0``."""
    comps = [[ctx.from_coeffs([ONE] * ctx.rank) for ctx in cb.ctxs] for cb in st.classes]
    if not row0:
        ctx = st.classes[0].ctxs[0]
        comps[0][0] = ctx.from_coeffs([ZERO] + [ONE] * (ctx.rank - 1))
    return qc.QEllElt(st, comps)


def _stored_mu(st):
    """The plans, and every ring's map entries with their column counts; the
    rings include the conjugated ones, kept under ("at", w) with their
    conjugation's entry."""
    rings = [ctx for cb in st.classes for ctx in cb.ctxs]
    rings += [entry[0] for ctx in rings for key, entry in ctx._maps.items() if key[0] == "at"]
    return (dict(st._plans),
            [{key: len(entry.columns) if isinstance(entry, rr.MapEntry) else entry
              for key, entry in ctx._maps.items()} for ctx in rings])


@pytest.mark.parametrize("n, row0, error, message", [
    (2, True, InternalCheckError, "non-integral rotation shift in root transport"),
    (0, True, PreconditionError, "mu degree must be >= 1"),
], ids=["bad-angle", "degree-0"])
def test_mu_stores_a_plan_only_after_its_checks_pass(n, row0, error, message):
    st = _s4_with_a_bad_angle()
    with pytest.raises(error) as cold:
        qc.mu(_ones(st, row0), n)
    assert str(cold.value) == message
    st = _s4_with_a_bad_angle()
    good = qc.mu(_ones(st, False), 2)
    stored = _stored_mu(st)
    assert stored[0]
    for _ in range(2):      # raising again shows that the first bad call stored nothing
        with pytest.raises(error) as warm:
            qc.mu(_ones(st, row0), n)
        assert str(warm.value) == message
        assert _stored_mu(st) == stored
    assert qc.mu(_ones(st, False), 2) == good


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


def _on_point(G, sctx):
    return qc.structure(G, point_set(G), sctx).unit()


@pytest.mark.parametrize("call, error, message", [
    (lambda S3, C3, sctx: qc.structure(S3, point_set(C3), sctx),
     PreconditionError, "X is not a G-set for the given group"),
    (lambda S3, C3, sctx: _on_point(S3, sctx) + qc.structure(S3, regular_gset(S3), sctx).unit(),
     PreconditionError, "elements live on different structures"),
    (lambda S3, C3, sctx: qc.pullback_hom(GroupHom.identity_on(C3), _on_point(S3, sctx)),
     PreconditionError, "hom codomain does not match the element's group"),
    (lambda S3, C3, sctx: qc.pullback_map([0], _on_point(S3, sctx), point_set(C3)),
     PreconditionError, "X is not a set for the element's group"),
    (lambda S3, C3, sctx: qc.pullback_map([0], _on_point(S3, sctx), regular_gset(S3)),
     PreconditionError, "point map does not cover X"),
    (lambda S3, C3, sctx: qc.change_of_group(S3, C3, point_set(C3), _on_point(S3, sctx)),
     PreconditionError, "element does not live on the induced G-set"),
    (lambda S3, C3, sctx: qc.change_of_group_inverse(S3, cyclic(2), point_set(cyclic(2)),
                                                     _on_point(cyclic(2), sctx)),
     PreconditionError, "C2 is not a subgroup of S3"),
    (lambda S3, C3, sctx: qc.change_of_group_inverse(S3, C3, point_set(C3), _on_point(S3, sctx)),
     PreconditionError, "element does not live on (H, X)"),
    (lambda S3, C3, sctx: qc.transfer(S3, _on_point(C3, sctx)),
     PreconditionError, "algorithm A needs the ambient G-set"),
    (lambda S3, C3, sctx: qc.transfer(S3, _on_point(cyclic(2), sctx), algorithm="B"),
     PreconditionError, "C2 is not a subgroup of S3"),
    (lambda S3, C3, sctx: qc.trivial_split(_on_point(S3, sctx)),
     PreconditionError, "element's group is not a direct product"),
    (lambda S3, C3, sctx: setattr(_on_point(S3, sctx), "structure", None),
     AttributeError, "QEllElt is immutable"),
], ids=["structure-group", "different-structures", "pullback-hom-codomain",
        "pullback-map-group", "pullback-map-cover", "cog-set", "cog-inverse-subgroup",
        "cog-inverse-element", "transfer-a-set", "transfer-b-subgroup", "split-product",
        "immutable"])
def test_qell_core_user_errors(S3, c3_in_s3, call, error, message):
    with pytest.raises(error) as err:
        call(S3, c3_in_s3, ScalarContext.for_groups([S3]))
    assert str(err.value) == message
