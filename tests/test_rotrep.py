"""The free Z[q^±]-rings over centralizer irreducibles with central angles."""

import operator
import random
from fractions import Fraction

import pytest

from qell import charmod
from qell import groups
from qell import gsets
from qell import qell_core as qc
from qell import rotrep as rr
from qell.charmod import ClassFunction, ScalarContext, decompose, restrict_cf
from qell.errors import InternalCheckError, PreconditionError
from qell.groups import (
    GroupHom,
    Permutation,
    cyclic,
    dihedral,
    direct_product,
    make_hom,
    symmetric,
)
from qell.gsets import point_set, product_gset, regular_gset
from qell.qlaurent import ONE, QLaurent, ZERO, monomial, q_power


def random_elt(ctx, rng, density=0.7):
    coeffs = []
    for _ in range(ctx.rank):
        if rng.random() < density:
            coeffs.append(QLaurent([(rng.randint(-2, 2), rng.randint(-3, 3))
                                    for _ in range(rng.randint(1, 2))]))
        else:
            coeffs.append(ZERO)
    return ctx.from_coeffs(coeffs)


# -- context construction ----------------------------------------------------

def test_ctx_s3_flip(S3, s3_ctx):
    conj = S3.conjugacy()
    ctx = rr.ctx_build(S3, conj.class_reps[1], s3_ctx)
    assert ctx.rank == 2
    assert sorted(ctx.angles) == [Fraction(0), Fraction(1, 2)]


def test_ctx_s3_identity(S3, s3_ctx):
    ctx = rr.ctx_build(S3, S3.identity, s3_ctx)
    assert ctx.rank == 3
    assert all(c == 0 for c in ctx.angles)


def test_ctx_cyclic_angles():
    N = 6
    G = cyclic(N)
    sctx = ScalarContext.for_groups([G])
    s = G.generators[0]
    for k in range(N):
        ctx = rr.ctx_build(G, s ** k, sctx)
        assert ctx.rank == N
        expected = sorted(Fraction(j * k % N, N) for j in range(N))
        assert sorted(ctx.angles) == expected


def test_ctx_rejects_noncentral(S3, s3_ctx):
    with pytest.raises(PreconditionError, match="not central"):
        rr.LambdaCtx(s3_ctx, S3, Permutation([1, 0, 2]))


# -- multiplication ----------------------------------------------------------

def test_mul_z2_generator_squares_to_q():
    G = cyclic(2)
    sctx = ScalarContext.for_groups([G])
    ctx = rr.ctx_build(G, G.generators[0], sctx)
    x = ctx.basis_elt(1)
    assert x * x == ctx.q()


def test_mul_s3_identity_sector(S3, s3_ctx):
    ctx = rr.ctx_build(S3, S3.identity, s3_ctx)
    X, Y = ctx.basis_elt(1), ctx.basis_elt(2)
    assert Y * Y == ctx.unit() + X + Y
    assert X * Y == Y


def test_mul_s3_three_cycle(S3, s3_ctx):
    conj = S3.conjugacy()
    ctx = rr.ctx_build(S3, conj.class_reps[2], s3_ctx)
    third = [i for i, c in enumerate(ctx.angles) if c == Fraction(1, 3)]
    x = ctx.basis_elt(third[0])
    assert x * x * x == ctx.q()


def test_ring_axioms_random(S3, s3_ctx):
    conj = S3.conjugacy()
    rng = random.Random(5)
    for ci in range(conj.n_classes):
        ctx = rr.ctx_build(S3, conj.class_reps[ci], s3_ctx)
        for _ in range(6):
            a, b, c = (random_elt(ctx, rng) for _ in range(3))
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a * ctx.unit() == a
        # q is central and invertible
        a = random_elt(ctx, rng)
        assert a * ctx.q() * ctx.q(-1) == a


# -- restriction -------------------------------------------------------------

def test_restrict_identity_hom(S3, s3_ctx):
    ctx = rr.ctx_build(S3, S3.identity, s3_ctx)
    ident = GroupHom.identity_on(ctx.group)
    a = random_elt(ctx, random.Random(1))
    assert rr.restrict_along(ident, a, ctx) == a


def test_restrict_c2_in_s3_is_basis_identity(S3, s3_ctx, c2_in_s3):
    conj = S3.conjugacy()
    tau = conj.class_reps[1]
    big = rr.ctx_build(S3, tau, s3_ctx)
    # both centralizers coincide with the 2-element subgroup generated by tau
    assert big.group.order == 2
    small = rr.ctx_for(s3_ctx, big.group, tau)
    ident = GroupHom.identity_on(big.group)
    for i in range(big.rank):
        assert rr.restrict_along(ident, big.basis_elt(i), small) == small.basis_elt(i)


def test_restrict_sign_hom(S3, s3_ctx):
    C2 = cyclic(2)
    sctx = ScalarContext.for_groups([S3, C2])
    images = []
    for g in S3.generators:
        odd = sum(len(c) - 1 for c in g.cycles()) % 2
        images.append(C2.generators[0] if odd else C2.identity)
    sign = make_hom(S3, C2, images)
    src = rr.ctx_build(C2, C2.identity, sctx)
    tgt = rr.ctx_build(S3, S3.identity, sctx)
    pulled = rr.restrict_along(sign, src.basis_elt(1), tgt)
    assert pulled == tgt.basis_elt(1)     # sign of C2 pulls back to the sign of S3


def test_restrict_is_ring_hom(S3, s3_ctx, c3_in_s3):
    tau = c3_in_s3.generators[0]
    big = rr.ctx_build(S3, tau, s3_ctx)
    small = rr.ctx_for(s3_ctx, c3_in_s3, tau)
    incl = GroupHom.inclusion(small.group, big.group)
    rng = random.Random(9)
    for _ in range(8):
        a, b = random_elt(big, rng), random_elt(big, rng)
        ra = rr.restrict_along(incl, a, small)
        rb = rr.restrict_along(incl, b, small)
        assert rr.restrict_along(incl, a * b, small) == ra * rb
    assert rr.restrict_along(incl, big.unit(), small) == small.unit()


def test_restrict_along_checks_its_map(S3, s3_ctx, c2_in_s3, c3_in_s3):
    e = S3.identity
    C2 = S3.subgroup_of(c2_in_s3.elements)
    C3 = S3.subgroup_of(c3_in_s3.elements)
    on_S3 = rr.ctx_for(s3_ctx, S3, e).unit()
    on_C2 = rr.ctx_for(s3_ctx, C2, e)
    # the domain misses target.group
    with pytest.raises(PreconditionError, match="does not match the contexts"):
        rr.restrict_along(GroupHom.identity_on(C3), on_S3, on_C2)
    # an image outside elt's group
    with pytest.raises(PreconditionError, match="does not match the contexts"):
        rr.restrict_along(GroupHom.identity_on(S3), rr.ctx_for(s3_ctx, C3, e).unit(), on_C2)
    # g not carried to g
    tau = C2.generators[0]
    with pytest.raises(PreconditionError, match="does not carry g to g"):
        rr.restrict_along(GroupHom.identity_on(S3), on_S3, rr.ctx_for(s3_ctx, C2, tau))


@pytest.mark.parametrize("G", [symmetric(4), dihedral(6)], ids=["S4", "D6"])
def test_restrict_along_a_hom_on_a_larger_domain(G):
    """φ on a proper subgroup S of its domain is the restriction φ|_S."""
    sctx = ScalarContext.for_groups([G])
    q = q_power(1)
    ident = GroupHom.identity_on(G)
    for w in (G.identity, *G.generators):
        wi = w.inverse()
        back = GroupHom(G, G, {t: wi * t * w for t in G.elements})
        for H in groups.all_subgroups(G):
            H = G.subgroup_of(H.elements)
            if H.order == G.order:
                continue
            T = groups.conjugate_subgroup(G, H, w)
            for g in _center(H):
                src = rr.ctx_build(G, g, sctx)
                target = rr.ctx_for(sctx, H, g)
                incl = GroupHom(H, src.group, {h: h for h in H.elements})
                moved = rr.ctx_for(sctx, T, w * g * wi)
                back_T = GroupHom(T, src.group, {t: back(t) for t in T.elements})
                for i in range(src.rank):
                    x = src.basis_elt(i, q)
                    assert rr.restrict_along(ident, x, target) == \
                        _lookup_column(incl, src, i, target, coeff=q)
                    assert rr.restrict_along(back, x, moved) == \
                        _lookup_column(back_T, src, i, moved, coeff=q)


# -- induction ---------------------------------------------------------------

def test_induce_identity(S3, s3_ctx):
    ctx = rr.ctx_build(S3, S3.identity, s3_ctx)
    a = random_elt(ctx, random.Random(2))
    assert rr.induce_to(a, ctx) == a


def test_induce_from_c3_unit(S3, s3_ctx, c3_in_s3):
    small = rr.ctx_for(s3_ctx, c3_in_s3, S3.identity)
    big = rr.ctx_build(S3, S3.identity, s3_ctx)
    ind = rr.induce_to(small.unit(), big)
    assert ind == big.basis_elt(0) + big.basis_elt(1)     # 1 + sign


def test_induce_at_three_cycle_is_identity(S3, s3_ctx, c3_in_s3):
    g = c3_in_s3.generators[0]
    big = rr.ctx_build(S3, g, s3_ctx)
    assert big.group == c3_in_s3      # the centralizer is the subgroup itself
    small = rr.ctx_for(s3_ctx, c3_in_s3, g)
    for i in range(small.rank):
        assert rr.induce_to(small.basis_elt(i), big) == big.basis_elt(i)


def test_induce_multiplies_degree(S3, s3_ctx, c2_in_s3):
    small = rr.ctx_for(s3_ctx, c2_in_s3, S3.identity)
    big = rr.ctx_build(S3, S3.identity, s3_ctx)
    rng = random.Random(3)
    index = big.group.order // small.group.order
    for _ in range(5):
        a = random_elt(small, rng)
        assert rr.induce_to(a, big).augmentation() == index * a.augmentation()


def test_frobenius_pairing(S3, s3_ctx, c2_in_s3):
    small = rr.ctx_for(s3_ctx, c2_in_s3, S3.identity)
    big = rr.ctx_build(S3, S3.identity, s3_ctx)
    incl = GroupHom.inclusion(c2_in_s3, big.group)
    rng = random.Random(4)
    for _ in range(8):
        a = random_elt(small, rng)
        b = random_elt(big, rng)
        lhs = rr.pairing(rr.induce_to(a, big), b)
        rhs = rr.pairing(a, rr.restrict_along(incl, b, small))
        assert lhs == rhs


# -- conjugation -------------------------------------------------------------

def test_conjugate_identity_and_centralizing(S3, s3_ctx):
    conj = S3.conjugacy()
    g = conj.class_reps[2]
    ctx = rr.ctx_build(S3, g, s3_ctx)
    rng = random.Random(6)
    a = random_elt(ctx, rng)
    assert rr.conjugate(a, S3.identity, ctx) == a
    for h in ctx.group.elements:       # centralizer elements fix everything
        assert rr.conjugate(a, h, ctx) == a


def test_conjugate_transports_three_cycle(S3, s3_ctx):
    conj = S3.conjugacy()
    g = conj.class_reps[2]
    h = Permutation([1, 0, 2])
    g2 = h * g * h.inverse()
    assert g2 == g * g                 # (12)(012)(12) = (021)
    ctx = rr.ctx_build(S3, g, s3_ctx)
    wi = h.inverse()
    tgt_group = S3.subgroup_of([h * s * wi for s in ctx.group.elements])
    tgt = rr.ctx_for(s3_ctx, tgt_group, g2)
    src_third = next(i for i, c in enumerate(ctx.angles) if c == Fraction(1, 3))
    out = rr.conjugate(ctx.basis_elt(src_third), h, tgt)
    # oracle: the transported character's values come from table lookup
    hit = [j for j, f in enumerate(out.coeffs) if f]
    assert len(hit) == 1 and out.coeffs[hit[0]] == ONE
    j = hit[0]
    assert tgt.angles[j] == Fraction(1, 3)
    chi_src = ctx.table.rows[src_third]
    chi_tgt = tgt.table.rows[j]
    for x in tgt_group.elements:
        assert chi_tgt(x) == chi_src(wi * x * h)


def test_conjugate_composition(S3, s3_ctx):
    conj = S3.conjugacy()
    g = conj.class_reps[1]
    ctx = rr.ctx_build(S3, g, s3_ctx)
    rng = random.Random(8)
    a = random_elt(ctx, rng)
    h1, h2 = Permutation([2, 1, 0]), Permutation([1, 2, 0])

    def conj_ctx(base, w):
        wi = w.inverse()
        Gc = S3.subgroup_of([w * s * wi for s in base.group.elements])
        return rr.ctx_for(s3_ctx, Gc, w * base.g * wi)

    c2 = conj_ctx(ctx, h2)
    c12 = conj_ctx(c2, h1)
    two_step = rr.conjugate(rr.conjugate(a, h2, c2), h1, c12)
    direct = rr.conjugate(a, h1 * h2, conj_ctx(ctx, h1 * h2))
    assert two_step == direct


# -- root transport ----------------------------------------------------------

def test_mu_transport_n1_identity(S3, s3_ctx):
    conj = S3.conjugacy()
    for ci in range(conj.n_classes):
        ctx = rr.ctx_build(S3, conj.class_reps[ci], s3_ctx)
        a = random_elt(ctx, random.Random(ci))
        assert rr.mu_transport(a, 1, ctx) == a


def test_mu_transport_trivial_group_rescales():
    G = cyclic(1)
    sctx = ScalarContext.for_groups([G])
    ctx = rr.ctx_build(G, G.identity, sctx)
    f = q_power(2) + q_power(-1) * 3
    a = ctx.from_coeffs([f])
    out = rr.mu_transport(a, 3, ctx)
    assert out.coeffs[0] == f.rescale(Fraction(1, 3))


def test_mu_transport_z2_example():
    G = cyclic(2)
    sctx = ScalarContext.for_groups([G])
    e_ctx = rr.ctx_build(G, G.identity, sctx)
    g_ctx = rr.ctx_build(G, G.generators[0], sctx)
    out = rr.mu_transport(e_ctx.basis_elt(1), 2, g_ctx)
    assert out == g_ctx.basis_elt(1, q_power(Fraction(-1, 2)))
    assert out * out == g_ctx.unit()   # transported sign squares to 1


def test_mu_transport_is_ring_hom(S3, s3_ctx):
    conj = S3.conjugacy()
    g = conj.class_reps[2]
    e_ctx = rr.ctx_build(S3, S3.identity, s3_ctx)
    # target at g over the stabilizer inside the centralizer of e
    g_ctx = rr.ctx_build(S3, g, s3_ctx)
    rng = random.Random(12)
    for n in (2, 3):
        gn = g ** n
        src = rr.ctx_build(S3, gn, s3_ctx)
        for _ in range(6):
            a, b = random_elt(src, rng), random_elt(src, rng)
            ma = rr.mu_transport(a, n, g_ctx)
            mb = rr.mu_transport(b, n, g_ctx)
            assert rr.mu_transport(a * b, n, g_ctx) == ma * mb
        assert rr.mu_transport(src.unit(), n, g_ctx) == g_ctx.unit()


# -- Adams and exterior operations -------------------------------------------

def test_mu_transport_commutes_with_exterior(S3, s3_ctx):
    conj = S3.conjugacy()
    g = conj.class_reps[1]
    g_ctx = rr.ctx_build(S3, g, s3_ctx)
    rng = random.Random(15)
    for n in (2, 3):
        src = rr.ctx_build(S3, g ** n, s3_ctx)
        for _ in range(4):
            a = random_elt(src, rng)
            for k in (0, 1, 2, 3):
                lhs = rr.mu_transport(rr.exterior_power(a, k), n, g_ctx)
                rhs = rr.exterior_power(rr.mu_transport(a, n, g_ctx), k)
                assert lhs == rhs


def test_adams_basics(S3, s3_ctx):
    ctx = rr.ctx_build(S3, S3.identity, s3_ctx)
    a = random_elt(ctx, random.Random(13))
    assert rr.adams(a, 1) == a
    assert rr.adams(rr.adams(a, 2), 3) == rr.adams(a, 6)


def test_adams_on_half_angle_generator():
    G = cyclic(2)
    sctx = ScalarContext.for_groups([G])
    ctx = rr.ctx_build(G, G.generators[0], sctx)
    x = ctx.basis_elt(1)
    assert rr.adams(x, 2) == ctx.q()       # matches x * x
    assert rr.adams(x, 2) == x * x


def test_adams_rescales_coefficients():
    G = cyclic(2)
    sctx = ScalarContext.for_groups([G])
    ctx = rr.ctx_build(G, G.identity, sctx)
    a = ctx.basis_elt(0, q_power(1) + ONE)
    assert rr.adams(a, 3) == ctx.basis_elt(0, q_power(3) + ONE)


def test_exterior_low_cases(S3, s3_ctx):
    ctx = rr.ctx_build(S3, S3.identity, s3_ctx)
    a = random_elt(ctx, random.Random(14))
    assert rr.exterior_power(a, 0) == ctx.unit()
    assert rr.exterior_power(a, 1) == a


def test_exterior_square_of_standard(S3, s3_ctx):
    ctx = rr.ctx_build(S3, S3.identity, s3_ctx)
    Y = ctx.basis_elt(2)
    lam2 = rr.exterior_power(Y, 2)
    assert lam2 == ctx.basis_elt(1)
    # oracle: the classical character identity (χ(g)^2 - χ(g^2)) / 2 per class
    p = s3_ctx.p
    conj = S3.conjugacy()
    chi = ctx.table.rows[2]
    inv2 = pow(2, -1, p)
    oracle = [(chi.values[ci] ** 2 - chi.values[conj.class_index(conj.class_reps[ci] ** 2)])
              * inv2 % p for ci in range(conj.n_classes)]
    lam2_cf = ClassFunction(S3, s3_ctx, oracle)
    assert lam2_cf == ctx.table.rows[1]


def test_exterior_top_of_permutation_character(S3, s3_ctx):
    ctx = rr.ctx_build(S3, S3.identity, s3_ctx)
    perm3 = ctx.basis_elt(0) + ctx.basis_elt(2)   # trivial + standard
    assert rr.exterior_power(perm3, 3) == ctx.basis_elt(1)  # top power is sign
    assert rr.exterior_power(perm3, 2) == ctx.basis_elt(1) + ctx.basis_elt(2)


def _old_exterior_power(elt, k):
    """The full Newton recurrence: every ψ^i through ``adams`` and every
    ψ^i·λ^{k-i} a product by ``_ref_mul``, λ⁰ = 1 included."""
    if k < 0:
        raise PreconditionError("exterior power index must be >= 0")
    ctx = elt.ctx
    lam = [ctx.unit()]
    psi = [None]
    for i in range(1, k + 1):
        psi.append(rr.adams(elt, i))
        acc = ctx.zero()
        sign = 1
        for j in range(1, i + 1):
            term = rr.LambdaElt(ctx, _ref_mul(psi[j], lam[i - j]))
            acc = acc + (term if sign > 0 else -term)
            sign = -sign
        lam.append(rr.LambdaElt(ctx, tuple(f.divide_int_exact(i) for f in acc.coeffs)))
    return lam[k]


def _ref_mul(a, b):
    """The product over every (i, j), zero coefficients included."""
    ctx = a.ctx
    out = [ZERO] * ctx.rank
    for i, f in enumerate(a.coeffs):
        for j, g in enumerate(b.coeffs):
            for mu, mult in ctx.product_columns(i, j):
                out[mu] = out[mu] + f * g * mult
    return out


ORACLE_CASES = ("S3@e", "S3@c3", "C2xC4@g", "D6@e", "D6@z", "mu2", "D6@z mixed")

# exponents with denominators 1, 2 and 3, so sums and products mix them
MIXED_EXPONENTS = sorted({Fraction(a, b) for a in range(-3, 4) for b in (1, 2, 3)})


def mixed_elt(ctx, rng):
    """A dense element whose coefficients each have 2 or 3 terms at exponents
    in MIXED_EXPONENTS."""
    return ctx.from_coeffs(
        QLaurent([(r, rng.choice((-3, -2, -1, 1, 2, 3)))
                  for r in rng.sample(MIXED_EXPONENTS, rng.randint(2, 3))])
        for _ in range(ctx.rank))


@pytest.fixture(scope="module")
def oracle_elements():
    """Seeded elements per case: S3 at e and at a 3-cycle, C2xC4 at a
    non-identity central element, D6 at e and at its central involution, and
    μ² outputs, whose coefficients carry q^{1/2} exponents.  "D6@z mixed"
    holds dense ``mixed_elt``s: every basis pair contributes, so each output
    coefficient of a product collects many terms over denominators 2, 3, 6."""
    S3, C2C4, D6 = symmetric(3), direct_product(cyclic(2), cyclic(4)), dihedral(6)
    rng = random.Random(21)

    def elements(sctx, G, g):
        ctx = rr.ctx_build(G, g, sctx)
        return [random_elt(ctx, rng, density) for density in (0.3, 0.7, 1.0)] + [ctx.zero()]

    def mu2(sctx, G, g):
        return [rr.mu_transport(a, 2, rr.ctx_build(G, g, sctx))
                for a in elements(sctx, G, g ** 2)]

    sctx = ScalarContext.for_groups([S3])
    c3 = Permutation([1, 2, 0])
    out = {"S3@e": elements(sctx, S3, S3.identity), "S3@c3": elements(sctx, S3, c3),
           "mu2": mu2(sctx, S3, c3)}
    sctx = ScalarContext.for_groups([C2C4])
    g = next(g for g in C2C4.elements if g.order() == 4)
    out["C2xC4@g"] = elements(sctx, C2C4, g)
    out["mu2"] += mu2(sctx, C2C4, g)
    sctx = ScalarContext.for_groups([D6])
    z = next(z for z in D6.elements if z != D6.identity
             and all(s * z == z * s for s in D6.generators))
    out["D6@e"], out["D6@z"] = elements(sctx, D6, D6.identity), elements(sctx, D6, z)
    ctx = rr.ctx_build(D6, z, sctx)
    out["D6@z mixed"] = [mixed_elt(ctx, rng) for _ in range(3)]
    assert any(f.den == 2 for a in out["mu2"] for f in a.coeffs)
    assert any(f.den == 6 for a in out["D6@z mixed"] for f in a.coeffs)
    return out


@pytest.mark.parametrize("case", ORACLE_CASES)
def test_exterior_powers_match_the_full_recurrence(oracle_elements, case):
    for a in oracle_elements[case]:
        for k in range(5):
            assert rr.exterior_power(a, k) == _old_exterior_power(a, k)


@pytest.mark.parametrize("case", ORACLE_CASES)
def test_arithmetic_matches_coefficient_wise_references(oracle_elements, case):
    elts = oracle_elements[case]
    for a in elts:
        assert list((-a).coeffs) == [-f for f in a.coeffs]
        for s in (0, 3, q_power(Fraction(1, 2)) - ONE):
            assert list((a * s).coeffs) == [f * s for f in a.coeffs]
        for b in elts:
            if b.ctx != a.ctx:
                continue
            assert list((a + b).coeffs) == [f + g for f, g in zip(a.coeffs, b.coeffs)]
            assert list((a - b).coeffs) == [f - g for f, g in zip(a.coeffs, b.coeffs)]
            assert list((a * b).coeffs) == _ref_mul(a, b)
            assert rr.pairing(a, b) == sum((f * g for f, g in zip(a.coeffs, b.coeffs)), ZERO)


def test_newton_check_fires_when_adams_is_the_identity(S3, monkeypatch):
    """With ψ² = id, 2λ² of the sign is sign·sign − sign = 1 − sign, which
    2 does not divide."""
    sctx = ScalarContext.for_groups([S3])
    ctx = rr.LambdaCtx(sctx, S3, S3.identity)
    sign = next(i for i in range(ctx.rank)
                if ctx.table.degree(i) == 1 and i != ctx.trivial_row)
    monkeypatch.setattr(rr, "adams", lambda elt, m: elt)
    with pytest.raises(InternalCheckError, match="Newton recurrence not integral"):
        rr.exterior_power(ctx.basis_elt(sign), 2)


def test_exterior_powers_make_no_unit_products(S3, monkeypatch):
    """λ² of a non-unit element is one product (x·x) and λ³ three
    (x·x, x·λ², ψ²x·x): no product by λ⁰ = 1."""
    ctx = rr.ctx_build(S3, S3.identity, ScalarContext.for_groups([S3]))
    x = random_elt(ctx, random.Random(3), 1.0)
    assert x != ctx.unit()
    calls = []
    kernel = rr._add_product

    def counted(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(rr, "_add_product", counted)
    for k, products in ((2, 1), (3, 3)):
        calls.clear()
        rr.exterior_power(x, k)
        assert len(calls) == products


def test_arithmetic_across_contexts_is_refused(S3):
    sctx, C3 = ScalarContext.for_groups([S3]), cyclic(3)
    home = rr.ctx_build(S3, S3.identity, sctx)
    same = rr.LambdaCtx(sctx, S3, S3.identity)     # equal, not the same object
    a = random_elt(home, random.Random(4))
    b = same.from_coeffs(a.coeffs)
    assert home is not same and a + b == a * 2 and rr.pairing(a, b) == rr.pairing(a, a)
    others = [
        rr.LambdaCtx(ScalarContext.for_groups([S3]), S3, S3.identity),  # another scalar context
        rr.ctx_build(S3, Permutation([1, 2, 0]), sctx),
        rr.ctx_build(C3, C3.identity, sctx),
    ]
    assert others[0].key() == home.key() and others[0].sctx.p == sctx.p
    for other in others:
        c = other.from_coeffs([ONE] * other.rank)
        for x, y in ((a, c), (c, a)):
            for op in (lambda u, v: u + v, lambda u, v: u - v, lambda u, v: u * v,
                       rr.pairing):
                with pytest.raises(PreconditionError,
                                   match="elements live in different contexts"):
                    op(x, y)


# -- internal checks ------------------------------------------------------------
#
# Each map re-derives central angles (and induction degrees) from the character
# theory and checks them against the target context.  Corrupting a fresh
# context, one no cache hands out, must trip the check.

def _bad_angles(ctx):
    """Claim angle 1/2 for every row; at g = e every row really has angle 0."""
    ctx.angles = (Fraction(1, 2),) * ctx.rank
    return ctx


def _product(new, S3, C2, C3):
    ctx = _bad_angles(new(S3))
    ctx.unit() * ctx.unit()


def _restricted(new, S3, C2, C3):
    rr.restrict_along(GroupHom.inclusion(C2, S3), new(S3).unit(), _bad_angles(new(C2)))


def _induced(new, S3, C2, C3):
    rr.induce_to(new(C3).unit(), _bad_angles(new(S3)))


def _induction_degree(new, S3, C2, C3):
    target = new(S3)
    target.table.degrees = tuple(d + 1 for d in target.table.degrees)
    rr.induce_to(new(C3).unit(), target)


def _conjugation(new, S3, C2, C3):
    rr.conjugate(new(S3).unit(), Permutation([1, 0, 2]), _bad_angles(new(S3)))


def _adams(new, S3, C2, C3):
    rr.adams(_bad_angles(new(S3)).unit(), 2)


def _mu_integrality(new, S3, C2, C3):
    rr.mu_transport(new(S3).unit(), 1, _bad_angles(new(C3)))


def _mu_square(new, S3, C2, C3):
    """At n = 2 a claimed angle 1/4 leaves 0 − 2·(1/4) off the integers."""
    target = new(C3)
    target.angles = (Fraction(1, 4),) * target.rank
    rr.mu_transport(new(S3).unit(), 2, target)


def _conjugation_row(new, S3, C2, C3):
    """The degree-2 row of S3 is no row of C3's table."""
    rr.conjugate(new(S3).basis_elt(2), S3.identity, new(C3))


def _product_past_one(new, S3, C2, C3):
    """At the generator of C2 the sign row has angle 1/2, so sign·sign has
    weight 1; claiming 1/2 for the trivial row breaks the shift rule."""
    s = C2.generators[0]
    ctx = rr.LambdaCtx(new(C2).sctx, C2, s)
    sign = next(i for i in range(ctx.rank) if ctx.angles[i] == Fraction(1, 2))
    ctx.angles = (Fraction(1, 2),) * ctx.rank
    ctx.basis_elt(sign) * ctx.basis_elt(sign)


def test_product_check_fires_on_a_second_context_over_a_filled_table():
    """D4 ≤ S4 at e and at g² share one character table.  With every product
    of the first context built, the second still checks its own angles."""
    G = symmetric(4)
    sctx = ScalarContext.for_groups([G])
    g2 = Permutation([2, 3, 0, 1])
    D4 = G.centralizer(g2)
    first, second = rr.LambdaCtx(sctx, D4, G.identity), rr.LambdaCtx(sctx, D4, g2)
    assert first.table is second.table and D4.order == 8
    for i in range(first.rank):
        for j in range(first.rank):
            first.product_columns(i, j)
    _bad_angles(second)
    with pytest.raises(InternalCheckError,
                       match="product constituent carries the wrong central angle"):
        second.unit() * second.unit()


@pytest.mark.parametrize("corrupted, message", [
    (_product, "product constituent carries the wrong central angle"),
    (_restricted, "restricted constituent carries the wrong central angle"),
    (_induced, "induced constituent carries the wrong central angle"),
    (_induction_degree, "induction degree mismatch"),
    (_conjugation, "conjugation changed a central angle"),
    (_adams, "Adams constituent carries the wrong central angle"),
    (_mu_integrality, "non-integral rotation shift in root transport"),
    (_mu_square, "non-integral rotation shift in root transport"),
    (_conjugation_row, "class function is not a row of the table"),
    (_product_past_one, "product constituent carries the wrong central angle"),
], ids=["product", "restricted", "induced", "induction-degree", "conjugation", "adams",
        "mu-integrality", "mu-square", "conjugation-row", "product-past-one"])
def test_internal_checks_fire(S3, c2_in_s3, c3_in_s3, corrupted, message):
    sctx = ScalarContext.for_groups([S3])

    def new(G):
        return rr.LambdaCtx(sctx, G, G.identity)

    with pytest.raises(InternalCheckError, match=message):
        corrupted(new, S3, c2_in_s3, c3_in_s3)


def test_an_angle_that_ord_g_does_not_clear_fails_at_construction(monkeypatch, S3, c2_in_s3):
    """At the generator s of C2, ord(s) = 2, so no central character has angle 1/3."""
    sctx = ScalarContext.for_groups([S3])
    monkeypatch.setattr(rr, "central_angle", lambda row, g, sctx: Fraction(1, 3))
    with pytest.raises(InternalCheckError,
                       match=r"^angle denominator does not divide ord\(g\)$"):
        rr.LambdaCtx(sctx, c2_in_s3, c2_in_s3.generators[0])


# -- caches -----------------------------------------------------------------------

def test_cached_builders_return_the_same_object(S3):
    sctx = ScalarContext.for_groups([S3])
    assert sctx.table(S3) is sctx.table(S3)
    assert rr.ctx_for(sctx, S3, S3.identity) is rr.ctx_for(sctx, S3, S3.identity)
    X = point_set(S3)
    assert qc.structure(S3, X, sctx) is qc.structure(S3, X, sctx)



def test_basis_product_is_the_product_of_basis_elements(S3):
    for G in (S3, direct_product(cyclic(2), cyclic(4))):
        sctx = ScalarContext.for_groups([G])
        for g in G.elements:
            if any(s * g != g * s for s in G.generators):
                continue
            ctx = rr.ctx_for(sctx, G, g)
            for i in range(ctx.rank):
                for j in range(ctx.rank):
                    coeffs = [ZERO] * ctx.rank
                    for mu, mult in ctx.product_columns(i, j):
                        coeffs[mu] = mult
                    assert coeffs == list((ctx.basis_elt(i) * ctx.basis_elt(j)).coeffs)


def test_product_decompositions_are_shared_per_table(monkeypatch):
    """Contexts over one group share its table's decompositions of row products."""
    from qell import charmod
    G = direct_product(cyclic(2), cyclic(4))
    sctx = ScalarContext.for_groups([G])
    calls = []
    build = charmod._decompose_product
    monkeypatch.setattr(charmod, "_decompose_product",
                        lambda *args: calls.append(1) or build(*args))
    for g in G.elements:
        ctx = rr.ctx_for(sctx, G, g)
        for i in range(ctx.rank):
            for j in range(ctx.rank):
                ctx.product_columns(i, j)
    assert len(calls) == G.order * (G.order + 1) // 2
    t = sctx.table(G)
    assert t.product_multiplicities(1, 2) is t.product_multiplicities(2, 1)

def test_c4xc4_products_build_a_column_per_table_pair_and_shift(monkeypatch):
    """The 16 contexts of C4xC4(pt) share one table: its 136 unordered pairs,
    each at rotation shift 0 or 1, bound the column builds.  (Products with
    equal multiplicities share a column, so there are fewer.)"""
    G = direct_product(cyclic(4), cyclic(4))
    sctx = ScalarContext.for_groups([G])
    builds = []
    build = rr._product_column
    monkeypatch.setattr(rr, "_product_column", lambda *args: builds.append(1) or build(*args))
    st = qc.structure(G, point_set(G), sctx)
    for cb in st.classes:
        ctx = cb.ctxs[0]
        for i in range(ctx.rank):
            for j in range(ctx.rank):
                ctx.product_columns(i, j)
    assert len(st.classes) == 16 and 0 < len(builds) <= 2 * 136


def test_warm_maps_make_no_decompositions(S3, c2_in_s3, c3_in_s3, monkeypatch):
    C2, C3 = c2_in_s3, c3_in_s3
    P = direct_product(C2, C3)
    sctx = ScalarContext.for_groups([S3, P])
    e = S3.identity
    ctx, ctx2, ctx3 = (rr.ctx_for(sctx, G, e) for G in (S3, C2, C3))
    rng = random.Random(5)
    a, b = random_elt(ctx, rng, density=1), random_elt(ctx, rng, density=1)
    c = random_elt(ctx3, rng, density=1)
    maps = {
        "product": lambda: a * b,
        "restrict_along": lambda: rr.restrict_along(GroupHom.inclusion(C2, S3), a, ctx2),
        "induce_to": lambda: rr.induce_to(c, ctx),
        "conjugate": lambda: rr.conjugate(a, Permutation([1, 0, 2]), ctx),
        "mu_transport": lambda: rr.mu_transport(a, 2, ctx3),
        "adams": lambda: rr.adams(a, 3),
    }
    cold = {name: fn() for name, fn in maps.items()}
    calls = []
    decompose = rr.decompose
    monkeypatch.setattr(rr, "decompose",
                        lambda *args, **kw: calls.append(1) or decompose(*args, **kw))
    for name, fn in maps.items():
        assert fn() == cold[name], name
        assert not calls, name
    ctxP = rr.ctx_for(sctx, P, P.identity)
    kun = rr.kunneth_columns(ctx2, ctx3, ctxP)
    assert rr.kunneth_columns(ctx2, ctx3, ctxP) is kun


def test_a_kunneth_entry_needs_the_factors_of_the_product_context(S3, c2_in_s3, c3_in_s3):
    P = direct_product(c2_in_s3, c3_in_s3)
    sctx = ScalarContext.for_groups([S3, P])
    ctx2, ctx3, ctxP = (rr.ctx_for(sctx, G, G.identity) for G in (c2_in_s3, c3_in_s3, P))
    with pytest.raises(PreconditionError, match="^the product context's group is not "
                                                "the product of the factors' groups$"):
        rr.kunneth_columns(ctx3, ctx2, ctxP)
    Q = direct_product(c2_in_s3, c2_in_s3)
    t, = c2_in_s3.generators
    diagonal = Q.subgroup_of([Q.identity, groups.product_pair(Q, t, t)])
    assert groups.factor_split(diagonal) is None
    with pytest.raises(PreconditionError, match="^the product context's group is not "):
        rr.kunneth_columns(ctx2, ctx2, rr.ctx_for(sctx, diagonal, Q.identity))


def test_warm_group_maps_redo_no_group_work(monkeypatch):
    _warm_maps_do_no_group_work(monkeypatch, symmetric(3), regular_gset,
                                Permutation([0, 1, 2]), 3)


def test_warm_group_maps_redo_no_group_work_on_s4_point(monkeypatch):
    _warm_maps_do_no_group_work(monkeypatch, symmetric(4), point_set,
                                Permutation([1, 0, 2, 3]), 0)


def _warm_maps_do_no_group_work(monkeypatch, G, space, h, point):
    """Warm maps over (G, space(G)) with H = <(0 1)>; value_at_element is
    taken at (h, point).  Warm, every map is a plan lookup and Z[q^Q]
    arithmetic only: no group work, no G-set and no new entry."""
    H = G.subgroup([Permutation([1, 0, *range(2, G.degree)])])   # not the least transposition
    X = space(G)
    XH = X.restrict_group(H)
    P = direct_product(G, H)
    sctx = ScalarContext.for_groups([G, P])
    a = qc.random_element(qc.structure(H, XH, sctx), random.Random(3))
    z = qc.change_of_group_inverse(G, H, XH, a)
    b = qc.random_element(qc.structure(H, point_set(H), sctx), random.Random(4))
    c = qc.random_element(qc.structure(G, point_set(G), sctx), random.Random(5))
    d = qc.random_element(qc.structure(G, X, sctx), random.Random(6))
    incl = GroupHom.inclusion(H, G)
    XY = product_gset(X, point_set(H), P)
    R = regular_gset(G)     # onto X along g ↦ g·0
    f = [X.act(G.elements[gi], 0) for gi, _ in R.labels]
    # (h, point) is no (class rep, orbit rep): the value is conjugated there
    ci = d.structure.conjugacy.class_index(h)
    orb = d.structure.classes[ci].orbits[d.structure.classes[ci].orbit_of_point[point]]
    assert d.structure.conjugacy.class_reps[ci] != h or orb.rep != point
    maps = {
        "pullback_hom": lambda: qc.pullback_hom(incl, d),
        "pullback_map": lambda: qc.pullback_map(f, d, R),
        "kunneth": lambda: qc.kunneth(d, b, P, XY),
        "change_of_group_inverse": lambda: qc.change_of_group_inverse(G, H, XH, a),
        "change_of_group": lambda: qc.change_of_group(G, H, XH, z),
        "transfer_A": lambda: qc.transfer(G, a, X, algorithm="A"),
        "transfer_B": lambda: qc.transfer(G, b, algorithm="B"),
        "mu": lambda: qc.mu(c, 2),
        "mu3": lambda: qc.mu(c, 3),
        "mu_on_X": lambda: qc.mu(d, 2),
        "value_at_element": lambda: qc.value_at_element(d, h, point),
    }
    cold = {name: fn() for name, fn in maps.items()}
    assert cold["change_of_group"] == a
    calls = []
    group_work = []

    def counted(owner, name, log):
        fn = getattr(owner, name)
        monkeypatch.setattr(owner, name,
                            lambda *args, **kwargs: log.append(name) or fn(*args, **kwargs))

    counted(gsets, "_build_induced_gset", calls)
    counted(gsets.FiniteGSet, "__init__", calls)     # a warm map builds no G-set
    for module in (groups, qc):     # any module that binds its own transporter
        if hasattr(module, "transporter"):
            counted(module, "transporter", calls)
    counted(rr, "decompose", calls)
    counted(rr, "_constituents", calls)     # a warm map builds no column,
    entry_call = rr.MapEntry.__call__

    def column(entry, i):                   # and folds none: every column, a
        if i not in entry.columns:          # fold's too, is built by an entry
            calls.append(entry.build.__name__)
        return entry_call(entry, i)
    monkeypatch.setattr(rr.MapEntry, "__call__", column)
    for name in ("__mul__", "inverse", "__pow__"):
        counted(Permutation, name, group_work)
    counted(groups.FiniteGroup, "is_subgroup", group_work)
    for module in (groups, rr, qc, charmod):    # every module that binds class_fusion
        if hasattr(module, "class_fusion"):
            counted(module, "class_fusion", group_work)
    homs = []
    hom_init = groups.GroupHom.__init__
    monkeypatch.setattr(groups.GroupHom, "__init__", lambda self, *args, **kwargs:
                        homs.append(args[0].name) or hom_init(self, *args, **kwargs))
    builds = []
    group_init = groups.FiniteGroup.__init__
    monkeypatch.setattr(groups.FiniteGroup, "__init__", lambda self, *args, **kwargs:
                        builds.append(args) or group_init(self, *args, **kwargs))
    getters = []
    apply_sum = rr.apply_sum
    monkeypatch.setattr(rr, "apply_sum", lambda target, terms, *scale: getters.extend(
        column for _, column in terms) or apply_sum(target, terms, *scale))
    registries = [incl._restrictions] + [hom._restrictions for hom in G._induced.values()
                                         if isinstance(hom, GroupHom)] + \
        [st._plans for st in sctx._structures.values()]
    for name, fn in maps.items():
        homs.clear()
        builds.clear()
        group_work.clear()
        getters.clear()
        entries = _entries(sctx, registries)
        assert fn() == cold[name], name
        assert not calls, (name, calls)
        # a second warm call adds no entry and reads the same getters
        first, getters[:] = list(getters), []
        assert fn() == cold[name], name
        assert _entries(sctx, registries) == entries, name
        assert len(getters) == len(first) and all(map(operator.is_, getters, first)), name
        # μ builds its inclusion only for a column miss, a pullback no hom
        # per orbit, and change of group reuses its checked H <= G
        assert not homs, (name, homs)
        # conjugated stabilizers come back from the registry
        assert not builds, (name, len(builds))
        # checks, fusions, transports and powers come back from their plans
        assert not group_work, (name, group_work)


def _entries(sctx, registries) -> dict:
    """Every stored entry, by identity: each ring's ``_maps`` and the given
    hom and plan registries, with each map entry's column count."""
    regs = [c._maps for c in sctx._lambda_ctxs.values()] + registries
    return {(id(reg), key): (id(entry), len(entry.columns)
                             if isinstance(entry, rr.MapEntry) else None)
            for reg in regs for key, entry in reg.items()}


# -- the one basis-map kernel ------------------------------------------------------
#
# apply_sum gathers the contributions to each output coefficient, from every
# term, and builds it once on int exponents; apply_columns is its one-term
# case.  The oracle is QLaurent arithmetic: rescale each source coefficient,
# multiply by the column term, add.

def _kernel_oracle(coeffs, target, column, p, s):
    out = [ZERO] * target.rank
    for i, f in enumerate(coeffs):
        if f:
            for j, mult in column(i):
                out[j] = out[j] + f.rescale(Fraction(p, s)) * mult
    return out


@pytest.mark.parametrize("scale", [(1, 1), (1, 2), (1, 3), (2, 1), (3, 2)])
def test_apply_columns_matches_qlaurent_arithmetic(scale):
    G = symmetric(3)
    ctx = rr.ctx_for(ScalarContext.for_groups([G]), G, G.identity)
    rng = random.Random(sum(scale))
    mixed = [Fraction(k, d) for k in range(-4, 5) for d in (1, 2, 3)]
    def draw():
        coeffs = [QLaurent([(rng.choice(mixed), rng.randint(-3, 3)) for _ in range(3)])
                  if rng.random() < 0.7 else ZERO for _ in range(ctx.rank)]
        # several terms per column and repeated targets: outputs with one
        # contribution and with several, unit terms among them
        columns = [tuple((rng.randrange(ctx.rank),
                          monomial(rng.choice([-2, 1, 1, 3]), rng.choice(mixed + [0] * 9)))
                         for _ in range(rng.randint(0, 3))) for _ in range(ctx.rank)]
        return coeffs, columns.__getitem__

    for _ in range(40):
        (coeffs, column), (coeffs2, column2) = draw(), draw()
        got = rr.apply_columns(coeffs, ctx, column, scale)
        want = _kernel_oracle(coeffs, ctx, column, *scale)
        assert [(f.den, f.num) for f in got.coeffs] == [(f.den, f.num) for f in want]
        # a sum of two maps' terms, reduced once, is the sum of the two
        got = rr.apply_sum(ctx, [(coeffs, column), (coeffs2, column2)], scale)
        want = map(operator.add, want, _kernel_oracle(coeffs2, ctx, column2, *scale))
        assert [(f.den, f.num) for f in got.coeffs] == [(f.den, f.num) for f in want]


def test_a_unit_column_term_hands_back_the_source_coefficient():
    """1·q⁰ with no rescale returns f itself; the term is tested by value, so a
    fresh monomial(1, 0) counts, and a rescale or another term does not."""
    G = symmetric(3)
    ctx = rr.ctx_for(ScalarContext.for_groups([G]), G, G.identity)
    f = q_power(Fraction(1, 2)) - 3 * q_power(2)
    coeffs = (f,) + (ZERO,) * (ctx.rank - 1)
    unit = ((2, monomial(1, 0)),)
    assert monomial(1, 0) is not ONE
    assert rr.apply_columns(coeffs, ctx, lambda i: unit).coeffs[2] is f
    assert rr.apply_columns(coeffs, ctx, lambda i: unit, (1, 2)).coeffs[2] == \
        f.rescale(Fraction(1, 2))
    assert rr.apply_columns(coeffs, ctx, lambda i: ((2, monomial(2, 0)),)).coeffs[2] == 2 * f
    # restriction along the identity and conjugation by e are unit terms throughout
    a = random_elt(ctx, random.Random(2), density=1)
    for b in (rr.mu_transport(a, 1, ctx), rr.conjugate(a, G.identity, ctx)):
        assert all(x is y for x, y in zip(b.coeffs, a.coeffs))


# -- a warm cache never answers a bad input ---------------------------------------
#
# Each ring map runs its checks when its entry is built.  Every bad call below
# sits next to a good one: the same map with its source, map or target
# changed.  With the good entry warm it must raise as on a cold cache, and
# store nothing.

W = Permutation([1, 0, 2, 3])                    # w = (0 1)
WR = W * Permutation([0, 3, 2, 1])              # w·r, with r g r⁻¹ = g⁻¹


def _s4_rings():
    """Fresh S4 rings and homs: g = (0 1 2 3) with C(g) = C4 and C(g²) = D4,
    Z2 = <g²>, C2 = <w> and T = wC4w⁻¹."""
    G = symmetric(4)
    sctx = ScalarContext.for_groups([G])
    e, g = G.identity, Permutation([1, 2, 3, 0])
    g2, wi = g * g, W.inverse()
    C4, D4, Z2 = G.centralizer(g), G.centralizer(g2), G.subgroup_of([e, g2])
    T = groups.conjugate_subgroup(G, C4, W)
    rings = {name: rr.ctx_for(sctx, S, x) for name, S, x in (
        ("C4@g", C4, g), ("C4@e", C4, e), ("C4@g2", C4, g2), ("D4@g2", D4, g2),
        ("D4@e", D4, e), ("Z2@g2", Z2, g2), ("Z2@e", Z2, e),
        ("C2@e", G.subgroup_of([e, W]), e),
        ("T@wgw", T, W * g * wi), ("T@wg'w", T, W * g.inverse() * wi))}
    return rings, {"G": GroupHom.identity_on(G), "C4": GroupHom.identity_on(C4)}


def _full(ctx):
    return ctx.from_coeffs([q_power(i) for i in range(ctx.rank)])


def _stored(rings, homs):
    return ([len(c._maps) for c in rings.values()],
            [len(phi._restrictions) for phi in homs.values()])


_MU = lambda R, H: rr.mu_transport(_full(R["D4@g2"]), 2, R["C4@g"])    # noqa: E731
_CONJ = lambda R, H: rr.conjugate(_full(R["C4@g"]), W, R["T@wgw"])  # noqa: E731
_RES = lambda R, H: rr.restrict_along(H["G"], _full(R["D4@g2"]), R["Z2@g2"])  # noqa: E731
WARM_BAD_INPUTS = {
    "mu-degree": (_MU, lambda R, H: rr.mu_transport(_full(R["D4@g2"]), 0, R["C4@g"])),
    "mu-power": (_MU, lambda R, H: rr.mu_transport(_full(R["D4@g2"]), 2, R["C4@e"])),
    "mu-inside": (lambda R, H: rr.mu_transport(_full(R["Z2@g2"]), 1, R["Z2@g2"]),
                  lambda R, H: rr.mu_transport(_full(R["Z2@g2"]), 1, R["D4@g2"])),
    "conj-target": (_CONJ, lambda R, H: rr.conjugate(_full(R["C4@g"]), W, R["T@wg'w"])),
    "conj-map": (_CONJ, lambda R, H: rr.conjugate(_full(R["C4@g"]), WR, R["T@wgw"])),
    "res-source": (_RES, lambda R, H: rr.restrict_along(H["G"], _full(R["C2@e"]), R["Z2@g2"])),
    "res-domain": (lambda R, H: rr.restrict_along(H["C4"], _full(R["C4@g2"]), R["Z2@g2"]),
                   lambda R, H: rr.restrict_along(H["C4"], _full(R["C4@g2"]), R["D4@g2"])),
    "res-g": (_RES, lambda R, H: rr.restrict_along(H["G"], _full(R["D4@g2"]), R["Z2@e"])),
    "res-source-g": (_RES,
                     lambda R, H: rr.restrict_along(H["G"], _full(R["D4@e"]), R["Z2@g2"])),
    "ind-g": (lambda R, H: rr.induce_to(_full(R["Z2@g2"]), R["D4@g2"]),
              lambda R, H: rr.induce_to(_full(R["Z2@g2"]), R["D4@e"])),
    "ind-inside": (lambda R, H: rr.induce_to(_full(R["D4@g2"]), R["D4@g2"]),
                   lambda R, H: rr.induce_to(_full(R["D4@g2"]), R["C4@g2"])),
}


@pytest.mark.parametrize("good, bad", WARM_BAD_INPUTS.values(), ids=WARM_BAD_INPUTS.keys())
def test_warm_cache_never_answers_a_bad_input(good, bad):
    with pytest.raises(PreconditionError) as cold:
        bad(*_s4_rings())
    rings, homs = _s4_rings()
    value = good(rings, homs)
    stored = _stored(rings, homs)
    for _ in range(2):      # raising again shows that the first bad call stored nothing
        with pytest.raises(PreconditionError) as warm:
            bad(rings, homs)
        assert type(warm.value) is type(cold.value)
        assert str(warm.value) == str(cold.value)
        assert _stored(rings, homs) == stored
    assert good(rings, homs) == value


# -- restriction along class fusions ----------------------------------------------
#
# restrict_cf and the restrict_along, conjugate and μ columns gather through a
# class fusion.  The oracles below are the bodies they replaced: one class
# lookup per image of a class rep, then a full decomposition.

def _lookup_restrict_cf(phi, psi):
    conj = phi.codomain.conjugacy()
    return ClassFunction(phi.domain, psi.ctx, [psi.values[conj.class_index(phi(rep))]
                                               for rep in phi.domain.conjugacy().class_reps])


def _lookup_column(phi, src, i, target, n=1, coeff=ONE):
    """coeff·(row i), restricted along phi into target, as an element of target
    with q ↦ q^{1/n}: Σ_j m_j·coeff(q^{1/n})·q^{(c_i − n·d_j)/n}·(j)."""
    mults = decompose(_lookup_restrict_cf(phi, src.table.rows[i]), target.table)
    coeffs = []
    for j, m in enumerate(mults):
        shift = src.angles[i] - n * target.angles[j]
        assert m == 0 or shift.denominator == 1
        coeffs.append(coeff.rescale(Fraction(1, n)) * QLaurent([(shift / n, m)]))
    return target.from_coeffs(coeffs)


def _center(H):
    return [z for z in H.elements if all(z * s == s * z for s in H.generators)]


@pytest.mark.parametrize("G", [symmetric(4), dihedral(6), direct_product(cyclic(2), cyclic(4))],
                         ids=["S4", "D6", "C2xC4"])
def test_restriction_columns_match_class_lookups(G):
    sctx = ScalarContext.for_groups([G])
    q = q_power(1)
    for H in groups.all_subgroups(G):
        H = G.subgroup_of(H.elements)
        incl = GroupHom.inclusion(H, G)
        for chi in sctx.table(G).rows:
            assert restrict_cf(incl, chi) == _lookup_restrict_cf(incl, chi)
        for g in _center(H):
            target = rr.ctx_for(sctx, H, g)
            src = rr.ctx_build(G, g, sctx)
            incl = GroupHom.inclusion(H, src.group)
            for i in range(src.rank):
                assert rr.restrict_along(incl, src.basis_elt(i, q), target) == \
                    _lookup_column(incl, src, i, target, coeff=q)
            for n in (1, 2, 3):
                src = rr.ctx_build(G, g ** n, sctx)
                incl = GroupHom.inclusion(H, src.group)
                for i in range(src.rank):
                    assert rr.mu_transport(src.basis_elt(i, q), n, target) == \
                        _lookup_column(incl, src, i, target, n, q)
        # conjugation s ↦ w s w⁻¹ from H to T = wHw⁻¹ is restriction along
        # t ↦ w⁻¹ t w from T to H
        for w in G.elements:
            wi = w.inverse()
            T = groups.conjugate_subgroup(G, H, w)
            back = GroupHom(T, H, {t: wi * t * w for t in T.elements})
            for chi in sctx.table(H).rows:
                assert restrict_cf(back, chi) == _lookup_restrict_cf(back, chi)
            for g in _center(H):
                src = rr.ctx_for(sctx, H, g)
                target = rr.ctx_for(sctx, T, w * g * wi)
                for i in range(src.rank):
                    expected = _lookup_column(back, src, i, target, coeff=q)
                    assert rr.conjugate(src.basis_elt(i, q), w, target) == expected
                    assert rr.restrict_along(back, src.basis_elt(i, q), target) == expected


@pytest.mark.parametrize("call, error, message", [
    (lambda ctx, C3: rr.LambdaCtx(ctx.sctx, C3, Permutation([1, 0, 2])),
     PreconditionError, "(0 1) is not an element of sub<S3:3>"),
    (lambda ctx, C3: ctx.basis_elt(0) ** -1, PreconditionError, "negative powers are not defined"),
    (lambda ctx, C3: rr.adams(ctx.unit(), 0),
     PreconditionError, "Adams operation index must be >= 1"),
    (lambda ctx, C3: rr.exterior_power(ctx.unit(), -1),
     PreconditionError, "exterior power index must be >= 0"),
    (lambda ctx, C3: setattr(ctx.unit(), "ctx", ctx), AttributeError, "LambdaElt is immutable"),
], ids=["g-outside", "negative-power", "adams-index", "exterior-index", "immutable"])
def test_rotrep_user_errors(S3, c3_in_s3, call, error, message):
    ctx = rr.ctx_for(ScalarContext.for_groups([S3]), S3, S3.identity)
    with pytest.raises(error) as err:
        call(ctx, c3_in_s3)
    assert str(err.value) == message
