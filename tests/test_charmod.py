"""Character tables, inner products, induction, Adams operations, angles."""

from fractions import Fraction

import pytest

from qell.charmod import (
    ClassFunction,
    ScalarContext,
    _abelian_rows,
    _class_matrix_rows,
    adams_cf,
    central_angle,
    decompose,
    induce_cf,
    inner_product,
    restrict_cf,
)
from qell.errors import PreconditionError, ScalarContextError
from qell.groups import GroupHom, Permutation, cyclic, dihedral, direct_product, symmetric


def test_scalar_context_properties(S3, s3_ctx):
    assert s3_ctx.p % s3_ctx.N == 1
    assert s3_ctx.p > 2 * S3.order ** 2
    # distinct powers of zeta are distinct
    powers = {pow(s3_ctx.zeta, k, s3_ctx.p) for k in range(s3_ctx.N)}
    assert len(powers) == s3_ctx.N


def test_context_rejects_foreign_group(s3_ctx):
    with pytest.raises(ScalarContextError, match="rebuild scalar context"):
        s3_ctx.check_group(cyclic(4))   # 4 does not divide N = 6


def test_context_rejects_prime_too_small():
    ctx = ScalarContext.for_groups([cyclic(6)])
    with pytest.raises(ScalarContextError, match="rebuild scalar context"):
        ctx.check_group(dihedral(6))    # exponent fits but 2*12^2 exceeds p


def test_s3_table_degrees(S3, s3_ctx):
    t = s3_ctx.table(S3)
    assert t.degrees == (1, 1, 2)


def test_c4_table_all_linear(C4):
    ctx = ScalarContext.for_groups([C4])
    t = ctx.table(C4)
    assert t.degrees == (1, 1, 1, 1)


def test_d4_table_degrees(D4):
    ctx = ScalarContext.for_groups([D4])
    t = ctx.table(D4)
    # oracle: 5 classes and sum of squares = 8 force degrees {1,1,1,1,2}
    assert D4.conjugacy().n_classes == 5
    assert sorted(t.degrees) == [1, 1, 1, 1, 2]
    assert sum(d * d for d in t.degrees) == 8


def test_table_orthonormality_various():
    for G in (symmetric(4), dihedral(5), direct_product(cyclic(2), cyclic(4))):
        ctx = ScalarContext.for_groups([G])
        t = ctx.table(G)
        for i, r in enumerate(t.rows):
            for j, s in enumerate(t.rows):
                assert inner_product(r, s) == (1 if i == j else 0)
        assert sum(d * d for d in t.degrees) == G.order


def test_abelian_fast_path_agrees_with_class_matrices():
    for G in (cyclic(6), cyclic(8), direct_product(cyclic(2), cyclic(2)),
              direct_product(cyclic(3), cyclic(3))):
        ctx = ScalarContext.for_groups([G])
        fast = {r.values for r in _abelian_rows(G, ctx)}
        slow = {r.values for r in _class_matrix_rows(G, ctx)}
        assert fast == slow


def test_regular_character_decomposition(S3, s3_ctx):
    t = s3_ctx.table(S3)
    conj = S3.conjugacy()
    reg_values = [S3.order if rep == S3.identity else 0
                  for rep in conj.class_reps]
    reg = ClassFunction(S3, s3_ctx, reg_values)
    mults = decompose(reg, t)
    assert tuple(mults) == t.degrees


def test_inner_product_examples(S3, s3_ctx):
    t = s3_ctx.table(S3)
    C3 = cyclic(3)
    ctx3 = ScalarContext.for_groups([C3])
    t3 = ctx3.table(C3)
    reg = ClassFunction(C3, ctx3, [3, 0, 0])
    triv = t3.rows[0]
    assert inner_product(reg, triv) == 1
    Y = t.rows[2]
    assert inner_product(Y * Y, Y) == 1


def test_tensor_decompose_examples(S3, s3_ctx):
    t = s3_ctx.table(S3)
    X, Y = t.rows[1], t.rows[2]
    assert X * Y == Y
    assert decompose(Y * Y, t) == [1, 1, 1]
    assert t.rows[0] * Y == Y


def test_decompose_rejects_non_character(S3, s3_ctx):
    t = s3_ctx.table(S3)
    f = ClassFunction(S3, s3_ctx, [1, 0, 2])
    with pytest.raises(PreconditionError, match="not a character combination"):
        decompose(f, t)


def brute_induced_values(G, H, chi):
    """Direct evaluation of the induced-character sum, per class of G."""
    p = chi.ctx.p
    conj_h = H.conjugacy()
    out = []
    for g in G.conjugacy().class_reps:
        s = 0
        for x in G.elements:
            y = x.inverse() * g * x
            if y in H:
                s += chi.values[conj_h.class_index(y)]
        out.append(s * pow(H.order, -1, p) % p)
    return tuple(out)


def test_induce_from_c3(S3, s3_ctx, c3_in_s3):
    t3 = s3_ctx.table(c3_in_s3)
    triv = t3.rows[0]
    ind = induce_cf(S3, c3_in_s3, triv)
    assert ind.values == brute_induced_values(S3, c3_in_s3, triv)
    t = s3_ctx.table(S3)
    assert decompose(ind, t) == [1, 1, 0]      # 1 + sign


def test_induce_from_c2(S3, s3_ctx, c2_in_s3):
    t2 = s3_ctx.table(c2_in_s3)
    ind = induce_cf(S3, c2_in_s3, t2.rows[0])
    t = s3_ctx.table(S3)
    assert decompose(ind, t) == [1, 0, 1]      # 1 + standard
    assert ind.values[0] == 3                  # degree = index


def test_restrict_identity(S3, s3_ctx):
    t = s3_ctx.table(S3)
    ident = GroupHom.identity_on(S3)
    for r in t.rows:
        assert restrict_cf(ident, r) == r


def test_frobenius_reciprocity(S3, s3_ctx, c2_in_s3, c3_in_s3):
    t = s3_ctx.table(S3)
    for H in (c2_in_s3, c3_in_s3):
        tH = s3_ctx.table(H)
        incl = GroupHom.inclusion(H, S3)
        for chi in tH.rows:
            ind = induce_cf(S3, H, chi)
            for psi in t.rows:
                assert inner_product(ind, psi) == \
                    inner_product(chi, restrict_cf(incl, psi))


def test_adams_examples(S3, s3_ctx):
    t = s3_ctx.table(S3)
    Y = t.rows[2]
    assert adams_cf(Y, 1) == Y
    psi2 = adams_cf(Y, 2)
    e_idx = S3.conjugacy().class_index(S3.identity)
    flip_idx = S3.conjugacy().class_index(Permutation([1, 0, 2]))
    assert psi2.values[e_idx] == 2
    assert psi2.values[flip_idx] == 2          # (12)^2 = e
    for chi in t.rows:
        psi6 = adams_cf(chi, 6)
        assert all(v == chi.values[e_idx] for v in psi6.values)


def test_adams_composition(D4):
    ctx = ScalarContext.for_groups([D4])
    t = ctx.table(D4)
    for chi in t.rows:
        assert adams_cf(adams_cf(chi, 2), 3) == adams_cf(chi, 6)
        assert adams_cf(chi, 1) == chi


def test_central_angle_examples():
    C2 = cyclic(2)
    ctx = ScalarContext.for_groups([C2])
    t = ctx.table(C2)
    inv = C2.generators[0]
    angles = sorted(central_angle(r, inv, ctx) for r in t.rows)
    assert angles == [Fraction(0), Fraction(1, 2)]
    assert central_angle(t.rows[0], inv, ctx) == 0

    C3 = cyclic(3)
    ctx3 = ScalarContext.for_groups([C3])
    t3 = ctx3.table(C3)
    g = C3.generators[0]
    assert sorted(central_angle(r, g, ctx3) for r in t3.rows) == \
        [Fraction(0), Fraction(1, 3), Fraction(2, 3)]


def test_central_angle_additivity(C4):
    ctx = ScalarContext.for_groups([C4])
    t = ctx.table(C4)
    g = C4.generators[0]
    for a in t.rows:
        for b in t.rows:
            prod = a * b
            mults = decompose(prod, t)
            target = central_angle(a, g, ctx) + central_angle(b, g, ctx)
            target -= int(target)
            for i, m in enumerate(mults):
                if m:
                    assert central_angle(t.rows[i], g, ctx) == target
