"""Acceptance gate: one test per criterion, exact equality, stated time budgets.

Each test prints a PASS line on success (visible under ``pytest -s``); the
pytest verdict itself is the per-criterion pass/fail record.
"""

import random
import time

from qell import qell_core as qc
from qell import verify
from qell.charmod import ScalarContext, inner_product, induce_cf, restrict_cf
from qell.groups import (
    GroupHom,
    alternating,
    cyclic,
    dihedral,
    direct_product,
    symmetric,
)
from qell.gsets import point_set, product_gset


def _report(n, text):
    print(f"ACCEPTANCE {n}: PASS: {text}")


def test_criterion_01_cyclic_presentations(assert_pass):
    start = time.perf_counter()
    checks = verify.cyclic_presentations(range(1, 9))
    elapsed = time.perf_counter() - start
    assert_pass(checks)
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    _report(1, f"cyclic presentations N=1..8 exact in {elapsed:.2f}s")


def test_criterion_02_symmetric3_rings(assert_pass):
    start = time.perf_counter()
    checks = verify.symmetric3_rings()
    elapsed = time.perf_counter() - start
    assert_pass(checks)
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    _report(2, f"symmetric-3 ring relations exact in {elapsed:.2f}s")


def test_criterion_03_torsion_scheme_presentations(assert_pass):
    assert_pass(verify.cyclic_presentations(range(1, 9)))
    assert_pass(verify.abelian_product_presentations(((2, 3), (2, 4), (3, 3))))
    _report(3, "torsion-scheme ring presentations verified for N=1..8 "
               "and for C2xC3, C2xC4, C3xC3")


def test_criterion_04_kunneth_basis_bijection(assert_pass):
    assert_pass(verify.kunneth_on_points(((cyclic(2), cyclic(3)), (cyclic(2), cyclic(2)),
                                           (symmetric(3), cyclic(2)))))
    _report(4, "Künneth on points is a basis bijection for all three pairs")


def test_criterion_05_change_of_group_round_trips(assert_pass):
    assert_pass(verify.change_of_group_round_trips(50, 2024))
    _report(5, "change-of-group round trips, 50 random elements per pair and space")


def test_criterion_06_transfer_cross_check_and_table(assert_pass):
    assert_pass(verify.transfer_cross_checks(50, 99))
    assert_pass(verify.transfer_tables())
    _report(6, "transfer algorithms agree on every subgroup of S3 and D4; "
               "worked table reproduced")


def test_criterion_07_mu_family(assert_pass):
    assert_pass(verify.mu_properties((symmetric(3), cyclic(4)), 50, 777))
    _report(7, "root-transport family: identity, multiplicativity, "
               "exterior-power commutation")


def test_criterion_08_free_action_and_trivial_split(assert_pass):
    assert_pass(verify.free_action_examples())
    G, H = cyclic(2), cyclic(3)
    P = direct_product(G, H)
    sctx = ScalarContext.for_groups([P])
    XY = product_gset(point_set(G), point_set(H), P)
    stP = qc.structure(P, XY, sctx)
    rng = random.Random(55)
    for _ in range(5):
        elt = qc.random_element(stP, rng)
        pieces = qc.trivial_split(elt)
        total = stP.zero()
        for a, b in pieces:
            total = total + qc.kunneth(a, b, P, XY)
        assert total == elt
    _report(8, "free actions collapse to Z[q^±]; trivial-action splitting "
               "round-trips")


def _builtin_groups_up_to(order_cap: int):
    for n in range(1, order_cap + 1):
        yield cyclic(n)
    n = 1
    while True:
        n += 1
        G = symmetric(n)
        if G.order > order_cap:
            break
        yield G
    n = 2
    while True:
        n += 1
        G = alternating(n)
        if G.order > order_cap:
            break
        yield G
    for n in range(1, order_cap // 2 + 1):
        yield dihedral(n)
    # products of cyclics, two or three factors, each of size >= 2
    for a in range(2, order_cap + 1):
        for b in range(a, order_cap // a + 1):
            yield direct_product(cyclic(a), cyclic(b))
            for c in range(b, order_cap // (a * b) + 1):
                yield direct_product(direct_product(cyclic(a), cyclic(b)), cyclic(c))


def test_criterion_09_character_suite_order_48():
    start = time.perf_counter()
    count = 0
    for G in _builtin_groups_up_to(48):
        sctx = ScalarContext.for_groups([G])
        t = sctx.table(G)
        assert sum(d * d for d in t.degrees) == G.order
        for i, r in enumerate(t.rows):
            for j in range(i, t.n_irr):
                assert inner_product(r, t.rows[j]) == (1 if i == j else 0)
        # Frobenius reciprocity against a canonical cyclic subgroup
        conj = G.conjugacy()
        gen = max(conj.class_reps, key=lambda g: (g.order(), g))
        H = G.subgroup([gen], name="cyc")
        tH = sctx.table(H)
        incl = GroupHom.inclusion(H, G)
        for chi in tH.rows:
            ind = induce_cf(G, H, chi)
            for psi in t.rows:
                assert inner_product(ind, psi) == \
                    inner_product(chi, restrict_cf(incl, psi))
        count += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"took {elapsed:.2f}s for {count} groups"
    _report(9, f"character suite over {count} builtin groups of order <= 48 "
               f"in {elapsed:.2f}s")


def test_criterion_10_performance(assert_pass):
    start = time.perf_counter()
    S5 = symmetric(5)
    sctx = ScalarContext.for_groups([S5])
    st = qc.structure(S5, point_set(S5), sctx)
    tables = 0
    for cb in st.classes:
        ctx = cb.ctxs[0]
        for i in range(ctx.rank):
            for j in range(ctx.rank):
                ctx.basis_elt(i) * ctx.basis_elt(j)
                tables += 1
    s5_time = time.perf_counter() - start
    assert s5_time < 10.0, f"S5 structure took {s5_time:.2f}s"

    start = time.perf_counter()
    checks = verify.run_suite("all", seed=0)
    verify_time = time.perf_counter() - start
    assert_pass(checks)
    assert verify_time < 120.0, f"verify all took {verify_time:.2f}s"
    _report(10, f"S5 structure with {tables} table entries in {s5_time:.2f}s; "
                f"full verification suite in {verify_time:.2f}s")
