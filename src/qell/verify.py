"""Named verification suites behind `qell verify`.

Each check is a public function of its groups, count and seed that returns a
list of (name, ok, detail); a failing detail names the first failing case.
The "paper" suite reruns the worked algebra this library is pinned to (cyclic
torsion presentations, the symmetric-group-on-three rings, Künneth on points,
change-of-group, free actions, the transfer tables); the "props" suite runs
seeded randomized property checks.  The acceptance gate and the unit tests
call the same functions with their own groups, counts and seeds.
"""

from __future__ import annotations

import random
from fractions import Fraction

from . import qell_core as qc
from . import rotrep as rr
from .charmod import ScalarContext, inner_product, induce_cf, restrict_cf
from .groups import (
    GroupHom,
    Permutation,
    all_subgroups,
    cyclic,
    dihedral,
    direct_product,
    product_pair,
    symmetric,
)
from .gsets import point_set, product_gset, regular_gset
from .qlaurent import q_power

Check = tuple[str, bool, str]


def run_suite(which: str, seed: int = 0) -> list[Check]:
    checks: list[Check] = []
    if which in ("paper", "all"):
        checks.extend(paper_suite())
    if which in ("props", "all"):
        checks.extend(props_suite(seed))
    return checks


def _check(name: str, ok: bool, detail: str) -> Check:
    return (name, bool(ok), detail)


def _verdict(name: str, cases, detail: str = "") -> Check:
    """One check over lazily evaluated (case, ok) pairs: it stops at the first
    failing case and names it."""
    for case, ok in cases:
        if not ok:
            return _check(name, False, f"fails at {case}")
    return _check(name, True, detail)


def _point_structure(G):
    return qc.structure(G, point_set(G), ScalarContext.for_groups([G]))


# ---------------------------------------------------------------------------
# deterministic reproductions

def paper_suite() -> list[Check]:
    return [
        *cyclic_presentations(range(1, 9)),
        *abelian_product_presentations(((2, 3), (2, 4), (3, 3))),
        *symmetric3_rings(),
        *kunneth_on_points(((cyclic(2), cyclic(3)), (cyclic(2), cyclic(2)),
                            (symmetric(3), cyclic(2)))),
        *change_of_group_round_trips(5, 11, title="change-of-group round trip"),
        *free_action_examples(),
        *transfer_tables(),
    ]


def cyclic_presentations(orders) -> list[Check]:
    """Each component of QEll_{C_N}(pt) is Z[q^±][x]/(x^N - q^m), one check per N."""
    return [_verdict(f"cyclic order-{N} torsion presentation x^{N} = q^m per component",
                     _product_components(N, 1))
            for N in orders]


def abelian_product_presentations(pairs) -> list[Check]:
    """Each component of a cyclic product carries one generator per factor,
    with angle k_j/N_j, x_j^{N_j} = q^{k_j} and monomials sweeping the basis."""
    return [_verdict(f"cyclic-product presentation x_j^N_j = q^k_j (C{n1} x C{n2})",
                     _product_components(n1, n2))
            for n1, n2 in pairs]


def _product_components(n1: int, n2: int):
    """The components of QEll_G(pt) at k = (k1, k2), for G = C_{n1} x C_{n2}, or
    G = C_{n1} itself when n2 = 1 (then s2 = e, and s1 = e too when n1 = 1).
    Generator x_j is the one row with value ζ_{n_j} at s_j and 1 at the other."""
    if n2 > 1:
        G = direct_product(cyclic(n1), cyclic(n2))
        s1 = product_pair(G, cyclic(n1).generators[0], cyclic(n2).identity)
        s2 = product_pair(G, cyclic(n1).identity, cyclic(n2).generators[0])
    else:
        G = cyclic(n1)
        s1, s2 = G.generators[0] if n1 > 1 else G.identity, G.identity
    sctx = ScalarContext.for_groups([G])
    st = qc.structure(G, point_set(G), sctx)
    z1, z2 = sctx.root_of_unity(n1), sctx.root_of_unity(n2)
    for k1 in range(n1):
        for k2 in range(n2):
            case, g = f"k = ({k1}, {k2})", s1 ** k1 * s2 ** k2
            ctx = st.classes[st.conjugacy.class_index(g)].ctxs[0]
            rows = ctx.table.rows
            gens = [[i for i in range(ctx.rank) if rows[i](s1) == a and rows[i](s2) == b]
                    for a, b in ((z1, 1), (1, z2))]
            if any(len(found) != 1 for found in gens):
                yield case, False
                continue
            (i1,), (i2,) = gens
            x1, x2 = ctx.basis_elt(i1), ctx.basis_elt(i2)
            swept = {(x1 ** a * x2 ** b).basis_index()
                     for a in range(n1) for b in range(n2)}
            yield case, (
                ctx.g == g and ctx.rank == n1 * n2
                and ctx.angles[i1] == Fraction(k1, n1) and ctx.angles[i2] == Fraction(k2, n2)
                and x1 ** n1 == ctx.q(k1) and x2 ** n2 == ctx.q(k2)
                and swept == set(range(ctx.rank)))


def symmetric3_rings() -> list[Check]:
    S3 = symmetric(3)
    sctx = ScalarContext.for_groups([S3])
    conj = S3.conjugacy()
    e_ctx = rr.ctx_build(S3, S3.identity, sctx)
    X, Y, one = e_ctx.basis_elt(1), e_ctx.basis_elt(2), e_ctx.unit()
    c12 = rr.ctx_build(S3, conj.class_reps[1], sctx)
    x = c12.basis_elt(1)
    c123 = rr.ctx_build(S3, conj.class_reps[2], sctx)
    x3 = next(c123.basis_elt(i) for i in range(c123.rank)
              if c123.angles[i] == Fraction(1, 3))
    return [
        _verdict("sign/standard ring relations at the identity sector",
                 (("XY=Y", X * Y == Y), ("X^2=1", X * X == one),
                  ("Y^2=1+X+Y", Y * Y == one + X + Y)),
                 "XY=Y, X^2=1, Y^2=1+X+Y"),
        _verdict("transposition sector: rank 2 and x^2 = q",
                 (("rank", c12.rank == 2), ("x^2", x * x == c12.q()))),
        _verdict("3-cycle sector: rank 3 and x^3 = q",
                 (("rank", c123.rank == 3), ("x^3", x3 ** 3 == c123.q()))),
    ]


def kunneth_on_points(pairs) -> list[Check]:
    """Künneth sends each pair of basis elements of QEll_G(pt) and QEll_H(pt)
    to its own basis element of QEll_{GxH}(pt), and covers that basis."""
    return [_verdict(f"Künneth on points is a basis bijection ({G.name}, {H.name})",
                     _kunneth_images(G, H))
            for G, H in pairs]


def _basis_elements(st):
    for ci, cb in enumerate(st.classes):
        for i in range(cb.ctxs[0].rank):
            comps = [list(row) for row in st.zero().components]
            comps[ci][0] = cb.ctxs[0].basis_elt(i)
            yield (ci, i), qc.QEllElt(st, comps)


def _kunneth_images(G, H):
    P = direct_product(G, H)
    sctx = ScalarContext.for_groups([P])
    sG = qc.structure(G, point_set(G), sctx)
    sH = qc.structure(H, point_set(H), sctx)
    XY = product_gset(point_set(G), point_set(H), P)
    hit = set()
    for ga, a in _basis_elements(sG):
        for hb, b in _basis_elements(sH):
            img = qc.kunneth(a, b, P, XY)
            spots = [(ci, row[0].basis_index())
                     for ci, row in enumerate(img.components) if not row[0].is_zero()]
            ok = len(spots) == 1 and spots[0][1] is not None and spots[0] not in hit
            hit.update(spots)
            yield f"basis pair {ga} x {hb}", ok
    sP = qc.structure(P, XY, sctx)
    yield "the target basis", len(hit) == sum(cb.ctxs[0].rank for cb in sP.classes)


def _cog_pairs():
    S3 = symmetric(3)
    C4 = cyclic(4)
    yield S3, S3.subgroup([Permutation([1, 0, 2])]), "S3 | C2"
    yield S3, S3.subgroup([Permutation([1, 2, 0])]), "S3 | C3"
    yield C4, C4.subgroup([Permutation([2, 3, 0, 1])]), "C4 | C2"


def change_of_group_round_trips(count: int, seed: int,
                                title: str | None = None) -> list[Check]:
    """change_of_group(change_of_group_inverse(a)) == a for `count` random a on
    the point and the regular H-set of each pair, drawn from `seed` per set."""
    title = title or f"change-of-group round trips, {count} random elements"
    return [_verdict(f"{title} ({label})", _cog_round_trips(G, H, count, seed))
            for G, H, label in _cog_pairs()]


def _cog_round_trips(G, H, count: int, seed: int):
    sctx = ScalarContext.for_groups([G])
    for X in (point_set(H), regular_gset(H)):
        sH = qc.structure(H, X, sctx)
        rng = random.Random(seed)
        for i in range(count):
            a = qc.random_element(sH, rng)
            z = qc.change_of_group_inverse(G, H, X, a)
            yield f"{X.name} element {i}", qc.change_of_group(G, H, X, z) == a


def free_action_examples() -> list[Check]:
    out = []
    for G in (cyclic(2), symmetric(3)):
        sctx = ScalarContext.for_groups([G])
        X = regular_gset(G)
        st = qc.structure(G, X, sctx)
        data = qc.free_quotient(st.q(2) + st.unit())
        ok = st.total_rank() == 1 and data == [(0, q_power(2) + q_power(0))]
        out.append(_check(
            f"free action on the regular set collapses to Z[q^±] ({G.name})",
            ok, f"total rank {st.total_rank()}"))
    return out


def transfer_tables() -> list[Check]:
    """The hand-derived unit transfers into QEll_{S3}(pt), by algorithms B and A.

    From the 3-element subgroup: 1 + sign at e, 0 at flips, 2 at 3-cycles.
    From a 2-element subgroup: 1 + standard at e, the unit at flips, 0 at 3-cycles.
    """
    S3 = symmetric(3)
    sctx = ScalarContext.for_groups([S3])
    sG = qc.structure(S3, point_set(S3), sctx)
    e_ctx, f_ctx, t_ctx = (cb.ctxs[0] for cb in sG.classes)
    tables = (
        ("unit transfer from the 3-element subgroup of S3", [1, 2, 0],
         [e_ctx.basis_elt(0) + e_ctx.basis_elt(1), f_ctx.zero(), t_ctx.unit() * 2]),
        ("unit transfer from a 2-element subgroup of S3", [1, 0, 2],
         [e_ctx.basis_elt(0) + e_ctx.basis_elt(2), f_ctx.unit(), t_ctx.zero()]),
    )
    out = []
    for name, gen, values in tables:
        H = S3.subgroup([Permutation(gen)])
        unit = qc.structure(H, point_set(H), sctx).unit()
        expected = qc.QEllElt(sG, [[v] for v in values])
        out.append(_verdict(name, (
            (f"algorithm {alg}",
             qc.transfer(S3, unit, point_set(S3), algorithm=alg) == expected)
            for alg in "BA")))
    return out


# ---------------------------------------------------------------------------
# seeded property checks

def props_suite(seed: int = 0) -> list[Check]:
    return [
        *ring_axioms(10, seed + 1),
        *transfer_cross_checks(50, seed + 17),
        *change_of_group_round_trips(50, seed + 29),
        *mu_properties((symmetric(3), cyclic(4)), 50, seed + 41),
        *pullback_contravariance(10, seed + 53),
        *frobenius_reciprocity(),
        *mu_composition_report(10, seed + 67),
    ]


def ring_axioms(count: int, seed: int) -> list[Check]:
    st = _point_structure(symmetric(3))
    rng = random.Random(seed)

    def triples():
        for i in range(count):
            a, b, c = (qc.random_element(st, rng) for _ in range(3))
            yield f"triple {i}", (a * b == b * a and (a * b) * c == a * (b * c)
                                  and a * (b + c) == a * b + a * c
                                  and a * st.unit() == a)
    return [_verdict("componentwise ring axioms on random elements", triples())]


def transfer_cross_checks(count: int, seed: int) -> list[Check]:
    """Transfer A equals transfer B on `count` random elements of each
    subgroup's QEll_H(pt), drawn from one `seed` per group."""
    return [_verdict(f"transfer: covering composite equals the coset-sum formula ({G.name})",
                     _transfer_agreement(G, count, seed),
                     f"{count} random elements per subgroup")
            for G in (symmetric(3), dihedral(4))]


def _transfer_agreement(G, count: int, seed: int):
    sctx = ScalarContext.for_groups([G])
    X = point_set(G)
    rng = random.Random(seed)
    for hi, H in enumerate(all_subgroups(G)):
        sH = qc.structure(H, point_set(H), sctx)
        for i in range(count):
            a = qc.random_element(sH, rng)
            yield (f"subgroup {hi} (order {H.order}) element {i}",
                   qc.transfer(G, a, X, algorithm="A") == qc.transfer(G, a, algorithm="B"))


def mu_properties(groups, count: int, seed: int) -> list[Check]:
    """μ^1 = id and μ^n multiplicative on `count` random pairs, then μ^n
    commuting with λ^k on 5 more random elements, drawn from `seed` per group."""
    out = []
    for G in groups:
        st = _point_structure(G)
        rng = random.Random(seed)
        pairs = [(qc.random_element(st, rng), qc.random_element(st, rng))
                 for _ in range(count)]
        singles = [qc.random_element(st, rng) for _ in range(5)]
        out.append(_verdict(f"μ^1 = id on random elements ({G.name})", (
            (f"element {i}", qc.mu(a, 1) == a) for i, (a, _) in enumerate(pairs))))
        out.append(_verdict(f"μ^n is multiplicative, n in 2..3 ({G.name})", (
            (f"pair {i}, n = {n}", qc.mu(a * b, n) == qc.mu(a, n) * qc.mu(b, n))
            for i, (a, b) in enumerate(pairs) for n in (2, 3))))
        out.append(_verdict(f"μ^n commutes with exterior powers λ^k, k ≤ 2 ({G.name})", (
            (f"element {i}, n = {n}, k = {k}",
             qc.mu(qc.exterior_power(a, k), n) == qc.exterior_power(qc.mu(a, n), k))
            for i, a in enumerate(singles) for n in (1, 2, 3) for k in (0, 1, 2))))
    return out


def pullback_contravariance(count: int, seed: int) -> list[Check]:
    S3 = symmetric(3)
    C2 = S3.subgroup([Permutation([1, 0, 2])])
    T = S3.subgroup([S3.identity])
    st = _point_structure(S3)
    inc1 = GroupHom.inclusion(C2, S3)
    inc2 = GroupHom.inclusion(T, C2)
    comp = inc1.compose(inc2)
    rng = random.Random(seed)

    def elements():
        for i in range(count):
            a = qc.random_element(st, rng)
            yield f"element {i}", (qc.pullback_hom(inc2, qc.pullback_hom(inc1, a))
                                   == qc.pullback_hom(comp, a))
    return [_verdict("pullback contravariance along composed inclusions", elements())]


def frobenius_reciprocity() -> list[Check]:
    S3 = symmetric(3)
    sctx = ScalarContext.for_groups([S3])
    tG = sctx.table(S3)

    def pairings():
        for hi, H in enumerate(all_subgroups(S3)):
            incl = GroupHom.inclusion(H, S3)
            for ci, chi in enumerate(sctx.table(H).rows):
                for pi, psi in enumerate(tG.rows):
                    yield (f"subgroup {hi} (order {H.order}), characters {ci}, {pi}",
                           inner_product(induce_cf(S3, H, chi), psi)
                           == inner_product(chi, restrict_cf(incl, psi)))
    return [_verdict("Frobenius reciprocity across all subgroups of S3", pairings())]


def mu_composition_report(count: int, seed: int) -> list[Check]:
    """μ^m ∘ μ^n = μ^{nm}, on random elements of QEll_{C4}(pt).

    Proof.  At (g, x), μ^m∘μ^n restricts the component at (g^{nm}, x) to
    C(g)_x through C(g^m)_x.  It sends (ρ, c) first to Σ_λ ⟨ρ|, λ⟩
    q^{(c − n·d_λ)/n} (λ, d_λ), λ over C(g^m)_x, then, q-exponents divided
    by m, to Σ_{λ,ν} ⟨ρ|, λ⟩⟨λ|, ν⟩ q^{(c − n·d_λ)/(nm) + (d_λ − m·e_ν)/m}
    (ν, e_ν), ν over C(g)_x.  The shifts add up to (c − nm·e_ν)/(nm) for
    every λ, and restriction is transitive, so Σ_λ ⟨ρ|, λ⟩⟨λ|, ν⟩ = ⟨ρ|, ν⟩:
    that is μ^{nm}.  Values at other elements are conjugates of these, and
    conjugation commutes with restriction and keeps angles.
    """
    st = _point_structure(cyclic(4))
    rng = random.Random(seed)
    agree = True
    for _ in range(count):
        a = qc.random_element(st, rng)
        agree = agree and qc.mu(qc.mu(a, 2), 2) == qc.mu(a, 4)
        agree = agree and qc.mu(qc.mu(a, 3), 2) == qc.mu(a, 6)
    return [_check("report: composite root transports match μ^{nm} (informational)",
                   agree, f"observed {'agreement' if agree else 'DISAGREEMENT'}")]
