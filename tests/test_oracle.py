"""The group layer against an independent oracle: sympy's permutation groups.

sympy is a test-only dependency.  It is imported plainly, never through
``importorskip``, so a missing oracle fails the suite instead of skipping it.

For every builtin S_n and A_n up to order 720, C_n and D_n with n <= 12, and
twelve seeded random ``perm:`` groups of degree <= 7, the test checks:

- the group order;
- the conjugacy classes, as sets of elements;
- the centralizer of each class representative, as a set of elements;
- ``transporter(G, g, g2)`` for every pair of class representatives,
  against the scan of every element of G that it replaces for most pairs;
- the contract of ``subgroup_of`` on every centralizer and on the group
  itself: its generators close to exactly the members, and there are at
  most floor(log2 |H|) of them.

It also checks ``total_rank()`` against a count that uses no character
table and no prime: Burnside's lemma on commuting triples,

    rank of QEll_G(X) = (1/|G|) · Σ_{pairwise-commuting (g, h, k)} |X^⟨g,h,k⟩|,

on many-class products, on S4 with its point, regular and coset sets, and on
hypothesis-drawn ``perm:`` groups of small order.

Last, a table's sparse ``product_multiplicities(i, j)`` must be the nonzero
entries of ``decompose(rows[i]·rows[j])`` on named groups and on
hypothesis-drawn ``perm:`` groups of degree <= 6.
"""

import math
import random

import pytest
from hypothesis import given, settings
from sympy.combinatorics import Permutation as SympyPermutation
from sympy.combinatorics import PermutationGroup

from qell.charmod import ScalarContext, decompose
from qell.groups import _closure, builtin, transporter
from qell.groupspec import parse_group_spec
from qell.gsets import coset_gset, point_set, regular_gset
from qell.qell_core import structure
from qell.perm import Permutation
from strategies import small_perm_specs

BUILTINS = ([f"S{n}" for n in range(1, 7)] + [f"A{n}" for n in range(1, 7)]
            + [f"C{n}" for n in range(1, 13)] + [f"D{n}" for n in range(1, 13)])


def random_perm_spec(seed: int) -> str:
    """Random generators on 3 + seed % 5 points, so every degree 3..7 occurs."""
    rng = random.Random(seed)
    degree = 3 + seed % 5
    gens = []
    for _ in range(rng.randint(1, 3)):
        images = list(range(degree))
        rng.shuffle(images)
        cycles = Permutation(images).cycles() or [(0,)]
        gens.append("".join("(" + ",".join(map(str, c)) + ")" for c in cycles))
    return f"perm:{degree}:" + ";".join(gens)


RANDOM_SPECS = [random_perm_spec(seed) for seed in range(12)]


def sympy_group(G) -> PermutationGroup:
    gens = G.generators or (G.identity,)
    return PermutationGroup([SympyPermutation(list(g), size=G.degree)
                             for g in gens])


def assert_small_generating_set(H):
    assert set(_closure(H.degree, H.generators)) == set(H.elements)
    assert len(H.generators) <= int(math.log2(H.order))


def check_against_sympy(G):
    P = sympy_group(G)
    assert P.order() == G.order
    conj = G.conjugacy()
    ours = {frozenset(g for g in cls) for cls in conj.class_elements}
    theirs = {frozenset(tuple(p.array_form) for p in cls)
              for cls in P.conjugacy_classes()}
    assert ours == theirs
    for ci, rep in enumerate(conj.class_reps):
        C = conj.centralizer(ci)
        theirs = P.centralizer(SympyPermutation(list(rep), size=G.degree))
        assert set(C.elements) == {tuple(p.array_form) for p in theirs.generate()}
        if C is not G:                  # a root keeps the generators it was given
            assert_small_generating_set(C)
    assert G.subgroup_of(G.elements) is G


def scan_transporter(G, g, g2):
    """The transporter as every element of G tried in turn, the way it was
    found before cycles were read: the oracle for ``transporter``."""
    return [x for x in G.elements if g * x == x * g2]


def check_transporters(G):
    reps = G.conjugacy().class_reps
    for g in reps:
        for g2 in reps:
            assert transporter(G, g, g2) == scan_transporter(G, g, g2)


@pytest.mark.parametrize("spec", BUILTINS)
def test_builtin_group_matches_sympy(spec):
    check_against_sympy(builtin(spec[0], int(spec[1:])))


@pytest.mark.parametrize("spec", RANDOM_SPECS)
def test_random_perm_group_matches_sympy(spec):
    check_against_sympy(parse_group_spec(spec))


@pytest.mark.parametrize("spec", BUILTINS + RANDOM_SPECS)
def test_transporter_matches_the_scan(spec):
    check_transporters(parse_group_spec(spec))


@pytest.mark.parametrize("spec, g, g2, empty", [
    ("S6", (), (), False),                   # 6! candidates: the scan
    ("S6", ((0, 1),), ((4, 5),), False),     # four fixed points, 2·4! candidates
    ("S6", ((0, 1),), ((0, 1, 2),), True),   # different cycle types
    ("A6", ((0, 1, 2, 3, 4),), ((0, 4, 3, 2, 1),), False),   # x and x⁻¹
    ("A6", ((0, 1, 2, 3, 4),), ((0, 2, 4, 1, 3),), True),    # x and x², classes apart
    ("C2xS4", ((2, 3),), ((4, 5),), False),  # cycles matched inside each orbit
    ("C2xS4", ((0, 1),), ((2, 3),), True),   # same cycle type, different orbits
    ("D6xC2", ((0, 1, 2, 3, 4, 5),), ((0, 5, 4, 3, 2, 1),), False),
    ("perm:7:(0,1,2,3,4,5,6);(1,2,4)(3,6,5)", ((0, 1, 2, 3, 4, 5, 6),),
     ((0, 3, 6, 2, 5, 1, 4),), True),
], ids=["identity", "fixed-points", "cycle-types", "5-cycles", "5-cycles-apart",
        "orbits", "orbits-apart", "rotation-inverse", "7-cycles-apart"])
def test_transporter_matches_the_scan_on_chosen_pairs(spec, g, g2, empty):
    G = parse_group_spec(spec)
    g, g2 = (Permutation(_from(G.degree, c)) for c in (g, g2))
    assert g in G and g2 in G
    assert transporter(G, g, g2) == scan_transporter(G, g, g2)
    assert (transporter(G, g, g2) == []) is empty


def _from(degree, cycles):
    images = list(range(degree))
    for c in cycles:
        for a, b in zip(c, c[1:] + c[:1]):
            images[a] = b
    return images


# -- the rank of QEll_G(X) from commuting triples ------------------------------

def commuting_triple_rank(G, X) -> int:
    """(1/|G|) · Σ |X^⟨g,h,k⟩| over pairwise-commuting triples (g, h, k).

    The triples are walked through element centralizer sets, and each fixed
    set is a bitmask over the points of X.
    """
    cent = {g: frozenset(x for x in G.elements if g * x == x * g) for g in G.elements}
    fixed = {g: sum(1 << x for x in X.points() if X.act(g, x) == x) for g in G.elements}
    total = 0
    for g, cg in cent.items():
        fg = fixed[g]
        for h in cg:
            fgh = fg & fixed[h]
            if fgh:
                total += sum(bin(fgh & fixed[k]).count("1") for k in cg & cent[h])
    assert total % G.order == 0
    return total // G.order


def assert_rank_matches_triples(G, X):
    struct = structure(G, X, ScalarContext.for_groups([G]))
    assert struct.total_rank() == commuting_triple_rank(G, X)


@pytest.mark.parametrize("spec", ["D4xD4", "D6xC2xC2", "S4"])
def test_rank_of_point_matches_commuting_triples(spec):
    G = parse_group_spec(spec)
    assert_rank_matches_triples(G, point_set(G))


def _s4_subgroups():
    G = parse_group_spec("S4")
    stab0 = G.subgroup_of([g for g in G.elements if g(0) == 0])
    klein = G.subgroup_of([g for g in G.elements
                           if g.order() <= 2 and len(g.cycles()) != 1])
    return G, {"stab0": stab0, "klein": klein, "whole": G}


@pytest.mark.parametrize("space", ["regular", "stab0", "klein", "whole"])
def test_rank_of_s4_sets_matches_commuting_triples(space):
    G, subgroups = _s4_subgroups()
    X = regular_gset(G) if space == "regular" else coset_gset(G, subgroups[space])
    assert_rank_matches_triples(G, X)


@settings(max_examples=25, deadline=None)
@given(small_perm_specs())
def test_rank_of_random_groups_matches_commuting_triples(spec):
    G = parse_group_spec(spec)
    stab0 = G.subgroup_of([g for g in G.elements if g(0) == 0])
    for X in (point_set(G), regular_gset(G), coset_gset(G, stab0)):
        assert_rank_matches_triples(G, X)


def assert_products_match_decompose(table):
    for i, chi in enumerate(table.rows):
        for j, psi in enumerate(table.rows):
            mults = decompose(chi * psi, table)
            assert table.product_multiplicities(i, j) == tuple(
                (k, m) for k, m in enumerate(mults) if m)


@pytest.mark.parametrize("spec", ["S4", "D6", "C2xC4", "A5", "D12", "C2xS4"])
def test_product_multiplicities_match_decompose(spec):
    G = parse_group_spec(spec)
    assert_products_match_decompose(ScalarContext.for_groups([G]).table(G))


@settings(max_examples=25, deadline=None)
@given(small_perm_specs(max_degree=6))
def test_product_multiplicities_match_decompose_on_random_groups(spec):
    G = parse_group_spec(spec)
    assert_products_match_decompose(ScalarContext.for_groups([G]).table(G))
