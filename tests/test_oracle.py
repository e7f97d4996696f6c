"""The group layer against an independent oracle: sympy's permutation groups.

sympy is a test-only dependency.  It is imported plainly, never through
``importorskip``, so a missing oracle fails the suite instead of skipping it.

For every builtin S_n and A_n up to order 720, C_n and D_n with n <= 12, and
twelve seeded random ``perm:`` groups of degree <= 7, the test checks:

- the group order;
- the conjugacy classes, as sets of elements;
- the order of the centralizer of each class representative;
- the contract of ``subgroup_of`` on every centralizer and on the group
  itself: its generators close to exactly the members, and there are at
  most floor(log2 |H|) of them.
"""

import math
import random

import pytest
from sympy.combinatorics import Permutation as SympyPermutation
from sympy.combinatorics import PermutationGroup

from qell.groups import _closure, builtin
from qell.groupspec import parse_group_spec
from qell.perm import Permutation

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
    return PermutationGroup([SympyPermutation(list(g.images), size=G.degree)
                             for g in gens])


def assert_small_generating_set(H):
    assert set(_closure(H.degree, H.generators)) == set(H.elements)
    assert len(H.generators) <= int(math.log2(H.order))


def check_against_sympy(G):
    P = sympy_group(G)
    assert P.order() == G.order
    conj = G.conjugacy()
    ours = {frozenset(g.images for g in cls) for cls in conj.class_elements}
    theirs = {frozenset(tuple(p.array_form) for p in cls)
              for cls in P.conjugacy_classes()}
    assert ours == theirs
    for ci, rep in enumerate(conj.class_reps):
        C = conj.centralizer(ci)
        assert C.order == P.centralizer(
            SympyPermutation(list(rep.images), size=G.degree)).order()
        assert_small_generating_set(C)
    assert_small_generating_set(G.subgroup_of(G.elements))


@pytest.mark.parametrize("spec", BUILTINS)
def test_builtin_group_matches_sympy(spec):
    check_against_sympy(builtin(spec[0], int(spec[1:])))


@pytest.mark.parametrize("spec", RANDOM_SPECS)
def test_random_perm_group_matches_sympy(spec):
    check_against_sympy(parse_group_spec(spec))
