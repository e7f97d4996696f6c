"""Hypothesis strategies shared by the test modules."""

from hypothesis import strategies as st

from qell.perm import Permutation


@st.composite
def small_perm_specs(draw, max_degree=5):
    """``perm:`` specs of one or two generators on at most max_degree points."""
    degree = draw(st.integers(2, max_degree))
    gens = []
    for images in draw(st.lists(st.permutations(range(degree)), min_size=1, max_size=2)):
        cycles = Permutation(images).cycles() or [(0,)]
        gens.append("".join("(" + ",".join(map(str, c)) + ")" for c in cycles))
    return f"perm:{degree}:" + ";".join(gens)
