"""Seeded benchmark inputs: group presentations and coefficient vectors.

Everything here is a pure function of the seed (and of a shape handed in by
the caller); the module imports nothing from qell, so the program under test
only ever receives finished inputs.
"""

from __future__ import annotations

import json
import random

# Standard generators of each point-cold ladder group, as (degree, cycles).
# They match the constructions behind the builtin specs of the same name.
LADDER = (
    ("C4xC4", 8, (((0, 1, 2, 3),), ((4, 5, 6, 7),))),
    ("D12", 12, ((tuple(range(12)),),
                 tuple((i, 12 - i) for i in range(1, 6)))),
    ("C2xS4", 6, (((0, 1),), ((2, 3),), ((2, 3, 4, 5),))),
    ("S5", 5, (((0, 1),), ((0, 1, 2, 3, 4),))),
    ("A6", 6, (((0, 1, 2),), ((1, 2, 3),), ((2, 3, 4),), ((3, 4, 5),))),
    ("S6", 6, (((0, 1),), ((0, 1, 2, 3, 4, 5),))),
)
S4_GENS = (4, (((0, 1),), ((0, 1, 2, 3),)))
S5_GENS = (5, (((0, 1),), ((0, 1, 2, 3, 4),)))


def _rng(seed: int, *tags) -> random.Random:
    """An independent stream per (seed, tags); string seeding is hash-free."""
    return random.Random("|".join(str(t) for t in (seed,) + tags))


def from_cycles(degree: int, cycles) -> tuple:
    images = list(range(degree))
    for cyc in cycles:
        for i, c in enumerate(cyc):
            images[c] = cyc[(i + 1) % len(cyc)]
    return tuple(images)


def compose(a: tuple, b: tuple) -> tuple:
    """(a * b)(x) = a(b(x)), the library's convention."""
    return tuple(a[j] for j in b)


def inverse(a: tuple) -> tuple:
    inv = [0] * len(a)
    for i, j in enumerate(a):
        inv[j] = i
    return tuple(inv)


def cycle_text(images: tuple) -> str:
    seen, out = set(), []
    for start in range(len(images)):
        if start in seen:
            continue
        cyc, j = [start], images[start]
        seen.add(start)
        while j != start:
            cyc.append(j)
            seen.add(j)
            j = images[j]
        if len(cyc) > 1:
            out.append("(" + ",".join(map(str, cyc)) + ")")
    return "".join(out)


def relabelled_spec(degree: int, gens_cycles, rng: random.Random) -> tuple[str, list]:
    """A ``perm:`` spec of the same group: generators conjugated by a random
    relabelling, plus one redundant generator (a word in them), shuffled."""
    gens = [from_cycles(degree, cycles) for cycles in gens_cycles]
    ident = tuple(range(degree))
    extra = ident
    while extra == ident:
        extra = ident
        for _ in range(4):
            extra = compose(extra, rng.choice(gens))
    sigma = list(range(degree))
    rng.shuffle(sigma)
    sigma = tuple(sigma)
    sigma_inv = inverse(sigma)
    conj = [compose(compose(sigma, g), sigma_inv) for g in gens + [extra]]
    rng.shuffle(conj)
    return f"perm:{degree}:" + ";".join(cycle_text(g) for g in conj), conj


def point_cold_specs(seed: int) -> list[tuple[str, str, list]]:
    """(ladder label, perm spec, its generators as image tuples) per ladder group."""
    return [(label, *relabelled_spec(degree, gens, _rng(seed, "point", label)))
            for label, degree, gens in LADDER]


def coefficients(seed: int, tag, shape, density: float = 0.3, terms: int = 2) -> list:
    """Coefficient vectors for an element of a given shape.

    ``shape`` lists, per class, the ranks of its orbit components.  Each
    coefficient is a list of (exponent numerator, exponent denominator,
    integer coefficient) terms.  In every component exactly
    max(1, round(density * rank)) seeded positions are nonzero, each with
    ``terms`` terms at distinct exponents, so the amount of arithmetic an
    element causes does not depend on the seed; only the values do.
    """
    rng = _rng(seed, "coeffs", tag)
    out = []
    for ranks in shape:
        row = []
        for rank in ranks:
            vec = [[] for _ in range(rank)]
            for pos in rng.sample(range(rank), max(1, round(density * rank))):
                vec[pos] = [(e, 1, rng.choice((-3, -2, -1, 1, 2, 3)))
                            for e in sorted(rng.sample(range(-2, 3), terms))]
            row.append(vec)
        out.append(row)
    return out


def shuffled(seed: int, tag, items) -> list:
    items = list(items)
    _rng(seed, "order", tag).shuffle(items)
    return items


def choice_index(seed: int, tag, n: int) -> int:
    return _rng(seed, "choice", tag).randrange(n)


def cli_specs(seed: int) -> dict:
    """Group specs for cli-cold: relabelled S4 and S5, with their generators."""
    g_spec, g_gens = relabelled_spec(*S4_GENS, _rng(seed, "cli", "S4"))
    s5_spec, s5_gens = relabelled_spec(*S5_GENS, _rng(seed, "cli", "S5"))
    return {"G": g_spec, "G_gens": g_gens, "S5": s5_spec, "S5_gens": s5_gens}


def point_stabilizer_spec(gens: list, point: int) -> str:
    """``perm:`` spec of the stabilizer of ``point`` in the group <gens>.

    Enumerates the (small) group here, so the subgroup choice stays
    independent of the library under test.
    """
    degree = len(gens[0])
    ident = tuple(range(degree))
    stab = sorted(g for g in _closure(gens, ident) if g[point] == point and g != ident)
    # greedy generating set: add the least element not yet generated
    chosen, covered = [], {ident}
    for g in stab:
        if g not in covered:
            chosen.append(g)
            covered = _closure(chosen, ident)
    return f"perm:{degree}:" + ";".join(cycle_text(g) for g in chosen)


def _closure(gens, ident):
    seen, frontier = {ident}, [ident]
    while frontier:
        nxt = []
        for g in frontier:
            for s in gens:
                h = compose(g, s)
                if h not in seen:
                    seen.add(h)
                    nxt.append(h)
        frontier = nxt
    return seen


def dump(seed: int) -> str:
    """Every input a seed determines, as canonical JSON (for the self-test)."""
    cli = cli_specs(seed)
    return json.dumps({
        "point_cold": point_cold_specs(seed),
        "cli": {"G": cli["G"], "S5": cli["S5"],
                "H": point_stabilizer_spec(cli["G_gens"],
                                           choice_index(seed, "cli-H", 4))},
        "coeffs": coefficients(seed, "probe", [[3, 1], [2], [5]]),
        "order": shuffled(seed, "probe", range(10)),
    }, sort_keys=True)
