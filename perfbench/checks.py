"""Correctness checks on outputs, independent of the seed.

Structure payloads are compared through an isomorphism-invariant signature
against digests pinned from the builtin specs; group data is compared against
``sympy.combinatorics``; element payloads from the CLI are checked with
identities that need no library call (augmentation, q = 1 totals).
"""

from __future__ import annotations

import hashlib
from fractions import Fraction

# sha256 of structure_signature(payload of QEll_G(pt) with tables), G built
# from its builtin spec; see selftest.PinnedSignatures for how to recompute.
PINNED = {
    "C4xC4": "f620d36d749b1e72c68fbd9c8c3b5647015552e7a20b3b9a261426938b4cc044",
    "D12": "1db64c0764bd46199622dd84f04a1f371a97073ad7df4a4946aec8fc1211f258",
    "C2xS4": "5471318cbb72cbd41e1486ed604240ce844c1e59b25ad0d94f19445556987c44",
    "S5": "cc96214c6eacd02df1f3f85b00d1b6b2ac0c873a0bfe3248845213479f340b75",
    "A6": "90ddf91b539579a8dccd25a6c2d203748a1ad5d91c5247ca9b496d6a247b575b",
    "S6": "ad2007c0e9f09e0e11b27e344461d4d44c0477eb310848f0328b65b73fc30505",
}


def _label(basis_entry) -> tuple:
    return (basis_entry["degree"], basis_entry["c"])


def _poly(terms) -> tuple:
    return tuple((t["exp"], t["coef"]) for t in terms)


def structure_signature(payload: dict) -> str:
    """Digest of what a relabelling of the points cannot change.

    Per class: rep order, centralizer order, and per orbit the stabilizer
    order, the sorted (degree, angle) basis and the multiset of table
    entries with every basis index replaced by its (degree, angle) label.
    Classes are sorted, so their order does not matter either.
    """
    classes = []
    for cls in payload["classes"]:
        orbits = []
        for orb in cls["orbits"]:
            labels = [_label(b) for b in orb["basis"]]
            entries = sorted(
                (labels[i], labels[j],
                 tuple(sorted((labels[k], _poly(f)) for k, f in enumerate(vec) if f)))
                for i, row in enumerate(orb.get("table", ()))
                for j, vec in enumerate(row))
            orbits.append((orb["stabilizer_order"], tuple(sorted(labels)),
                           tuple(entries)))
        classes.append((cls["rep_order"], cls["centralizer_order"],
                        tuple(sorted(orbits))))
    return hashlib.sha256(repr(sorted(classes)).encode()).hexdigest()


def class_data(payload: dict) -> list[tuple[int, int]]:
    """Sorted (rep order, centralizer order) per class."""
    return sorted((c["rep_order"], c["centralizer_order"]) for c in payload["classes"])


def sympy_class_data(degree: int, generators) -> list[tuple[int, int]]:
    """The same data from sympy.combinatorics, an independent implementation."""
    from sympy.combinatorics import Permutation, PermutationGroup
    G = PermutationGroup([Permutation(list(g), size=degree) for g in generators])
    order = G.order()
    return sorted((next(iter(cls)).order(), order // len(cls))
                  for cls in G.conjugacy_classes())


# -- element payloads ------------------------------------------------------------

def _at_one(terms) -> int:
    return sum(t["coef"] for t in terms)


def identity_class(payload: dict) -> dict:
    for cls in payload["classes"]:
        if cls["rep"] == sorted(cls["rep"]):
            return cls
    raise ValueError("no identity class in payload")


def augmentation(cls: dict) -> int:
    """Σ f(1)·degree over the basis of every orbit of one class."""
    return sum(_at_one(f) * b["degree"]
               for orb in cls["orbits"]
               for f, b in zip(orb["coeffs"], orb["basis"]))


def total_at_one(payload: dict) -> int:
    """Σ f(1) over every coefficient of every component."""
    return sum(_at_one(f) for cls in payload["classes"]
               for orb in cls["orbits"] for f in orb["coeffs"])


def is_unit(payload: dict) -> bool:
    """Every component is the trivial basis element with coefficient 1."""
    for cls in payload["classes"]:
        for orb in cls["orbits"]:
            hits = [(b, f) for b, f in zip(orb["basis"], orb["coeffs"]) if f]
            if len(hits) != 1:
                return False
            b, f = hits[0]
            if (b["degree"], b["c"]) != (1, "0/1") or f != [{"exp": "0/1", "coef": 1}]:
                return False
    return True


def fill_coefficients(template: dict, coeffs) -> dict:
    """An element payload with the template's layout and the given coefficients.

    ``coeffs`` comes from inputs.coefficients for the template's shape; orbits
    whose coefficients are all zero are dropped, as the schema asks.
    """
    classes = []
    for cls, vecs in zip(template["classes"], coeffs):
        orbits = []
        for orb, vec in zip(cls["orbits"], vecs):
            out = [_serialize(terms) for terms in vec]
            if any(out):
                orbits.append(dict(orb, coeffs=out))
        classes.append(dict(cls, orbits=orbits))
    return dict(template, classes=classes)


def shape(payload: dict) -> list[list[int]]:
    return [[orb["rank"] for orb in cls["orbits"]] for cls in payload["classes"]]


def _serialize(terms) -> list[dict]:
    acc: dict[Fraction, int] = {}
    for num, den, coef in terms:
        r = Fraction(num, den)
        acc[r] = acc.get(r, 0) + coef
    return [{"exp": f"{r.numerator}/{r.denominator}", "coef": c}
            for r, c in sorted(acc.items()) if c]
