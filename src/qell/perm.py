"""Permutations of {0..n-1}, stored as image tuples."""

from __future__ import annotations

import math

from .errors import InvalidGeneratorError


class Permutation:
    """A bijection of {0..n-1}; ``images[i]`` is the image of point i.

    Immutable and hashable.  Composition is left-to-right application of
    the right factor first: ``(a * b)(x) == a(b(x))``.
    """

    __slots__ = ("images", "_hash")

    def __init__(self, images):
        images = tuple(int(i) for i in images)
        n = len(images)
        if sorted(images) != list(range(n)):
            raise InvalidGeneratorError(
                f"invalid generator: {images!r} is not a bijection of 0..{n - 1}"
            )
        object.__setattr__(self, "images", images)
        object.__setattr__(self, "_hash", hash(images))

    def __setattr__(self, name, value):
        raise AttributeError("Permutation is immutable")

    @classmethod
    def _raw(cls, images: tuple) -> "Permutation":
        """Skip validation for images known to be a bijection."""
        self = object.__new__(cls)
        object.__setattr__(self, "images", images)
        object.__setattr__(self, "_hash", hash(images))
        return self

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, point: int) -> int:
        return self.images[point]

    def __mul__(self, other: "Permutation") -> "Permutation":
        a = self.images
        b = other.images
        if len(a) != len(b):
            raise InvalidGeneratorError("degree mismatch in composition")
        return Permutation._raw(tuple(map(a.__getitem__, b)))

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.images)
        for i, j in enumerate(self.images):
            inv[j] = i
        return Permutation._raw(tuple(inv))

    def __pow__(self, n: int) -> "Permutation":
        if n < 0:
            return self.inverse() ** (-n)
        result = Permutation._raw(tuple(range(len(self.images))))
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def order(self) -> int:
        out = 1
        for cyc in self.cycles():
            out = out * len(cyc) // math.gcd(out, len(cyc))
        return out

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles, each rotated to start at its least point."""
        seen = [False] * self.degree
        out = []
        for start in range(self.degree):
            if seen[start]:
                continue
            cyc = [start]
            seen[start] = True
            j = self.images[start]
            while j != start:
                cyc.append(j)
                seen[j] = True
                j = self.images[j]
            if len(cyc) > 1:
                out.append(tuple(cyc))
        return out

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __lt__(self, other: "Permutation") -> bool:
        return self.images < other.images

    def __le__(self, other: "Permutation") -> bool:
        return self.images <= other.images

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        cycs = self.cycles()
        if not cycs:
            return "()"
        return "".join("(" + " ".join(map(str, c)) + ")" for c in cycs)


def identity(degree: int) -> Permutation:
    return Permutation(range(degree))


def from_cycles(degree: int, cycles) -> Permutation:
    """Build a permutation from disjoint (or sequentially applied) cycles."""
    images = list(range(degree))
    for cyc in cycles:
        cyc = [int(c) for c in cyc]
        for c in cyc:
            if not 0 <= c < degree:
                raise InvalidGeneratorError(
                    f"invalid generator: point {c} outside 0..{degree - 1}"
                )
        if len(set(cyc)) != len(cyc):
            raise InvalidGeneratorError(f"invalid generator: repeated point in cycle {cyc}")
        # apply this cycle after the ones already absorbed
        step = list(range(degree))
        for i, c in enumerate(cyc):
            step[c] = cyc[(i + 1) % len(cyc)]
        images = [step[j] for j in images]
    return Permutation(images)
