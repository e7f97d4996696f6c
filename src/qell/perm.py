"""Permutations of {0..n-1}: a permutation is its image tuple."""

from __future__ import annotations

import math

from .errors import InvalidGeneratorError


class Permutation(tuple):
    """A bijection of {0..n-1}; ``p[i]`` is the image of point i.

    A tuple of images, so it hashes, orders and compares equal as that
    tuple does, and a plain image tuple finds its entry in any dict keyed
    by permutations.  Composition is left-to-right application of the
    right factor first: ``(a * b)(x) == a(b(x))``.
    """

    __slots__ = ()

    def __new__(cls, images):
        images = tuple(int(i) for i in images)
        n = len(images)
        if sorted(images) != list(range(n)):
            raise InvalidGeneratorError(
                f"invalid generator: {images!r} is not a bijection of 0..{n - 1}"
            )
        return tuple.__new__(cls, images)

    @classmethod
    def _raw(cls, images: tuple) -> "Permutation":
        """Skip validation for images known to be a bijection."""
        return tuple.__new__(cls, images)

    @property
    def degree(self) -> int:
        return len(self)

    def __call__(self, point: int) -> int:
        return self[point]

    def __mul__(self, other: "Permutation") -> "Permutation":
        if len(self) != len(other):
            raise InvalidGeneratorError("degree mismatch in composition")
        return Permutation._raw(tuple(map(self.__getitem__, other)))

    def inverse(self) -> "Permutation":
        inv = [0] * len(self)
        for i, j in enumerate(self):
            inv[j] = i
        return Permutation._raw(tuple(inv))

    def __pow__(self, n: int) -> "Permutation":
        if n < 0:
            return self.inverse() ** (-n)
        result = Permutation._raw(tuple(range(len(self))))
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
        seen = [False] * len(self)
        out = []
        for start in range(len(self)):
            if seen[start]:
                continue
            cyc = [start]
            seen[start] = True
            j = self[start]
            while j != start:
                cyc.append(j)
                seen[j] = True
                j = self[j]
            if len(cyc) > 1:
                out.append(tuple(cyc))
        return out

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
