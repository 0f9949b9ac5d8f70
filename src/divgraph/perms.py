"""Permutations of {1..d}: composition, powers, parity, cycle utilities.

Images are stored 0-based internally; all public cycle notation is 1-based.
Products compose left to right: (p * q) means "apply p, then q", so that
conjugation s**-1 * p * s relabels the points of p by s.
"""

from __future__ import annotations

from .errors import DegreeMismatch


class Permutation:
    """An immutable bijection of the points 1..d."""

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(images)  # a bool is no int entry: type() is exact
        if any(type(x) is not int for x in images) or sorted(images) != list(range(len(images))):
            raise ValueError(f"not a permutation of the ints 0..{len(images) - 1}: {images}")
        object.__setattr__(self, "images", images)

    def __setattr__(self, name, value):
        raise AttributeError("Permutation is immutable")

    @property
    def degree(self) -> int:
        return len(self.images)

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        return cls(range(degree))

    @classmethod
    def from_one_based(cls, images) -> "Permutation":
        """Build from a 1-based image list, e.g. [2, 1, 3] for (1 2)."""
        return cls(x - 1 if type(x) is int else x for x in images)  # __init__ refuses the rest

    @classmethod
    def from_cycles(cls, cycles, degree: int) -> "Permutation":
        """Build from 1-based cycles, e.g. [(1, 2, 3), (4, 5)]."""
        images = list(range(degree))
        for cycle in cycles:
            if any(type(p) is not int or not 1 <= p <= degree for p in cycle):
                raise ValueError(f"cycle point not an int in 1..{degree}: {cycle}")
            pts = [p - 1 for p in cycle]
            if len(set(pts)) != len(pts):
                raise ValueError(f"repeated point in cycle {cycle}")
            for a, b in zip(pts, pts[1:] + pts[:1]):
                if images[a] != a:
                    raise ValueError(f"point {a + 1} appears in two cycles")
                images[a] = b
        return cls(images)

    def __mul__(self, other: "Permutation") -> "Permutation":
        if self.degree != other.degree:
            raise DegreeMismatch(
                f"degree {self.degree} vs {other.degree}"
            )
        oi = other.images
        return Permutation(tuple(oi[i] for i in self.images))

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.images)
        for i, img in enumerate(self.images):
            inv[img] = i
        return Permutation(inv)

    def __pow__(self, k: int) -> "Permutation":
        base = self if k >= 0 else self.inverse()
        k = abs(k)
        result = Permutation.identity(self.degree)
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def apply(self, point: int) -> int:
        """Image of a 1-based point."""
        return self.images[point - 1] + 1

    def cycles(self, include_fixed: bool = False) -> list[tuple[int, ...]]:
        """Disjoint cycles as 1-based tuples, each starting at its minimum."""
        seen = [False] * self.degree
        out = []
        for start in range(self.degree):
            if seen[start]:
                continue
            cyc = [start]
            seen[start] = True
            p = self.images[start]
            while p != start:
                cyc.append(p)
                seen[p] = True
                p = self.images[p]
            if len(cyc) > 1 or include_fixed:
                out.append(tuple(x + 1 for x in cyc))
        return out

    def cycle_type(self) -> tuple[int, ...]:
        """Cycle lengths including fixed points as 1s, sorted descending."""
        lengths = [len(c) for c in self.cycles(include_fixed=True)]
        return tuple(sorted(lengths, reverse=True))

    def order(self) -> int:
        from math import lcm

        return lcm(*(len(c) for c in self.cycles(include_fixed=True)))

    def is_even(self) -> bool:
        return sum(len(c) - 1 for c in self.cycles()) % 2 == 0

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __str__(self) -> str:
        cycles = self.cycles()
        if not cycles:
            return "()"
        return "".join("(" + " ".join(str(p) for p in c) + ")" for c in cycles)

    def __repr__(self) -> str:
        return f"Permutation.from_one_based({[x + 1 for x in self.images]})"


def parity_of_type(t) -> int:
    """0 for even, 1 for odd, from a cycle type alone."""
    return sum(length - 1 for length in t) % 2
