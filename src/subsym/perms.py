"""Point permutations on 0..degree-1.

Composition is left-to-right: (p * q) means apply p first, then q, matching
the exponent notation x^(pq) = (x^p)^q used throughout the group code.
"""

from __future__ import annotations

import functools
import operator
from typing import Iterable, Sequence


class PermError(ValueError):
    pass


@functools.cache
def _identity_images(degree: int) -> tuple[int, ...]:
    return tuple(range(degree))


class Perm:
    """An immutable permutation; ``images[x]`` is the image of x.

    The public constructor is the one gate: it normalises every image to a
    plain ``int`` and checks that the images are a bijection. Products,
    inverses and identities are bijections on plain ints by construction, so
    they go through ``_trusted`` and skip the check.
    """

    __slots__ = ("images",)

    def __init__(self, images: Sequence[int]):
        try:
            images = tuple(map(operator.index, images))
        except TypeError:
            raise PermError("images must be a sequence of integers") from None
        if sorted(images) != list(range(len(images))):
            raise PermError("images are not a bijection on 0..degree-1")
        self.images = images

    @classmethod
    def _trusted(cls, images: tuple[int, ...]) -> "Perm":
        """A Perm on images already known to be a bijection on plain ints."""
        p = object.__new__(cls)
        p.images = images
        return p

    @staticmethod
    def identity(degree: int) -> "Perm":
        return Perm._trusted(_identity_images(degree))

    @staticmethod
    def from_cycles(degree: int, cycles: Iterable[Sequence[int]]) -> "Perm":
        images = list(range(degree))
        for cycle in cycles:
            for a, b in zip(cycle, cycle[1:]):
                images[a] = b
            if cycle:
                images[cycle[-1]] = cycle[0]
        return Perm(images)

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, x: int) -> int:
        return self.images[x]

    def apply_tuple(self, xs: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(map(self.images.__getitem__, xs))

    def __mul__(self, other: "Perm") -> "Perm":
        if not isinstance(other, Perm):
            return NotImplemented
        p, q = self.images, other.images
        if len(p) != len(q):
            raise PermError(f"cannot compose degrees {len(p)} and {len(q)}")
        if len(p) < 2:  # itemgetter needs two indices to return a tuple
            return other
        return Perm._trusted(operator.itemgetter(*p)(q))

    def inverse(self) -> "Perm":
        inv = [0] * len(self.images)
        for i, j in enumerate(self.images):
            inv[j] = i
        return Perm._trusted(tuple(inv))

    def is_identity(self) -> bool:
        return self.images == _identity_images(len(self.images))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Perm):
            return NotImplemented
        return self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles, each rotated to start at its minimum."""
        seen = set()
        out = []
        for i in range(len(self.images)):
            if i in seen or self.images[i] == i:
                continue
            cyc = [i]
            j = self.images[i]
            while j != i:
                seen.add(j)
                cyc.append(j)
                j = self.images[j]
            out.append(tuple(cyc))
        return out

    def __repr__(self) -> str:
        cyc = self.cycles()
        if not cyc:
            return "Perm(id)"
        return "Perm(" + "".join("(" + " ".join(map(str, c)) + ")" for c in cyc) + ")"
