"""Permutations of {1..k} and the finite groups they generate.

A permutation is stored as its tuple of images: ``p(i) == images[i - 1]``,
1-based throughout.  ``compose(g, h)`` applies ``h`` first, then ``g``.
Length-k tuples are acted on from the right by slot lookup,

    g.act(x)[i] = x[g(i)]

so that ``h.act(g.act(x)) == compose(g, h).act(x)``.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Sequence
from functools import lru_cache

from .errors import NotAPermutation, ResourceLimit, _is_int, count_checked, json_checked


class Perm:
    __slots__ = ("images",)

    def __init__(self, images: Iterable[int]):
        try:
            images = tuple(images)
        except TypeError:
            raise NotAPermutation(f"images must be a list of integers, got {images!r}") from None
        if not all(map(_is_int, images)):
            raise NotAPermutation(f"images must be a list of integers, got {list(images)!r}")
        k = len(images)
        if sorted(images) != list(range(1, k + 1)):
            raise NotAPermutation(f"not a bijection on 1..{k}: {images!r}")
        self.images = images

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        if not 1 <= i <= len(self.images):
            raise NotAPermutation(f"point {i} out of range 1..{len(self.images)}")
        return self.images[i - 1]

    def act(self, x: Sequence) -> tuple:
        """Right action on a length-k sequence: result[i] = x[self(i)]."""
        if len(x) != len(self.images):
            raise NotAPermutation(f"cannot act on length-{len(x)} sequence with degree-{self.degree} permutation")
        return tuple(x[j - 1] for j in self.images)

    @classmethod
    def _wrap(cls, images: tuple) -> Perm:
        """Adopt an already-validated image tuple without rechecking it."""
        p = object.__new__(cls)
        p.images = images
        return p

    def inverse(self) -> Perm:
        return Perm._wrap(_inv_images(self.images))

    def __mul__(self, other: Perm) -> Perm:
        return compose(self, other)

    def __eq__(self, other) -> bool:
        return isinstance(other, Perm) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __lt__(self, other: Perm) -> bool:
        return self.images < other.images

    def is_identity(self) -> bool:
        return all(j == i for i, j in enumerate(self.images, start=1))

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles, each starting at its smallest point."""
        seen: set[int] = set()
        out = []
        for start in range(1, len(self.images) + 1):
            if start in seen:
                continue
            cyc = [start]
            seen.add(start)
            j = self(start)
            while j != start:
                cyc.append(j)
                seen.add(j)
                j = self(j)
            if len(cyc) > 1:
                out.append(tuple(cyc))
        return out

    def __repr__(self) -> str:
        cycs = self.cycles()
        if not cycs:
            return f"Perm.identity({self.degree})"
        body = " ".join("(" + " ".join(map(str, c)) + ")" for c in cycs)
        return f"Perm[{self.degree}: {body}]"

    @classmethod
    def identity(cls, k: int) -> Perm:
        return cls(range(1, count_checked(k, "k=") + 1))

    @classmethod
    def from_cycles(cls, k: int, *cycles: Sequence[int]) -> Perm:
        images = list(range(1, count_checked(k, "k=") + 1))
        for cyc in cycles:
            try:
                points = tuple(cyc)
            except TypeError:
                points = ()
            if not points:
                raise NotAPermutation(f"a cycle must be a non-empty sequence of points, got {cyc!r}")
            for a, b in zip(points, points[1:] + points[:1]):
                if not (_is_int(a) and 1 <= a <= k):
                    raise NotAPermutation(f"cycle point {a!r} out of range 1..{k}")
                images[a - 1] = b
        return cls(images)


@lru_cache(maxsize=65536)
def _inv_images(images: tuple) -> tuple:
    inv = [0] * len(images)
    for i, j in enumerate(images, start=1):
        inv[j - 1] = i
    return tuple(inv)


@lru_cache(maxsize=65536)
def _mul_images(a: tuple, b: tuple) -> tuple:
    return tuple(a[j - 1] for j in b)


def compose(g: Perm, h: Perm) -> Perm:
    """g after h: compose(g, h)(i) == g(h(i))."""
    if g.degree != h.degree:
        raise NotAPermutation(f"degree mismatch: {g.degree} vs {h.degree}")
    return Perm._wrap(_mul_images(g.images, h.images))


def _perm_checked(value, what: str) -> Perm:
    """``value`` when it is a :class:`Perm`; otherwise one :class:`NotAPermutation` naming ``what``."""
    if not isinstance(value, Perm):
        raise NotAPermutation(f"{what} must be a Perm, got {value!r}")
    return value


class PermGroup:
    """A concrete group of degree-k permutations, stored as its full element list.

    Build with :meth:`generated` (BFS closure over generators) or one of the
    named constructors.  Elements are kept sorted by image tuple, which puts
    the identity first.  ``generators`` is set only by :meth:`generated` and
    :meth:`symmetric`, which know that it generates the elements; a group built
    from its element list has none.  Checks of a property closed under
    composition test the generators, or every element when there are none.
    """

    __slots__ = ("degree", "elements", "generators", "_members")

    def __init__(self, degree: int, elements: Iterable[Perm]):
        self.degree = degree
        self.elements: tuple[Perm, ...] = tuple(sorted(set(elements)))
        self.generators: tuple[Perm, ...] = ()
        self._members = frozenset(self.elements)
        if not self.elements or not self.elements[0].is_identity():
            raise NotAPermutation("group must contain the identity")
        for g in self.elements:
            if g.degree != degree:
                raise NotAPermutation(f"element degree {g.degree} != group degree {degree}")

    @classmethod
    def generated(cls, k: int, gens: Iterable[Perm], limit: int = 1_000_000) -> PermGroup:
        gens = tuple(gens)
        found = {Perm.identity(k)}
        count_checked(limit, "limit=")
        frontier = list(found)
        while frontier:
            nxt = []
            for g in frontier:
                for h in gens:
                    gh = compose(g, h)
                    if gh not in found:
                        found.add(gh)
                        nxt.append(gh)
                        if len(found) > limit:
                            raise ResourceLimit(f"group closure exceeded {limit} elements")
            frontier = nxt
        group = cls(k, found)
        group.generators = gens
        return group

    @classmethod
    def trivial(cls, k: int) -> PermGroup:
        return cls(k, [Perm.identity(k)])

    @classmethod
    def symmetric(cls, k: int, limit: int = 1_000_000) -> PermGroup:
        k, limit = count_checked(k, "k="), count_checked(limit, "limit=")
        size = 1
        for i in range(2, k + 1):
            size *= i  # stop at the limit: a large k! is slow to build and too long to print
            if size > limit:
                raise ResourceLimit(f"symmetric group of degree {k} has more than {limit} elements")
        elems = [Perm(p) for p in itertools.permutations(range(1, k + 1))]
        gens = []
        if k >= 2:
            gens.append(Perm.from_cycles(k, (1, 2)))
        if k >= 3:
            gens.append(Perm.from_cycles(k, tuple(range(1, k + 1))))
        group = cls(k, elems)
        group.generators = tuple(gens)
        return group

    @classmethod
    def cyclic(cls, k: int) -> PermGroup:
        if count_checked(k, "k=") == 0:
            return cls.trivial(0)
        rot = Perm.from_cycles(k, tuple(range(1, k + 1)))
        return cls.generated(k, [rot])

    def __contains__(self, g: Perm) -> bool:
        return isinstance(g, Perm) and g in self._members

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PermGroup)
            and self.degree == other.degree
            and self.elements == other.elements
        )

    def __hash__(self) -> int:
        return hash((self.degree, self.elements))

    def __repr__(self) -> str:
        return f"PermGroup(degree={self.degree}, order={len(self.elements)})"

    def to_json(self) -> dict:
        return {
            "degree": self.degree,
            "generators": [list(g.images) for g in (self.generators or self.elements)],
        }

    @classmethod
    def from_json(cls, data: dict) -> PermGroup:
        k = json_checked(json_checked(data, dict, "group").get("degree"), int, "group 'degree'")
        gens = json_checked(data.get("generators", []), list, "group 'generators'")
        return cls.generated(k, [Perm(images) for images in gens])
