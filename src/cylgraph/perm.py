"""Permutations of {1..k} and the finite groups they generate.

A :class:`Perm` is the tuple of its images, ``p(i) == p[i - 1]``, 1-based
throughout: it equals, hashes and sorts as that tuple, so ``Perm((2, 1)) ==
(2, 1)`` and ``json.dumps`` writes it as a list.  ``compose(g, h)`` applies
``h`` first, then ``g``.  Length-k tuples are acted on from the right by slot
lookup,

    g.act(x)[i] = x[g(i)]

so that ``h.act(g.act(x)) == compose(g, h).act(x)``.
"""

from __future__ import annotations

import itertools
import sys
from collections.abc import Iterable, Sequence
from functools import lru_cache

from .errors import NotAPermutation, ResourceLimit, _is_int, count_checked, json_checked


class Perm(tuple):
    __slots__ = ()

    def __new__(cls, images: Iterable[int]):
        try:
            images = tuple(images)
        except TypeError:
            raise NotAPermutation(f"images must be a list of integers, got {images!r}") from None
        if not all(map(_is_int, images)):
            raise NotAPermutation(f"images must be a list of integers, got {list(images)!r}")
        k = len(images)
        if sorted(images) != list(range(1, k + 1)):
            raise NotAPermutation(f"not a bijection on 1..{k}: {images!r}")
        return tuple.__new__(cls, images)

    @property
    def degree(self) -> int:
        return len(self)

    def __call__(self, i: int) -> int:
        if not 1 <= i <= len(self):
            raise NotAPermutation(f"point {i} out of range 1..{len(self)}")
        return self[i - 1]

    def act(self, x: Sequence) -> tuple:
        """Right action on a length-k sequence: result[i] = x[self(i)]."""
        if len(x) != len(self):
            raise NotAPermutation(f"cannot act on length-{len(x)} sequence with degree-{self.degree} permutation")
        return tuple(x[j - 1] for j in self)

    def inverse(self) -> Perm:
        return _inverse(self)

    def __mul__(self, other: Perm) -> Perm:
        return compose(self, other)

    def is_identity(self) -> bool:
        return all(j == i for i, j in enumerate(self, start=1))

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles, each starting at its smallest point."""
        seen: set[int] = set()
        out = []
        for start in range(1, len(self) + 1):
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
        if count_checked(k, "k=") > sys.maxsize:  # checked before a tuple of k images is asked for
            raise ResourceLimit(f"degree {k} is more points than a permutation can hold (at most {sys.maxsize})")
        return cls(range(1, k + 1))

    @classmethod
    def from_cycles(cls, k: int, *cycles: Sequence[int]) -> Perm:
        images = list(cls.identity(k))
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


# the checks in ``Perm.__new__`` hold by construction for these results
@lru_cache(maxsize=65536)
def _inverse(p: Perm) -> Perm:
    inv = [0] * len(p)
    for i, j in enumerate(p, start=1):
        inv[j - 1] = i
    return tuple.__new__(Perm, inv)


@lru_cache(maxsize=65536)
def _compose(g: Perm, h: Perm) -> Perm:
    return tuple.__new__(Perm, [g[j - 1] for j in h])


def compose(g: Perm, h: Perm) -> Perm:
    """g after h: compose(g, h)(i) == g(h(i))."""
    if not (isinstance(g, Perm) and isinstance(h, Perm)):  # a plain tuple is no checked bijection
        raise NotAPermutation(f"compose takes two Perms, got {g!r} and {h!r}")
    if len(g) != len(h):
        raise NotAPermutation(f"degree mismatch: {g.degree} vs {h.degree}")
    return _compose(g, h)


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
        if bad := [h for h in gens if _perm_checked(h, "generator").degree != k]:
            raise NotAPermutation(f"generator degree {bad[0].degree} != group degree {k}")
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
        rot = Perm.from_cycles(k, range(1, k + 1))
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
            "generators": [list(g) for g in (self.generators or self.elements)],
        }

    @classmethod
    def from_json(cls, data: dict) -> PermGroup:
        k = json_checked(json_checked(data, dict, "group").get("degree"), int, "group 'degree'")
        gens = json_checked(data.get("generators", []), list, "group 'generators'")
        return cls.generated(k, [Perm(images) for images in gens])
