"""Exception types shared across the package, and the JSON readers' type check."""

from __future__ import annotations

import reprlib


class CylError(Exception):
    """Base class for all package-specific errors."""


class DomainError(CylError):
    """A named vertex, edge, label, or index does not exist where required."""


class NotAPermutation(CylError):
    """The given images do not describe a bijection on {1..k}."""


class NotACylinder(CylError):
    """The two marked boundary lists are not isomorphic via the slotwise map."""


class EpsilonError(CylError):
    """The overlap relation between the boundary lists is inconsistent."""


class NotATwist(CylError):
    """A twisting permutation is not an automorphism of the boundary graph."""


class LabelConflict(CylError):
    """Gluing tried to identify two edges carrying different labels."""


class ResourceLimit(CylError):
    """A search or count exceeded its node/size budget."""


JSON_SCALAR = (str, int, float, bool, type(None))
_KINDS = {dict: "a JSON object", list: "a JSON list", int: "an integer", JSON_SCALAR: "a JSON scalar"}


def json_checked(value, kind, what: str):
    """``value`` when it is a ``kind``; otherwise one :class:`DomainError`
    naming ``what``, the place in the JSON document it was read from."""
    if not isinstance(value, kind):
        raise DomainError(f"{what} must be {_KINDS[kind]}, got {reprlib.repr(value)}")
    return value
