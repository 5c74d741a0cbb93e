"""Exception types shared across the package, the JSON readers' type check,
and the one rule for a count argument."""

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


def _is_int(value) -> bool:
    """An ``int`` that is not a ``bool``: the only JSON or Python integer accepted."""
    return isinstance(value, int) and not isinstance(value, bool)


def json_checked(value, kind, what: str):
    """``value`` when it is a ``kind``; otherwise one :class:`DomainError`
    naming ``what``, the place in the JSON document it was read from."""
    if not (_is_int(value) if kind is int else isinstance(value, kind)):
        raise DomainError(f"{what} must be {_KINDS[kind]}, got {reprlib.repr(value)}")
    return value


def count_checked(value, what: str) -> int:
    """``value`` when it is a non-negative integer; otherwise one
    :class:`DomainError` naming ``what``, the argument it was passed as."""
    if not _is_int(value) or value < 0:
        raise DomainError(f"{what} must be a non-negative integer, got {value!r}")
    return value
