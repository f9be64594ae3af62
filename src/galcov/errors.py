"""Error types shared across the library, and the record and integer helpers.

Every error that can reach a user through the CLI derives from GalcovError
and carries a stable ``code`` identifier, so reports and exit codes stay
deterministic.  ``_record`` makes the library's value types frozen records
as ``dataclasses.dataclass(frozen=True)`` would, without importing
``dataclasses`` (and with it ``inspect``) on every CLI start.  Every layer
reads the integers a public constructor takes through ``_integer`` and
``_integers``: a float, a str or a Fraction raises a TypeError naming the
field, where ``int()`` would truncate it.
"""

from __future__ import annotations

from operator import index


class GalcovError(Exception):
    code = "error"


class ConfigError(GalcovError):
    """Malformed input document; ``path`` points at the offending field."""

    code = "config"

    def __init__(self, message, path=""):
        self.path = path
        super().__init__(f"{path}: {message}" if path else message)


class NonIntegralInvariant(GalcovError):
    """Some t-invariant is fractional: no cover with this branch data exists."""

    code = "non-integral-invariant"

    def __init__(self, character=None, detail=""):
        self.character = character
        msg = "branch data admits no cover"
        if character is not None:
            msg += f" (fractional invariant at character {character})"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class DegenerateCover(GalcovError):
    """A nontrivial character has vanishing t: the fibered product is reducible."""

    code = "degenerate-cover"

    def __init__(self, character):
        self.character = character
        super().__init__(f"degenerate cover: t vanishes at nontrivial character {character}")


class BranchedAtInfinity(GalcovError):
    code = "branched-at-infinity"


class NonInvariantInput(GalcovError):
    code = "non-invariant-input"


class UnsupportedBaseGenus(GalcovError):
    code = "unsupported-base-genus"


class NotAbelian(GalcovError):
    code = "not-abelian"


class SearchSpaceTooLarge(GalcovError):
    code = "search-space-too-large"

    def __init__(self, size, cap):
        self.size = size
        self.cap = cap
        super().__init__(f"enumeration of size {size} is above the cap {cap}")


class AdmissibilityViolation(GalcovError):
    code = "admissibility"

    def __init__(self, genus, q):
        super().__init__(
            f"(genus, q) = ({genus}, {q}) is outside the validity window "
            "(genus >= 2 with q >= 1, genus = 1 with any q, or genus = 0 with q <= 1)"
        )


class IdentityElement(GalcovError):
    code = "identity-element"


class NTableMismatch(GalcovError):
    code = "n-table-mismatch"


class NonIntegralDimension(GalcovError):
    code = "non-integral-dimension"


class InternalInconsistency(GalcovError):
    code = "internal-inconsistency"


def _record_repr(self):
    return f"{type(self).__qualname__}({', '.join(f'{n}={getattr(self, n)!r}' for n in self._fields)})"


def _frozen_setattr(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


def _record(cls):
    """A frozen record, as ``dataclass(frozen=True)`` makes it: the fields are
    the annotations, a base record's first, and ``_fields`` maps them to their
    types.  ``__init__`` (``__post_init__`` last), ``__eq__`` (same class,
    equal field tuples) and ``__hash__`` (of the field tuple) come from one
    ``exec``; ``__repr__`` and the frozen ``__setattr__`` and ``__delattr__``
    are shared.  A method the class defines itself is kept."""
    fields = cls._fields = {**getattr(cls, "_fields", {}), **vars(cls).get("__annotations__", {})}
    # object.__setattr__, not self.__dict__, keeps the attributes inline, where reads are fastest
    ns = {"_set": object.__setattr__, **{f"_d_{n}": getattr(cls, n) for n in fields if hasattr(cls, n)}}
    params = "".join(f", {n}=_d_{n}" if f"_d_{n}" in ns else f", {n}" for n in fields)
    values = "".join(f"self.{n}," for n in fields)
    exec(
        f"def __init__(self{params}):\n"
        + "".join(f" _set(self, {n!r}, {n})\n" for n in fields)
        + (" self.__post_init__()\n" if hasattr(cls, "__post_init__") else "")
        + "def __eq__(self, other):\n if other.__class__ is self.__class__:\n"
        + f"  return ({values}) == ({values.replace('self.', 'other.')})\n return NotImplemented\n"
        + f"def __hash__(self):\n return hash(({values}))\n",
        ns,
    )
    ns["__init__"].__annotations__ = {**fields, "return": None}
    methods = dict(ns, __repr__=_record_repr, __setattr__=_frozen_setattr, __delattr__=_frozen_delattr)
    for name in ("__init__", "__eq__", "__hash__", "__repr__", "__setattr__", "__delattr__"):
        if name not in vars(cls):
            setattr(cls, name, methods[name])
    return cls


def _integer(value, name: str) -> int:
    """``value`` as a plain int, through ``operator.index``; anything else
    raises TypeError naming ``name``."""
    try:
        return index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None


def _integers(values, name: str) -> tuple[int, ...]:
    """``values`` as a tuple of plain ints, by one C-level ``map(index, ...)``;
    on failure the first value that is no integer raises TypeError, named
    ``name`` and its position."""
    values = tuple(values)
    try:
        return tuple(map(index, values))
    except TypeError:
        return tuple([_integer(v, f"{name} {j}") for j, v in enumerate(values)])
