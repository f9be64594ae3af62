"""Reference answers that walk the group.

These are the routes the library took before it answered the same questions
per cyclic factor: a discrete log found by stepping through <sigma> one
element at a time with ``add``, and validity found by scanning every
character's t-invariant.  Their cost grows with |G|, so they serve only as oracles on
small groups: the library must give the same answers, ``None`` and the order
of the issues included.
"""

from __future__ import annotations

from galcov.cover import CoverSpec, ValidationIssue, ValidationReport
from galcov.groups import GroupElement, GroupSpec

from fraction_oracle import t_fraction


def add(group: GroupSpec, x: GroupElement, y: GroupElement) -> GroupElement:
    """x + y, factor by factor."""
    return GroupElement(
        tuple((a + b) % m for a, b, m in zip(x.exponents, y.exponents, group.cyclic_orders))
    )


def power_index(group: GroupSpec, base: GroupElement, target: GroupElement) -> int | None:
    """The first k in [0, o(base)) with base^k == target, or None."""
    current = group.identity
    for k in range(group.element_order(base)):
        if current == target:
            return k
        current = add(group, current, base)
    return None


def validate_by_scan(cover: CoverSpec) -> ValidationReport:
    """Every character's t, in character order: non-integral ones, and on a
    genus-0 base the nontrivial characters whose t vanishes."""
    issues = []
    for chi in cover.characters():
        t = t_fraction(cover, chi)
        if t.denominator != 1:
            issues.append(ValidationIssue("non-integral", chi, f"t = {t}"))
        elif cover.base_genus == 0 and t == 0 and not chi.is_trivial:
            issues.append(ValidationIssue("degenerate", chi))
    return ValidationReport(not issues, tuple(issues))
