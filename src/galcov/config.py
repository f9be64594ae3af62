"""Input documents: JSON schema, exact parsing, and serialization.

Two input modes describe a cover:

* ``equations`` -- explicit root extractions over the line:
  ``{"mode": "equations", "equations": [{"m": 2, "factors":
  [{"point": [0, 0], "exp": 1}, ...]}]}``
* ``branch-data`` -- base genus, deck group, and labeled branch values:
  ``{"mode": "branch-data", "base_genus": 0, "group": {"cyclic_orders":
  [2, 2]}, "branch_points": [{"label": [1, 0], "psi": [1, 0]}, ...]}``

Rational numbers are integers or exact strings ``"a/b"``; coordinates are
``[re, im]`` pairs (a bare number is accepted as a real coordinate) and
``"inf"`` denotes the point at infinity in equation factors.  A generic
deck group is given as ``{"classes": [{"id": ..., "order": ...}], "order":
N, "u_table": {...}}``.  All parsing is exact and all serialization is
deterministic.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import TYPE_CHECKING, Any, Mapping

from .cover import BranchPoint, Coord, CoverSpec
from .errors import BranchedAtInfinity, ConfigError, _record
from .groups import ClassTable, Character, GroupElement, GroupSpec

if TYPE_CHECKING:
    from .equations import EquationSystem


@_record
class ParsedInput:
    cover: CoverSpec
    equations: EquationSystem | None


def _fail(message, path):
    raise ConfigError(message, path)


def _parse_rational(value, path) -> Fraction:
    if isinstance(value, bool):
        _fail("expected a rational number", path)
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            _fail(f"not an exact rational: {value!r}", path)
    _fail(f"rationals are integers or 'a/b' strings, got {value!r}", path)


def _parse_coord(value, path) -> Coord:
    if isinstance(value, (int, str)) and value != "inf":
        return Coord(_parse_rational(value, path))
    if isinstance(value, list):
        if len(value) != 2:
            _fail("coordinates are [re, im] pairs", path)
        return Coord(
            _parse_rational(value[0], f"{path}[0]"), _parse_rational(value[1], f"{path}[1]")
        )
    _fail(f"not a coordinate: {value!r}", path)


def _expect(document, key, types, path, default=_fail):
    if key not in document:
        if default is _fail:
            _fail(f"missing required field '{key}'", path)
        return default
    value = document[key]
    if not isinstance(value, types) or isinstance(value, bool):
        _fail(f"field '{key}' has the wrong type", f"{path}.{key}" if path else key)
    return value


def _parse_group(document, path):
    if not isinstance(document, dict):
        _fail("group must be an object", path)
    if "cyclic_orders" in document:
        orders = document["cyclic_orders"]
        if not isinstance(orders, list) or not all(
            isinstance(m, int) and not isinstance(m, bool) and m >= 1 for m in orders
        ):
            _fail("cyclic_orders must be a list of positive integers", f"{path}.cyclic_orders")
        return GroupSpec(tuple(orders))
    if "classes" in document:
        classes = document["classes"]
        order = _expect(document, "order", int, path)
        if not isinstance(classes, list):
            _fail("classes must be a list", f"{path}.classes")
        specs = []
        for k, rec in enumerate(classes):
            if not isinstance(rec, dict):
                _fail("class records are objects", f"{path}.classes[{k}]")
            cid = _expect(rec, "id", str, f"{path}.classes[{k}]")
            o = _expect(rec, "order", int, f"{path}.classes[{k}]")
            specs.append((cid, o))
        u_table = document.get("u_table") or {}
        if not isinstance(u_table, dict):
            _fail("u_table must map character names to class rows", f"{path}.u_table")
        for name, row in u_table.items():
            if not isinstance(row, dict) or not all(
                isinstance(u, int) and not isinstance(u, bool) for u in row.values()
            ):
                _fail("a u_table row maps class ids to integers", f"{path}.u_table.{name}")
        try:
            return ClassTable.build(specs, order, u_table)
        except ValueError as exc:
            _fail(str(exc), path)
    _fail("group needs either 'cyclic_orders' or 'classes'", path)


def parse_config(document: Mapping[str, Any] | str) -> ParsedInput:
    """Validate a configuration document and build the model objects."""
    if isinstance(document, str):
        try:
            document = json.loads(document)
        except json.JSONDecodeError as exc:
            _fail(f"invalid JSON: {exc}", "")
    if not isinstance(document, dict):
        _fail("the document must be a JSON object", "")
    mode = _expect(document, "mode", str, "")
    if mode == "equations":
        return _parse_equations_mode(document)
    if mode == "branch-data":
        return _parse_branch_mode(document)
    _fail(f"mode must be 'equations' or 'branch-data', got {mode!r}", "mode")


def _parse_equations_mode(document) -> ParsedInput:
    # only equations documents load the equations layer
    from .equations import INF, Equation, EquationSystem, FactoredRational, build_cover

    eq_docs = _expect(document, "equations", list, "")
    equations = []
    for l, eq in enumerate(eq_docs):
        path = f"equations[{l}]"
        if not isinstance(eq, dict):
            _fail("equations are objects", path)
        m = _expect(eq, "m", int, path)
        factor_docs = _expect(eq, "factors", list, path)
        factors = []
        for k, fac in enumerate(factor_docs):
            fpath = f"{path}.factors[{k}]"
            if not isinstance(fac, dict):
                _fail("factors are objects", fpath)
            raw_point = fac.get("point")
            point = INF if raw_point == "inf" else _parse_coord(raw_point, f"{fpath}.point")
            exp = _expect(fac, "exp", int, fpath)
            factors.append((point, exp))
        try:
            equations.append(Equation(m, FactoredRational(tuple(factors))))
        except ValueError as exc:
            _fail(str(exc), path)
    try:
        system = EquationSystem(tuple(equations))
        cover = build_cover(system)
    except ValueError as exc:
        _fail(str(exc), "equations")
    return ParsedInput(cover, system)


def _parse_branch_mode(document) -> ParsedInput:
    base_genus = _expect(document, "base_genus", int, "")
    group = _parse_group(_expect(document, "group", dict, ""), "group")
    abelian = isinstance(group, GroupSpec)
    points = []
    point_docs = document.get("branch_points") or []
    if not isinstance(point_docs, list):
        _fail("branch_points must be a list", "branch_points")
    for k, bp in enumerate(point_docs):
        path = f"branch_points[{k}]"
        if not isinstance(bp, dict):
            _fail("branch points are objects", path)
        raw_label = bp.get("label")
        if raw_label == "inf":
            raise BranchedAtInfinity("the normalization point cannot be a branch value")
        if base_genus == 0:
            label = _parse_coord(raw_label, f"{path}.label")
        elif isinstance(raw_label, str):
            label = raw_label
        else:
            label = str(_parse_coord(raw_label, f"{path}.label"))
        psi = bp.get("psi")
        if abelian:
            if not isinstance(psi, list) or not all(
                isinstance(a, int) and not isinstance(a, bool) for a in psi
            ):
                _fail("psi must be an exponent list for abelian groups", f"{path}.psi")
            try:
                psi = group.element(psi)
            except ValueError as exc:
                _fail(str(exc), f"{path}.psi")
        elif not isinstance(psi, str):
            _fail("psi must be a class id for generic groups", f"{path}.psi")
        points.append(BranchPoint(label, psi))
    try:
        cover = CoverSpec(base_genus, group, tuple(points))
    except ValueError as exc:
        _fail(str(exc), "branch_points")
    if not abelian:
        # every formula reads each character on every branch class
        for chi in group.characters:
            known = dict(chi.u_values)
            missing = next((c.key for c in cover.branch_classes if c.key not in known), None)
            if missing is not None:
                _fail(f"no value on branch class {missing!r}", f"group.u_table.{chi.name}")
    return ParsedInput(cover, None)


# -- serialization ------------------------------------------------------------


def rational_to_json(x: Fraction):
    return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def label_to_json(label):
    if isinstance(label, Coord):
        return [rational_to_json(label.re), rational_to_json(label.im)]
    return label


def character_to_json(chi):
    if isinstance(chi, Character):
        return list(chi.exponents)
    return chi.name


def class_key_to_json(key):
    if isinstance(key, GroupElement):
        return list(key.exponents)
    return key


def to_document(parsed: ParsedInput) -> dict:
    """Serialize back to a document; parse(to_document(x)) reproduces x."""
    if parsed.equations is not None:
        return {
            "mode": "equations",
            "equations": [
                {
                    "m": eq.m,
                    "factors": [
                        {
                            "point": "inf" if not isinstance(pt, Coord) else label_to_json(pt),
                            "exp": e,
                        }
                        for pt, e in eq.rhs.factors
                    ],
                }
                for eq in parsed.equations.equations
            ],
        }
    cover = parsed.cover
    if cover.is_abelian:
        group_doc = {"cyclic_orders": list(cover.group.cyclic_orders)}
    else:
        group_doc = {
            "classes": [{"id": c.class_id, "order": c.order} for c in cover.group.classes],
            "order": cover.group.group_order,
            "u_table": {
                chi.name: {cid: u for cid, u in chi.u_values} for chi in cover.group.characters
            },
        }
    return {
        "mode": "branch-data",
        "base_genus": cover.base_genus,
        "group": group_doc,
        "branch_points": [
            {"label": label_to_json(bp.label), "psi": class_key_to_json(bp.psi)}
            for bp in cover.branch_points
        ],
    }
