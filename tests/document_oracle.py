"""A document writer, the inverse of ``galcov.config.parse_config``.

The library reads documents and never writes one; the tests write them to
check that parsing is exact (``parse_config(to_document(x))`` gives x back)
and to feed generated equation systems to the CLI.
"""

from __future__ import annotations

from galcov.config import ParsedInput, class_key_to_json, label_to_json
from galcov.cover import Coord


def to_document(parsed: ParsedInput) -> dict:
    """An equations document when ``parsed`` has equations, else a
    branch-data document of its cover."""
    if parsed.equations is not None:
        return {
            "mode": "equations",
            "equations": [
                {
                    "m": eq.m,
                    "factors": [
                        {"point": label_to_json(pt) if isinstance(pt, Coord) else "inf", "exp": e}
                        for pt, e in eq.rhs.factors
                    ],
                }
                for eq in parsed.equations.equations
            ],
        }
    cover = parsed.cover
    if cover.is_abelian:
        group = {"cyclic_orders": list(cover.group.cyclic_orders)}
    else:
        group = {
            "classes": [{"id": c.class_id, "order": c.order} for c in cover.group.classes],
            "order": cover.group.group_order,
            "u_table": {chi.name: dict(chi.u_values) for chi in cover.group.characters},
        }
    return {
        "mode": "branch-data",
        "base_genus": cover.base_genus,
        "group": group,
        "branch_points": [
            {"label": label_to_json(bp.label), "psi": class_key_to_json(bp.psi)} for bp in cover.branch_points
        ],
    }
