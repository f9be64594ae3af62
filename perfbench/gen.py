"""Seeded input generation.

Every input is plain data (``BranchData``): base genus, cyclic orders, point
labels and one exponent vector per branch value.  A *shape* fixes the group,
the number of points and the order of each class; each pass of a run draws
fresh branch data of the same shape from ``pass_rng(seed, workload, k)``, so
equal seeds give equal inputs and no cache keyed on inputs carries from one
pass to the next.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction

import ref


@dataclass(frozen=True)
class BranchData:
    base_genus: int
    orders: tuple[int, ...]
    labels: tuple[Fraction, ...]
    psis: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class Shape:
    """Group, class orders and the number of points sharing each class."""

    name: str
    orders: tuple[int, ...]
    class_orders: tuple[int, ...]
    counts: tuple[int, ...] | None = None


def pass_rng(seed: int, workload: str, k: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{k}")


def labels(rng: random.Random, k: int) -> tuple[Fraction, ...]:
    out: set[Fraction] = set()
    while len(out) < k:
        out.add(Fraction(rng.randrange(-999, 1000), rng.randrange(1, 8)))
    return tuple(sorted(out))


def element_of_order(rng, orders, o, tries=10_000):
    for _ in range(tries):
        x = tuple(rng.randrange(m) for m in orders)
        if ref.element_order(orders, x) == o:
            return x
    raise RuntimeError(f"no element of order {o} found in {orders}")


def draw(rng: random.Random, shape: Shape, tries=10_000) -> BranchData:
    """Branch data of the given shape over the line: distinct classes, summing
    to zero and generating the group.  Distinct classes keep the number of
    branch classes, which the per-class loops depend on, the same in every
    draw.  A last class carried by one point is solved for; otherwise draws
    are rejected until the classes sum to zero."""
    orders, class_orders = shape.orders, shape.class_orders
    counts = shape.counts or (1,) * len(class_orders)
    for _ in range(tries):
        xs = [element_of_order(rng, orders, o) for o in class_orders[:-1]]
        if counts[-1] == 1 and xs:
            xs.append(tuple(-sum(c * x[i] for c, x in zip(counts, xs)) % m for i, m in enumerate(orders)))
        else:
            xs.append(element_of_order(rng, orders, class_orders[-1]))
        psis = tuple(x for x, c in zip(xs, counts) for _ in range(c))
        bd = BranchData(0, orders, labels(rng, len(psis)), psis)
        if len(set(xs)) == len(xs) and ref.element_order(orders, xs[-1]) == class_orders[-1] and ref.is_valid(bd):
            return bd
    raise RuntimeError(f"no valid branch data of shape {shape.name}")


# every group with one to three cyclic factors of order 2..6 and |G| <= 36
SMALL_GROUPS = tuple(
    o for r in (1, 2, 3) for o in itertools.combinations_with_replacement(range(2, 7), r) if math.prod(o) <= 36
)


def small_slots(n: int):
    """Group and point count of each cover of a random-divisors pass.  They
    are fixed, so every pass, whatever the seed, spreads over the same sizes.
    Rank + 1 points is the fewest that can generate the group, and Z_2 needs
    an even number."""
    slots = []
    for j, orders in zip(range(n), itertools.cycle(SMALL_GROUPS)):
        points = len(orders) + 1 + j % (8 - len(orders))
        slots.append((orders, points + (orders == (2,) and points % 2)))
    return slots


def random_small(rng: random.Random, orders, points) -> BranchData:
    """Random valid branch data over the line: ``points`` nontrivial classes
    of G summing to zero and generating G."""
    for _ in range(10_000):
        xs = [tuple(rng.randrange(m) for m in orders) for _ in range(points - 1)]
        xs.append(tuple(-sum(col) % m for col, m in zip(zip(*xs), orders)))
        if all(any(x) for x in xs):
            bd = BranchData(0, orders, labels(rng, points), tuple(xs))
            if ref.is_valid(bd):
                return bd
    raise RuntimeError(f"no valid branch data for {orders} on {points} points")


def random_divisor(rng: random.Random, bd: BranchData):
    buckets = tuple(rng.randrange(ref.element_order(bd.orders, x)) for x in bd.psis)
    return buckets, rng.randint(-3, 3)


# -- galcov objects and documents ---------------------------------------------------


def to_cover(galcov, bd: BranchData):
    group = galcov.GroupSpec(bd.orders)
    points = tuple(
        galcov.BranchPoint(galcov.Coord(lab), group.element(x)) for lab, x in zip(bd.labels, bd.psis)
    )
    return galcov.CoverSpec(bd.base_genus, group, points)


def _rational(x: Fraction):
    return x.numerator if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def branch_document(bd: BranchData) -> dict:
    return {
        "mode": "branch-data",
        "base_genus": bd.base_genus,
        "group": {"cyclic_orders": list(bd.orders)},
        "branch_points": [
            {"label": [_rational(lab), 0], "psi": list(x)} for lab, x in zip(bd.labels, bd.psis)
        ],
    }


def equations_document(bd: BranchData) -> dict:
    """One root extraction per cyclic factor; the classes sum to zero, so no
    equation branches at infinity."""
    return {
        "mode": "equations",
        "equations": [
            {
                "m": m,
                "factors": [
                    {"point": [_rational(lab), 0], "exp": x[l]}
                    for lab, x in zip(bd.labels, bd.psis)
                    if x[l]
                ],
            }
            for l, m in enumerate(bd.orders)
        ],
    }


def branch_data_of_document(doc: dict) -> BranchData:
    """Branch data of an abelian document, read without galcov."""
    if doc["mode"] == "branch-data":
        orders = tuple(doc["group"]["cyclic_orders"])
        pts = [
            (Fraction(bp["label"][0]), tuple(a % m for a, m in zip(bp["psi"], orders)))
            for bp in doc.get("branch_points", [])
        ]
        return BranchData(doc["base_genus"], orders, tuple(p for p, _ in pts), tuple(x for _, x in pts))
    orders = tuple(eq["m"] for eq in doc["equations"])
    exps: dict[tuple, list[int]] = {}
    for l, eq in enumerate(doc["equations"]):
        for fac in eq["factors"]:
            key = tuple(Fraction(v) for v in fac["point"])
            exps.setdefault(key, [0] * len(orders))[l] = fac["exp"] % orders[l]
    pts = sorted((k, tuple(v)) for k, v in exps.items() if any(v))
    return BranchData(0, orders, tuple(k[0] for k, _ in pts), tuple(x for _, x in pts))


# -- the generic S3 document --------------------------------------------------------

S3_DOCUMENT = {
    "mode": "branch-data",
    "base_genus": 0,
    "group": {
        "classes": [{"id": "t", "order": 2}, {"id": "r", "order": 3}],
        "order": 6,
        "u_table": {"sgn": {"t": 1, "r": 0}},
    },
    "branch_points": [{"label": [k, 0], "psi": "t"} for k in range(1, 5)],
}

S3_IRREPS = {
    "irreps": [
        {"name": "triv", "dim": 1, "classes": {"t": [1, 0], "r": [1, 0, 0]}},
        {"name": "sgn", "dim": 1, "classes": {"t": [0, 1], "r": [1, 0, 0]}},
        {"name": "std", "dim": 2, "classes": {"t": [1, 1], "r": [0, 1, 1]}},
    ]
}


def dump(doc) -> str:
    return json.dumps(doc, sort_keys=True)
