"""Shared fixture covers, randomized cover/divisor generators, and the
one-dimensional eigenvalue table of a character.

Random validated covers over the line are produced by drawing branch classes
and fixing the last one so the classes sum to zero (integrality of every
t-invariant), then rejecting draws whose classes fail to generate the group
(positivity at nontrivial characters).
"""

from __future__ import annotations

import random
from fractions import Fraction

from hypothesis import strategies as st

from galcov import (
    BranchPoint,
    ClassTable,
    Coord,
    CoverSpec,
    GroupSpec,
    InvariantDivisor,
    IrrepClassData,
    equation_system,
    build_cover,
    cover_from_class_table,
)

from group_walk_oracle import add


def pt(x, y=0):
    return Coord(Fraction(x), Fraction(y))


def hyperelliptic(num_points):
    return build_cover(
        equation_system([(2, [(pt(i), 1) for i in range(1, num_points + 1)])])
    )


def cyclic_cover(m, exponents):
    return build_cover(
        equation_system([(m, [(pt(i + 1), e) for i, e in enumerate(exponents)])])
    )


def klein_cover():
    return build_cover(
        equation_system(
            [
                (2, [(pt(1), 1), (pt(2), 1)]),
                (2, [(pt(3), 1), (pt(4), 1)]),
            ]
        )
    )


def genus1_fixtures():
    """The four cyclic genus-1 covers of the line with no branching at infinity."""
    return [
        hyperelliptic(4),
        cyclic_cover(3, [1, 1, 1]),
        cyclic_cover(4, [1, 1, 2]),
        cyclic_cover(6, [1, 2, 3]),
    ]


def mixed_z4_cover():
    # orders (4, 4, 2, 2): psi classes tau, tau, tau^2, tau^2
    return cyclic_cover(4, [1, 3, 2, 2])


# Z2 x Z2 as a class table over an elliptic curve, branched at two points of
# class a: genus 3.  chi_b is 1 on a, the only branch class, so its u-row is
# the trivial character's, and still it is not trivial: the +1 correction
# at q = 1 belongs to the trivial character alone.
Z2Z2_OVER_ELLIPTIC = {
    "mode": "branch-data",
    "base_genus": 1,
    "group": {
        "classes": [{"id": "a", "order": 2}, {"id": "b", "order": 2}, {"id": "ab", "order": 2}],
        "order": 4,
        "u_table": {
            "chi_a": {"a": 1, "b": 0, "ab": 1},
            "chi_b": {"a": 0, "b": 1, "ab": 1},
            "chi_ab": {"a": 1, "b": 1, "ab": 0},
        },
    },
    "branch_points": [{"label": "p", "psi": "a"}, {"label": "q", "psi": "a"}],
}


def fixture_covers():
    """Abelian genus-0-base covers exercised throughout the suite."""
    return [
        hyperelliptic(2),  # rational cover: genus 0
        hyperelliptic(4),
        hyperelliptic(6),
        hyperelliptic(8),
        cyclic_cover(3, [1, 1, 1]),
        cyclic_cover(3, [1, 1, 1, 1, 1, 1]),
        cyclic_cover(4, [1, 1, 2]),
        cyclic_cover(6, [1, 2, 3]),
        mixed_z4_cover(),
        klein_cover(),
        build_cover(
            equation_system(
                [
                    (2, [(pt(1), 1), (pt(2), 1)]),
                    (4, [(pt(3), 1), (pt(4), 2), (pt(5), 1)]),
                ]
            )
        ),
    ]


def random_validated_cover(rng: random.Random, max_order=36, max_points=8) -> CoverSpec:
    while True:
        orders = []
        prod = 1
        for _ in range(rng.randint(1, 3)):
            m = rng.choice([2, 2, 2, 3, 3, 4, 5, 6])
            if prod * m > max_order:
                break
            orders.append(m)
            prod *= m
        if not orders:
            continue
        group = GroupSpec(tuple(orders))
        count = rng.randint(2, max_points)
        classes = [
            group.element([rng.randrange(m) for m in group.cyclic_orders])
            for _ in range(count - 1)
        ]
        total = group.identity
        for x in classes:
            total = add(group, total, x)
        classes.append(group.element([-a for a in total.exponents]))
        classes = [x for x in classes if group.element_order(x) > 1]
        if not classes:
            continue
        cover = CoverSpec(
            0,
            group,
            tuple(
                BranchPoint(pt(j + 1), x) for j, x in enumerate(classes)
            ),
        )
        if cover.validate().ok:
            return cover


def irrep_of_character(cover: CoverSpec, chi) -> IrrepClassData:
    """A character as a one-dimensional eigenvalue table: one 1 per branch
    class, at alpha = u_{chi,C}, with the character attached."""
    rows = tuple(
        (cls.key, tuple(int(alpha == u) for alpha in range(cls.order)))
        for cls, u in zip(cover.branch_classes, cover.u_row(chi))
    )
    return IrrepClassData(1, rows, chi)


def random_divisor(rng: random.Random, cover: CoverSpec, p_range=(-3, 3)) -> InvariantDivisor:
    buckets = tuple(
        rng.randrange(cover.point_order(j)) for j in range(len(cover.branch_points))
    )
    return InvariantDivisor(cover, buckets, rng.randint(*p_range))


@st.composite
def covers(draw, max_order=36, max_points=8):
    seed = draw(st.integers(min_value=0, max_value=10**6))
    return random_validated_cover(random.Random(seed), max_order, max_points)


@st.composite
def covers_with_divisors(draw, max_order=24, max_points=6):
    seed = draw(st.integers(min_value=0, max_value=10**6))
    rng = random.Random(seed)
    cover = random_validated_cover(rng, max_order, max_points)
    return random_divisor(rng, cover)


@st.composite
def class_table_covers(draw):
    """A generic cover from a class table: class orders dividing the group
    order, branch counts, and u-rows that need not give integral t."""
    n = draw(st.sampled_from([2, 4, 6, 8, 12]))
    divisors = [d for d in range(2, n + 1) if n % d == 0]
    specs = draw(st.lists(st.tuples(st.sampled_from(divisors), st.integers(1, 4)), min_size=1, max_size=3))
    classes = [(f"c{k}", o, r) for k, (o, r) in enumerate(specs)]
    u_table = {
        f"x{k}": {cid: draw(st.integers(0, o - 1)) for cid, o, _ in classes}
        for k in range(draw(st.integers(1, 3)))
    }
    base_genus = draw(st.sampled_from([0, 1, 2]))
    return cover_from_class_table(base_genus, ClassTable.build(classes, n, u_table))
