"""Reference cardinality search for the two divisor families.

This is the unpruned search the library used before it learned to prune
inside a class: it walks every composition of each class's count into
o(C) parts, in lexicographic order, and checks the constraints only once a
class's composition is complete.  Its cost follows the number of
compositions, so it serves only as an oracle on small covers: the library
must return the same solutions, counts and streams, in the same order.
"""

from __future__ import annotations

import math
from itertools import combinations, product
from typing import Iterator

from galcov.enumeration import _constraints, _require_abelian_line


def compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All nonnegative integer vectors of the given length summing to total,
    in lexicographic order."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def cardinality_solutions(cover, family: str) -> Iterator[tuple[tuple[int, ...], ...]]:
    classes = cover.branch_classes
    targets, weights = _constraints(cover, family)
    # max further contribution to constraint k from classes c..end
    max_tail = [[0] * len(targets) for _ in range(len(classes) + 1)]
    for c in range(len(classes) - 1, -1, -1):
        for k in range(len(targets)):
            gain = classes[c].count if weights[k][c] > 0 else 0
            max_tail[c][k] = max_tail[c + 1][k] + gain

    def extend(c: int, partial: list[int], chosen: list[tuple[int, ...]]):
        if c == len(classes):
            if all(partial[k] == targets[k] for k in range(len(targets))):
                yield tuple(chosen)
            return
        cls = classes[c]
        for sizes in compositions(cls.count, cls.order):
            new_partial = list(partial)
            ok = True
            for k in range(len(targets)):
                new_partial[k] += sum(sizes[: weights[k][c]])
                if new_partial[k] > targets[k] or new_partial[k] + max_tail[c + 1][k] < targets[k]:
                    ok = False
                    break
            if ok:
                chosen.append(sizes)
                yield from extend(c + 1, new_partial, chosen)
                chosen.pop()

    yield from extend(0, [0] * len(targets), [])


def expand(cover, solution) -> Iterator[tuple[int, ...]]:
    """Concrete bucket tuples realizing the given per-class cardinalities."""
    classes = cover.branch_classes

    def assignments(points: tuple[int, ...], sizes: tuple[int, ...]):
        if not sizes:
            yield ()
            return
        remaining_sizes = sizes[1:]
        for chosen in combinations(points, sizes[0]):
            rest = tuple(j for j in points if j not in chosen)
            for tail in assignments(rest, remaining_sizes):
                yield tuple((j, 0) for j in chosen) + tuple((j, i + 1) for j, i in tail)

    per_class = [list(assignments(cls.points, sizes)) for cls, sizes in zip(classes, solution)]
    for combo in product(*per_class):
        buckets = [0] * len(cover.branch_points)
        for part in combo:
            for j, i in part:
                buckets[j] = i
        yield tuple(buckets)


def stream(cover, family: str) -> Iterator[tuple[int, ...]]:
    """Bucket tuples of the family, in the order the library streams them."""
    _require_abelian_line(cover)
    for solution in cardinality_solutions(cover, family):
        yield from expand(cover, solution)


def count_by_cardinality(cover, family: str) -> int:
    _require_abelian_line(cover)
    classes = cover.branch_classes
    total = 0
    for solution in cardinality_solutions(cover, family):
        ways = 1
        for cls, sizes in zip(classes, solution):
            remaining = cls.count
            for s in sizes:
                ways *= math.comb(remaining, s)
                remaining -= s
        total += ways
    return total
