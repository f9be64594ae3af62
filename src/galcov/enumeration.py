"""Enumeration of the two distinguished families of invariant divisors on
abelian covers of the line.

The integral family consists of the non-special integral divisors of degree
equal to the genus (p = 0, and for every nontrivial character the buckets
below u_{chi,sigma} hold exactly t_chi - 1 values in total).  The second
family consists of the divisors of degree genus - 1 with no nonzero section
(p = -1 and the analogous sums equal t_chi for every character).

Both constraints depend only on the bucket cardinalities, so enumeration
first solves the integer cardinality system.  A brute-force filter over the
full assignment space doubles as the reference implementation.

The cardinality system.  A solution gives each branch class C a composition
|B_{C,0}|, ..., |B_{C,o(C)-1}| of its count; a constraint whose weight in C
is w = u_{chi,C} receives the prefix sum of the first w sizes, and the sums
over the classes must meet its target.  Constraints with equal weight rows
and targets are merged.  The search walks the classes in order and, inside
a class, the buckets in order, trying prefix sums in increasing order, so
solutions come out in lexicographic order.  Each constraint keeps a residual
target.  Once the prefix of weight w is complete, every constraint of weight
w in the class is checked once: the residual less the prefix must lie
between 0 and the most the later classes can still add, and becomes the new
residual.  On entering a class the prefixes are also capped by the smallest
residual among the constraints still to be checked in it.  A complete path
through a class thus costs O(order + constraints), and a composition that
breaks a bound is cut at the bucket where it does so.  The search still
walks dead ends where the bounds of single constraints hold but no later
class can meet them jointly.

Validity.  Over the line, the data is valid iff every t_chi is an integer
and every nontrivial t_chi is positive.  The system's set-up reads t_chi
off the u-table in ``characters()`` order, as ``validate``'s scan does, and
raises that scan's first error at the first row that fails, so the family
functions run ``validate`` only above ``DEFAULT_CAP``, where the u-table is
refused.  A stream builds its system when called; the oracle validates.

``count_by_cardinality`` runs the same search as a walk over states (class
index, residual targets), memoized, with each composition weighted by its
multinomial coefficient; it builds no solution list.  A stream walks the
search's solutions one at a time and expands each per class.  A class's
table of bucket rows is built for each solution, after one check of the
composition, which fixes the row length and bucket range
``InvariantDivisor`` checks; each row of it costs one C-level step, a tuple
join or an ``itemgetter`` call.  Each row of the tables' product, in index
order, becomes a divisor by ``InvariantDivisor._from_checked``, which checks
nothing.
"""

from __future__ import annotations

import math
from itertools import chain, combinations, product, repeat
from operator import itemgetter
from typing import Iterator

from .cover import BranchClass, CoverSpec
from .divisors import InvariantDivisor
from .errors import DegenerateCover, NotAbelian, SearchSpaceTooLarge, UnsupportedBaseGenus
from .groups import DEFAULT_CAP


def _require_abelian_line(cover: CoverSpec):
    if cover.base_genus != 0:
        raise UnsupportedBaseGenus("enumeration works over a genus-0 base")
    if not cover.is_abelian:
        raise NotAbelian("enumeration needs an abelian deck group")


def _constraints(cover: CoverSpec, family: str):
    """Per-character targets for the bucket-cardinality sums, one per row of
    the u-table.

    Returns (targets, weights) where, for constraint k, weights[k][c] is the
    number of low buckets of class c that count (namely u_{chi,sigma}), and
    the required equality is sum_c sum_{i < weights[k][c]} |B_{c,i}| ==
    targets[k].  The walk decides validity (see the module docstring).
    """
    if cover.group.order > DEFAULT_CAP:
        cover.validate().raise_for_status()
    targets = []
    weights = []
    for index, row in enumerate(cover.u_table()):
        t = cover._t_of_row(row, index)
        if not t and index:  # index 0 is the trivial character
            raise DegenerateCover(cover._character_at(index))
        if index or family == "gm1":  # the integral family leaves the trivial character free
            targets.append(t - 1 if family == "integral" else t)
            weights.append(row)
    return targets, weights


class _CardinalitySystem:
    """The cardinality system of one family, with equal constraints merged."""

    def __init__(self, cover: CoverSpec, family: str):
        self.classes = classes = cover.branch_classes
        targets, weights = _constraints(cover, family)
        merged = dict.fromkeys(zip(weights, targets))
        self.targets = [t for _, t in merged]
        rows = [w for w, _ in merged]
        # tail[c][k]: the most that classes c.. can still add to constraint k
        tail = [[0] * len(rows) for _ in range(len(classes) + 1)]
        for c in range(len(classes) - 1, -1, -1):
            for k, row in enumerate(rows):
                tail[c][k] = tail[c + 1][k] + (classes[c].count if row[c] else 0)
        self.feasible = all(0 <= t <= tail[0][k] for k, t in enumerate(self.targets))
        # checks[c][w]: (constraint, tail after class c) for each constraint of
        # weight w in class c; weight 0 adds nothing and needs no check there
        self.checks = []
        for c, cls in enumerate(classes):
            by_weight = [[] for _ in range(cls.order)]
            for k, row in enumerate(rows):
                if row[c]:
                    by_weight[row[c]].append((k, tail[c + 1][k]))
            self.checks.append(by_weight)

    def compositions(self, c: int, residual: list[int]) -> Iterator[tuple[int, ...]]:
        """The compositions of class c that pass its checks, in lexicographic
        order.  While one is yielded, ``residual`` holds the targets left for
        the later classes; it is restored when the walk ends."""
        n, order = self.classes[c].count, self.classes[c].order
        checks = self.checks[c]
        last = order - 1  # >= 1: branch classes are nontrivial
        # cap[w]: the most the prefix of length w may hold, since the prefix of
        # every weight >= w contains it
        cap = [n] * order
        for w in range(1, order):
            for k, _ in checks[w]:
                cap[w] = min(cap[w], residual[k])
        for w in range(order - 2, 0, -1):
            cap[w] = min(cap[w], cap[w + 1])

        sizes = [0] * order
        before = [0] * order  # prefix sum before bucket i
        current = [0] * order  # prefix sum through bucket i on this path
        top = [0] * order

        def enter(i: int, p: int):
            lo = p
            for k, t in checks[i + 1]:
                lo = max(lo, residual[k] - t)
            before[i], current[i], top[i] = p, lo, cap[i + 1]

        def retract(i: int):
            q = current[i]
            for k, _ in checks[i + 1]:
                residual[k] += q
            current[i] = q + 1

        i = 0
        enter(0, 0)
        while True:
            q = current[i]
            if q > top[i]:
                if i == 0:
                    return
                i -= 1
                retract(i)
                continue
            for k, _ in checks[i + 1]:
                residual[k] -= q
            sizes[i] = q - before[i]
            if i + 1 == last:
                sizes[last] = n - q
                yield tuple(sizes)
                retract(i)
            else:
                i += 1
                enter(i, q)

    def solutions(self) -> Iterator[tuple[tuple[int, ...], ...]]:
        """Per-class compositions of every solution, in lexicographic order."""
        if not self.feasible:
            return
        residual = list(self.targets)
        chosen: list[tuple[int, ...]] = []

        def extend(c: int):
            if c == len(self.classes):
                yield tuple(chosen)
                return
            for sizes in self.compositions(c, residual):
                chosen.append(sizes)
                yield from extend(c + 1)
                chosen.pop()

        yield from extend(0)

    def count(self) -> int:
        """Number of divisors realizing the solutions."""
        if not self.feasible:
            return 0
        residual = list(self.targets)
        memo: dict[tuple, int] = {}

        def completions(c: int) -> int:
            if c == len(self.classes):
                return 1
            key = (c, *residual)
            if key not in memo:
                memo[key] = sum(
                    _multinomial(sizes) * completions(c + 1)
                    for sizes in self.compositions(c, residual)
                )
            return memo[key]

        return completions(0)


def _multinomial(sizes: tuple[int, ...]) -> int:
    ways, total = 1, 0
    for s in sizes:
        if s:
            total += s
            ways *= math.comb(total, s)
    return ways


def _class_assignments(cls: BranchClass, sizes: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The bucket of each of a class's points, by position in the class, for
    every placement with the given bucket sizes: bucket 0's points are chosen
    first, in the order of ``combinations``, then bucket 1's among the rest,
    and so on.  Built up from the last two nonempty buckets: an earlier bucket
    choosing among f positions pads the rows so far with itself once, then
    maps one ``itemgetter`` per choice over them.

    ``InvariantDivisor`` checks each divisor's row length and bucket range;
    o(C) nonnegative sizes summing to r_C fix both for every row, so the
    composition is checked once instead."""
    if len(sizes) != cls.order or min(sizes) < 0 or sum(sizes) != cls.count:
        raise ValueError(f"a bucket row of class {cls.key} is not {cls.count} entries in [0, {cls.order})")
    # an empty bucket in front makes a lone nonempty bucket the last of a pair
    *head, (low, n_low), (last, free) = [(0, 0), *((i, s) for i, s in enumerate(sizes) if s)]
    free += n_low
    table = _two_bucket_rows(free, n_low, low, last)
    for bucket, size in reversed(head[1:]):
        padded = list(map((bucket,).__add__, table))
        free += size
        table = []
        for chosen in combinations(range(free), size):
            rank = iter(range(1, free))
            table.extend(map(itemgetter(*[0 if pos in chosen else next(rank) for pos in range(free)]), padded))
    return table


def _two_bucket_rows(n: int, k: int, low: int, last: int) -> list[tuple[int, ...]]:
    """The rows of n entries with ``low`` at k positions and ``last`` at the
    rest, in the ``combinations`` order of the low positions, which is the
    rows' lexicographic order since low < last.  Each row joins a prefix of
    n // 2 entries, in order, to a suffix table of the complementary weight
    shared by every prefix of that weight."""

    def rows(m: int, w: int) -> list[tuple[int, ...]]:
        out = []
        for chosen in combinations(range(m), w):
            row = [last] * m
            for pos in chosen:
                row[pos] = low
            out.append(tuple(row))
        return out

    h = n // 2
    weights = range(max(0, k - (n - h)), min(k, h) + 1)
    suffixes = {j: rows(n - h, k - j) for j in weights}
    table = []
    for prefix, j in sorted((prefix, j) for j in weights for prefix in rows(h, j)):
        table.extend(map(prefix.__add__, suffixes[j]))
    return table


def _iter_family(cover: CoverSpec, system: _CardinalitySystem, p: int) -> Iterator[InvariantDivisor]:
    classes = cover.branch_classes
    slots = [j for cls in classes for j in cls.points]  # the constructor's partition of the points
    # rows list the points class by class; put them back in index order
    reorder = None if slots == sorted(slots) else itemgetter(*sorted(range(len(slots)), key=slots.__getitem__))
    build = InvariantDivisor._from_checked
    for solution in system.solutions():
        tables = list(map(_class_assignments, classes, solution))
        rows = tables[0] if len(tables) == 1 else map(tuple, map(chain.from_iterable, product(*tables)))
        yield from map(build, repeat(cover), map(reorder, rows) if reorder else rows, repeat(p))


def iter_nonspecial_integral(cover: CoverSpec) -> Iterator[InvariantDivisor]:
    """Stream the non-special integral divisors of degree equal to the genus."""
    _require_abelian_line(cover)
    return _iter_family(cover, _CardinalitySystem(cover, "integral"), 0)


def iter_degree_gm1(cover: CoverSpec) -> Iterator[InvariantDivisor]:
    """Stream the degree genus-1 divisors with p = -1 and no nonzero section."""
    _require_abelian_line(cover)
    return _iter_family(cover, _CardinalitySystem(cover, "gm1"), -1)


def enumerate_nonspecial_integral(cover: CoverSpec) -> list[InvariantDivisor]:
    return sorted(iter_nonspecial_integral(cover), key=lambda d: d.buckets)


def enumerate_degree_gm1(cover: CoverSpec) -> list[InvariantDivisor]:
    return sorted(iter_degree_gm1(cover), key=lambda d: d.buckets)


def count_by_cardinality(cover: CoverSpec, family: str) -> int:
    """Number of divisors in the family, as a memoized sum of products of
    multinomial coefficients over the cardinality solutions; no divisor and
    no solution list is materialized.
    """
    if family not in ("integral", "gm1"):
        raise ValueError(f"unknown family {family!r}")
    _require_abelian_line(cover)
    return _CardinalitySystem(cover, family).count()


def search_space_size(cover: CoverSpec) -> int:
    return math.prod(cover.point_orders)


def brute_force_filter(
    cover: CoverSpec,
    p: int,
    degree_target: int,
    r_target: int,
    cap: int = DEFAULT_CAP,
) -> list[InvariantDivisor]:
    """Reference enumeration: scan every bucket assignment and keep those with
    the requested degree and total section dimension."""
    _require_abelian_line(cover)
    cover.validate().raise_for_status()
    size = search_space_size(cover)
    if size > cap:
        raise SearchSpaceTooLarge(size, cap)
    hits = []
    for buckets in product(*(range(o) for o in cover.point_orders)):
        div = InvariantDivisor(cover, buckets, p)
        if div.degree() == degree_target and div.r_total() == r_target:
            hits.append(div)
    return hits
