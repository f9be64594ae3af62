"""The per-character routes the library took before it read u-rows.

Each public per-character question now checks its argument once and then
does arithmetic on the character's u-row.  The earlier routes stay here as
oracles: a cyclic quotient built as a ``CoverSpec`` of its own, the quotient
group G / <generators> and its projection from a general Smith normal form
(``quotient_group`` over ``smith_diagonal``, which ``CoverSpec.validate``
used before it read generation off a triangular basis of the relations),
the quotient cover by any subgroup built from them,
an orbit's rational irreducible built from its representative, a trace's
fixed-point terms from the checked discrete log ``power_index``, the
Jacobian columns from ``cw_multiplicity`` of each character and of its
``conjugate_character``, and the eigendivisors of h_chi and
of the q-differential generators read class by class through dicts, with
conj chi's row from ``conjugate_character``.
"""

from __future__ import annotations

from typing import Sequence

from galcov.cover import BranchPoint, CoverSpec
from galcov.differentials import FixedPointTerm, cw_multiplicity
from galcov.groups import Character, CharacterOrbit, GroupElement, GroupSpec, _of_kind
from galcov.jacobian import RationalIrrepData


def cyclic_quotient(cover: CoverSpec, chi: Character, e: int) -> CoverSpec:
    """The quotient cover by the kernel of chi, a character of order e.

    chi maps the deck group onto Z_e, sending a class x to e * u_{chi,x} / o(x);
    branch values whose class dies are dropped.
    """
    group = GroupSpec((e,))
    image = {
        cls.key: group.element([e * u // cls.order])
        for cls, u in zip(cover.branch_classes, cover.u_row(chi))
    }
    points = tuple(
        BranchPoint(bp.label, image[bp.psi])
        for bp in cover.branch_points
        if any(image[bp.psi].exponents)
    )
    return CoverSpec(cover.base_genus, group, points)


# -- integer Smith normal form (row transform tracked) -----------------------


def smith_diagonal(matrix: Sequence[Sequence[int]]) -> tuple[list[int], list[list[int]]]:
    """Elementary divisors of an integer matrix, plus the row transform.

    Returns ``(diag, U)`` where U is unimodular and U @ matrix can be brought
    to diag(diag) by column operations alone; diag entries are nonnegative
    with each dividing the next.  Only the row transform is tracked because
    column operations do not change the column span.
    """
    a = [list(int(x) for x in row) for row in matrix]
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    u = [[int(i == j) for j in range(nrows)] for i in range(nrows)]

    def add_row(dst, src, k):
        a[dst] = [x + k * y for x, y in zip(a[dst], a[src])]
        u[dst] = [x + k * y for x, y in zip(u[dst], u[src])]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]

    def add_col(dst, src, k):
        for row in a:
            row[dst] += k * row[src]

    t = 0
    while t < min(nrows, ncols):
        pivot = None
        for i in range(t, nrows):
            for j in range(t, ncols):
                if a[i][j] and (pivot is None or abs(a[i][j]) < abs(a[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        while True:
            if a[t][t] < 0:
                negate_row(t)
            dirty = False
            for i in range(t + 1, nrows):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    add_row(i, t, -q)
                    if a[i][t]:
                        swap_rows(t, i)
                        dirty = True
                        break
            if dirty:
                continue
            for j in range(t + 1, ncols):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    add_col(j, t, -q)
                    if a[t][j]:
                        swap_cols(t, j)
                        dirty = True
                        break
            if dirty:
                continue
            # pivot must divide the remaining submatrix for ascending divisibility
            offender = None
            for i in range(t + 1, nrows):
                for j in range(t + 1, ncols):
                    if a[i][j] % a[t][t]:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            add_row(t, offender, 1)
        t += 1
    diag = [abs(a[i][i]) for i in range(min(nrows, ncols))]
    return diag, u


def quotient_group(cover: CoverSpec, subgroup_generators: Sequence[GroupElement]):
    """G / <subgroup_generators> in ascending-divisibility form, from one
    Smith form, and the projection map on elements."""
    group = cover._require_abelian()
    gens = [
        group.check_element(_of_kind(g, GroupElement, "expected a group element"))
        for g in subgroup_generators
    ]
    rank = group.rank
    if rank == 0:
        return GroupSpec(()), lambda x: GroupElement(())
    columns = [
        [m if i == j else 0 for i in range(rank)]
        for j, m in enumerate(group.cyclic_orders)
    ] + [list(g.exponents) for g in gens]
    diag, u = smith_diagonal([list(row) for row in zip(*columns)])
    kept = [i for i, d in enumerate(diag) if d != 1]
    new_group = GroupSpec(tuple(diag[i] for i in kept))

    def project(x: GroupElement) -> GroupElement:
        image = [sum(u[i][k] * x.exponents[k] for k in range(rank)) for i in range(rank)]
        return new_group.element([image[i] for i in kept])

    return new_group, project


def quotient_projection(cover: CoverSpec, subgroup_generators):
    """The cover of the same base by G / <subgroup_generators>, in
    ascending-divisibility form, and the projection map on elements; branch
    values whose class dies in the quotient are dropped."""
    group, project = quotient_group(cover, subgroup_generators)
    points = tuple(
        BranchPoint(bp.label, project(bp.psi))
        for bp in cover.branch_points
        if group.element_order(project(bp.psi)) > 1
    )
    return CoverSpec(cover.base_genus, group, points), project


def quotient(cover: CoverSpec, subgroup_generators) -> CoverSpec:
    return quotient_projection(cover, subgroup_generators)[0]


def orbit_irrep(cover: CoverSpec, orbit: CharacterOrbit) -> RationalIrrepData:
    """The orbit's rational irreducible: N_{C,0} is 1 on the branch classes
    in the representative's kernel and 0 elsewhere; trivial iff e = 1."""
    rows = tuple(
        (cls.key, int(cover.group.u_value(orbit.representative, cls.key) == 0)) for cls in cover.branch_classes
    )
    return RationalIrrepData(1, orbit.field_degree, 1, rows, trivial=orbit.order == 1)


def quotient_genus_and_form(cover: CoverSpec, orbit: CharacterOrbit) -> tuple[int, int]:
    """The genus of the orbit's quotient cover, built, and 2e times its
    quotient form phi/e (g_Y - 1) + [e = 1] + phi sum_y r_y / (2 o(y))."""
    e, phi = orbit.order, orbit.field_degree
    quotient = cyclic_quotient(cover, orbit.representative, e)
    g_y = quotient.genus()
    num = 2 * phi * (g_y - 1) + 2 * (e == 1)
    num += phi * sum(c.count * e // c.order for c in quotient.branch_classes)
    return g_y, num


def fixed_point_terms(cover: CoverSpec, tau: GroupElement) -> tuple[FixedPointTerm, ...]:
    """Per branch class sigma with tau in <sigma>: n / o(sigma) fixed points
    per branch value, rotating by zeta_{o(sigma)}^beta where sigma^beta = tau."""
    group, n = cover.group, cover.degree
    terms = []
    for cls in cover.branch_classes:
        beta = group.power_index(cls.key, tau)
        if beta is not None:
            terms.append(FixedPointTerm(cls.order, beta % cls.order, cls.count * (n // cls.order)))
    return tuple(terms)


def jacobian_columns(cover: CoverSpec):
    """(chi, analytic, rational) for every character: analytic(chi) is the
    multiplicity of conj chi at q = 1, and rational(chi) adds chi's own."""
    columns = []
    for chi in cover.characters():
        analytic = cw_multiplicity(cover, cover.conjugate_character(chi), 1, 0)
        columns.append((chi, analytic, analytic + cw_multiplicity(cover, chi, 1, 0)))
    return columns


def h_chi_exponents(cover: CoverSpec, chi) -> tuple[tuple[int, ...], int]:
    """u_{chi,C} at each branch value, through a dict keyed by class, and -t_chi."""
    row, t = cover.row_and_t(chi)
    u = dict(zip((cls.key for cls in cover.branch_classes), row))
    return tuple(u[bp.psi] for bp in cover.branch_points), -t


def omega_exponents(cover: CoverSpec, chi, q: int):
    """beta at each branch value, the exponent at infinity and the linear
    factor powers, from the row and t of ``conjugate_character(chi)``."""
    row_conj, t_conj = cover.row_and_t(cover.conjugate_character(chi))
    splits = {c.key: divmod(q * (c.order - 1) - u, c.order) for c, u in zip(cover.branch_classes, row_conj)}
    per_point = [splits[bp.psi] for bp in cover.branch_points]
    infinity = t_conj - 2 * q + sum(alpha for alpha, _ in per_point)
    powers = tuple((bp.label, alpha) for bp, (alpha, _) in zip(cover.branch_points, per_point))
    return tuple(beta for _, beta in per_point), infinity, powers
