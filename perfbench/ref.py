"""Independent reference computations and output checkers.

Everything here works on plain branch data (see ``gen.BranchData``) with
integer arithmetic and ``cmath``, and never calls into ``galcov``.  Each
checker raises ``CheckError`` with a short reason when a value disagrees
with the reference, and returns nothing otherwise.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from itertools import product


class CheckError(Exception):
    """An output of the program disagrees with an independent computation."""


def expect(condition, message):
    if not condition:
        raise CheckError(message)


# -- group arithmetic on exponent vectors --------------------------------------


def element_order(orders, x) -> int:
    return math.lcm(*(m // math.gcd(m, a) for a, m in zip(x, orders))) if orders else 1


def u_value(orders, chi, x) -> int:
    """Discrete log of chi(x) to base the primitive o(x)-th root of unity."""
    big = math.lcm(*orders)
    s = sum(k * a * (big // m) for k, a, m in zip(chi, x, orders)) % big
    o = element_order(orders, x)
    expect(s * o % big == 0, f"pairing of {chi} and {x} is not an o(x)-th root")
    return s * o // big


def character_value(orders, chi, x) -> complex:
    return cmath.exp(2j * cmath.pi * sum(Fraction(k * a, m) for k, a, m in zip(chi, x, orders)))


def characters(orders):
    return product(*(range(m) for m in orders))


def conjugate(orders, chi):
    return tuple((-k) % m for k, m in zip(chi, orders))


def subgroup_closure(orders, generators) -> int:
    """Order of the subgroup generated by the given elements, by closure."""
    seen = {tuple(0 for _ in orders)}
    frontier = list(seen)
    while frontier:
        nxt = []
        for x in frontier:
            for g in generators:
                y = tuple((a + b) % m for a, b, m in zip(x, g, orders))
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return len(seen)


def is_valid(bd) -> bool:
    """Sum of the classes is zero and, over the line, the classes generate G."""
    total = tuple(sum(col) % m for col, m in zip(zip(*bd.psis), bd.orders)) if bd.psis else ()
    if any(total):
        return False
    if bd.base_genus:
        return True
    if len(bd.orders) == 1:
        return math.gcd(bd.orders[0], *(x[0] for x in bd.psis)) == 1
    return subgroup_closure(bd.orders, bd.psis) == math.prod(bd.orders)


def genus(bd) -> int:
    """Riemann-Hurwitz in integers: 2g - 2 = n(2h - 2) + sum_j (n - n / o_j)."""
    n = math.prod(bd.orders)
    twice = n * (2 * bd.base_genus - 2) + sum(n - n // element_order(bd.orders, x) for x in bd.psis)
    expect(twice % 2 == 0, "Riemann-Hurwitz gives an odd 2g - 2")
    return twice // 2 + 1


def t_chi(bd, chi) -> int:
    t = sum(Fraction(u_value(bd.orders, chi, x), element_order(bd.orders, x)) for x in bd.psis)
    expect(t.denominator == 1, f"t is fractional at {chi}")
    return int(t)


def number_of_divisors(n: int) -> int:
    return sum(1 for d in range(1, n + 1) if n % d == 0)


def delta(g: int, q: int, gamma_degree: int = 0) -> int:
    return int(gamma_degree == 0 and (q == 1 or g == 1))


def generic_dims(base_genus, q, g, classes, rows) -> dict:
    """Per-character q-differential dimensions for one-dimensional characters
    given by u-rows over the branch classes ``(count, order)``; the trivial
    character "1" is always included, since the correction may sit there."""

    def raw(u):
        value = Fraction((2 * q - 1) * (base_genus - 1))
        for (count, o), a in zip(classes, u):
            shifted = Fraction(q - 1 - a, o)
            value += count * ((q - 1) * (1 - Fraction(1, o)) + shifted - math.floor(shifted))
        return value

    values = {"1": raw([0] * len(classes)), **{name: raw(u) for name, u in rows.items()}}
    if delta(g, q):
        corrected = "1" if g != 1 else [name for name, v in values.items() if v == -1]
        expect(len(corrected) == 1, "no unique corrected character")
        values[corrected[0]] += 1
    expect(all(v.denominator == 1 for v in values.values()), "fractional dimension")
    return {name: int(v) for name, v in values.items()}


# -- invariant divisors over the line --------------------------------------------


class DivisorRef:
    """Degree and section dimensions of normalized divisors on one cover,
    from per-character u-rows computed once."""

    def __init__(self, bd):
        self.bd = bd
        self.n = math.prod(bd.orders)
        self.point_orders = [element_order(bd.orders, x) for x in bd.psis]
        self.rows = {}
        for chi in characters(bd.orders):
            u = [u_value(bd.orders, chi, x) for x in bd.psis]
            t = sum(Fraction(a, o) for a, o in zip(u, self.point_orders))
            expect(t.denominator == 1, f"t is fractional at {chi}")
            self.rows[chi] = (u, int(t))

    def degree(self, buckets, p) -> int:
        return sum(self.n * (o - 1 - b) // o for b, o in zip(buckets, self.point_orders)) + self.n * p

    def _a(self, chi, buckets) -> int:
        u = self.rows[chi][0]
        return sum(1 for b, a in zip(buckets, u) if b < a)

    def r_total(self, buckets, p) -> int:
        return sum(max(0, p + 1 + self._a(chi, buckets) - t) for chi, (_, t) in self.rows.items())


# -- checkers ---------------------------------------------------------------------


def check_validate(bd, ok):
    expect(bool(ok) == is_valid(bd), f"validate says {ok}, the closure rule says {is_valid(bd)}")


def check_genus(bd, g):
    expect(g == genus(bd), f"genus {g}, Riemann-Hurwitz gives {genus(bd)}")


def check_tchi(bd, g, rows):
    """``rows`` maps each character to (t, u-row over the branch classes)."""
    expect(len(rows) == math.prod(bd.orders), "tchi does not list every character")
    # g = h + sum over nontrivial characters of (t + h - 1); over the line this is sum (t - 1)
    trivial = tuple(0 for _ in bd.orders)
    h = bd.base_genus
    expect(sum(t + h - 1 for chi, (t, _) in rows.items() if chi != trivial) == g - h,
           "sum over nontrivial characters of (t + h - 1) is not g - h")
    classes = sorted(set(bd.psis))
    for chi, (t, u) in rows.items():
        expect(t == t_chi(bd, chi), f"t at {chi} is {t}, expected {t_chi(bd, chi)}")
        expect(list(u) == [u_value(bd.orders, chi, x) for x in classes], f"u-row at {chi} is wrong")


def check_dims(g, q, dims, total=None, gamma_degree=0, degree=1):
    """Sum of the per-character dimensions is (2q - 1)(g - 1) + n deg(Gamma) + delta."""
    expected = (2 * q - 1) * (g - 1) + degree * gamma_degree + delta(g, q, gamma_degree)
    expect(all(d >= 0 for d in dims.values()), "a negative dimension")
    expect(sum(dims.values()) == expected, f"dims sum to {sum(dims.values())}, expected {expected}")
    if total is not None:
        expect(total == expected, f"total {total}, expected {expected}")


def check_traces(orders, dims, traces):
    """Each trace is sum_chi dim_chi chi(tau), within 1e-9."""
    nontrivial = [x for x in characters(orders) if any(x)]
    expect(set(traces) <= set(nontrivial), "trace of the identity")
    for tau, value in traces.items():
        expected = sum(d * character_value(orders, chi, tau) for chi, d in dims.items() if d)
        expect(abs(value - expected) <= 1e-9, f"trace at {tau} is {value}, expected {expected}")


def check_hchi(bd, chi, branch_exponents, infinity_exponent, degree):
    u = [u_value(bd.orders, chi, x) for x in bd.psis]
    expect(list(branch_exponents) == u, f"h_chi exponents at {chi} are not the u-values")
    expect(infinity_exponent == -t_chi(bd, chi), f"h_chi pole at {chi} is not t_chi")
    expect(degree == 0, f"h_chi divisor at {chi} has degree {degree}")


def check_omega(g, q, degree):
    expect(degree == q * (2 * g - 2), f"q-differential divisor of degree {degree}, expected {q * (2 * g - 2)}")


def check_jacobian(orders, g, analytic, rational, dim_a, quotients):
    """analytic/rational map characters to multiplicities; dim_a lists the
    isotypical dimensions; quotients lists (dim, dim_from_quotient)."""
    expect(sum(analytic.values()) == g, "analytic multiplicities do not sum to the genus")
    for chi, r in rational.items():
        expected = analytic[chi] + analytic[conjugate(orders, chi)]
        expect(r == expected, f"rational multiplicity at {chi} is {r}, expected {expected}")
    expect(sum(dim_a) == g, "isotypical dimensions do not sum to the genus")
    for dim, dim_q in quotients:
        expect(dim == dim_q, f"quotient piece {dim} differs from its quotient form {dim_q}")
    if len(orders) == 1:
        expect(len(dim_a) == number_of_divisors(orders[0]), "orbit count is not the divisor count of n")


def family_count(bd, family):
    """Closed-form family sizes where the shape fixes them, else None."""
    if len(bd.orders) == 1 and bd.base_genus == 0 and len(set(bd.psis)) == 1:
        m, k = bd.orders[0], len(bd.psis)
        if m == 2:
            g = (k - 2) // 2
            return math.comb(2 * g + 2, g if family == "integral" else g + 1)
        if k == m and element_order(bd.orders, bd.psis[0]) == m:
            return math.factorial(m) // (2 if family == "integral" else 1)
    return None


def check_family(bd, family, count, divisors=None, ref=None):
    """``divisors`` lists (buckets, p) pairs of a streamed family, if any."""
    expected = family_count(bd, family)
    if expected is not None:
        expect(count == expected, f"{family} count {count}, expected {expected}")
    if divisors is None:
        return
    expect(len(divisors) == count, f"streamed {len(divisors)} divisors, count says {count}")
    expect(len(set(divisors)) == len(divisors), "streamed divisors repeat")
    ref = ref or DivisorRef(bd)
    g = genus(bd)
    deg, r = (g, 1) if family == "integral" else (g - 1, 0)
    for buckets, p in divisors:
        expect(p == (0 if family == "integral" else -1), f"{family} divisor with p = {p}")
        expect(ref.degree(buckets, p) == deg, f"{family} divisor {buckets} has the wrong degree")
        expect(ref.r_total(buckets, p) == r, f"{family} divisor {buckets} has r_total != {r}")


def check_riemann_roch(bd, g, deg, r, i, buckets, p, ref=None):
    ref = ref or DivisorRef(bd)
    expect(deg == ref.degree(buckets, p), f"degree {deg}, expected {ref.degree(buckets, p)}")
    expect(r - i == deg + 1 - g, f"r - i = {r - i}, deg + 1 - g = {deg + 1 - g}")
