"""Tests of the benchmark itself (not part of the package's test suite).

    python -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import math
import shutil
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import galcov  # noqa: E402
import galcov.cli  # noqa: E402,F401
import gen  # noqa: E402
import ref  # noqa: E402
import workloads  # noqa: E402
from ref import CheckError  # noqa: E402
from spans import Tracer, layer_self_times  # noqa: E402

SHAPE = gen.Shape("Z6", (6,), (6, 3, 2), (2, 2, 2))


@pytest.fixture
def bd():
    return gen.draw(gen.pass_rng(7, "test", 0), SHAPE)


def rejects(check, *args):
    with pytest.raises(CheckError):
        check(*args)


# -- each checker accepts the program's answer and rejects a wrong one ---------------


def test_validate_and_genus(bd):
    cover = gen.to_cover(galcov, bd)
    ref.check_validate(bd, cover.validate().ok)
    rejects(ref.check_validate, bd, False)
    ref.check_genus(bd, cover.genus())
    rejects(ref.check_genus, bd, cover.genus() + 1)


def test_tchi(bd):
    cover = gen.to_cover(galcov, bd)
    rows = {
        chi.exponents: (cover.t_chi(chi), [cover.u_value(chi, c.key) for c in cover.branch_classes])
        for chi in cover.characters()
    }
    ref.check_tchi(bd, cover.genus(), rows)
    chi = next(c for c in rows if any(c))
    t, u = rows[chi]
    rejects(ref.check_tchi, bd, cover.genus(), {**rows, chi: (t + 1, u)})
    rejects(ref.check_tchi, bd, cover.genus(), {**rows, chi: (t, [u[0] + 1, *u[1:]])})


def _dims(cover, q):
    return {chi.exponents: galcov.dim_omega_chi(cover, chi, q) for chi in cover.characters()}


def test_dims_and_traces(bd):
    cover = gen.to_cover(galcov, bd)
    g = cover.genus()
    for q in (1, 2):
        dims = _dims(cover, q)
        ref.check_dims(g, q, dims, galcov.total_dim_omega(cover, q))
        chi = next(iter(dims))
        rejects(ref.check_dims, g, q, {**dims, chi: dims[chi] + 1})
        rejects(ref.check_dims, g, q, dims, galcov.total_dim_omega(cover, q) - 1)
    dims = _dims(cover, 1)
    tau = cover.group.element((1,))
    value = galcov.eichler_trace(cover, tau, 1).value
    ref.check_traces(bd.orders, dims, {tau.exponents: value})
    rejects(ref.check_traces, bd.orders, dims, {tau.exponents: value + 1e-6})


def test_hchi_and_omega(bd):
    cover = gen.to_cover(galcov, bd)
    chi = cover.group.character((1,))
    d = galcov.h_chi_divisor(cover, chi)
    ref.check_hchi(bd, chi.exponents, d.branch_exponents, d.infinity_exponent, d.degree())
    rejects(ref.check_hchi, bd, chi.exponents, d.branch_exponents, d.infinity_exponent - 1, d.degree())
    g = cover.genus()
    ref.check_omega(g, 1, galcov.omega_divisor(cover, chi, 1).degree())
    rejects(ref.check_omega, g, 1, 2 * g)


def test_jacobian(bd):
    cover = gen.to_cover(galcov, bd)
    rep = galcov.decompose(cover)
    analytic = {chi.exponents: m for chi, m in rep.analytic}
    rational = {chi.exponents: m for chi, m in rep.rational}
    dim_a = [s.dim_A for s in rep.orbits]
    quotients = [(p.dim, p.dim_from_quotient) for p in rep.quotients]
    g = cover.genus()
    ref.check_jacobian(bd.orders, g, analytic, rational, dim_a, quotients)
    chi = (1,)
    rejects(ref.check_jacobian, bd.orders, g, {**analytic, chi: analytic[chi] + 1}, rational, dim_a, quotients)
    rejects(ref.check_jacobian, bd.orders, g, analytic, {**rational, chi: rational[chi] + 1}, dim_a, quotients)
    rejects(ref.check_jacobian, bd.orders, g, analytic, rational, dim_a[:-1], quotients)
    rejects(ref.check_jacobian, bd.orders, g, analytic, rational, dim_a, [(1, 2)])


def test_family_counts_and_streams():
    hyp = gen.draw(gen.pass_rng(1, "test", 0), gen.Shape("hyp8", (2,), (2,), (8,)))
    zm = gen.draw(gen.pass_rng(1, "test", 0), gen.Shape("Z5x5", (5,), (5,), (5,)))
    for bd, counts in ((hyp, (56, 70)), (zm, (60, 120))):
        cover = gen.to_cover(galcov, bd)
        for family, expected in zip(("integral", "gm1"), counts):
            n = galcov.count_by_cardinality(cover, family)
            assert n == expected == ref.family_count(bd, family)
            it = galcov.iter_nonspecial_integral if family == "integral" else galcov.iter_degree_gm1
            divs = [(d.buckets, d.p) for d in it(cover)]
            ref.check_family(bd, family, n, divs)
            rejects(ref.check_family, bd, family, n + 1)
            rejects(ref.check_family, bd, family, n, divs[:-1])
            rejects(ref.check_family, bd, family, n, divs[:-1] + divs[:1])
            buckets, p = divs[0]
            rejects(ref.check_family, bd, family, n, [(buckets, p + 1)] + divs[1:])


def test_riemann_roch(bd):
    cover = gen.to_cover(galcov, bd)
    buckets, p = (0, 1, 2, 0, 1, 0), 1
    div = galcov.InvariantDivisor(cover, buckets, p)
    g, r, i, deg = cover.genus(), div.r_total(), div.i_total(), div.degree()
    ref.check_riemann_roch(bd, g, deg, r, i, buckets, p)
    rejects(ref.check_riemann_roch, bd, g, deg, r + 1, i, buckets, p)
    rejects(ref.check_riemann_roch, bd, g, deg + 1, r + 1, i, buckets, p)


def test_generic_dims_and_cli_report():
    rows = {"sgn": [1]}
    # genus-1 S3 cover, four transpositions: the trivial character is corrected at q = 1
    assert ref.generic_dims(0, 1, 1, [(4, 2)], rows) == {"1": 0, "sgn": 1}
    assert ref.generic_dims(0, 2, 1, [(4, 2)], rows) == {"1": 1, "sgn": 0}
    doc = workloads.CliDoc("s3", "s3.json", gen.S3_DOCUMENT, True)
    good = {"characters": [{"character": "sgn", "dim": 0}]}
    workloads.check_report(doc, "dims", ["--q", "2"], good, {})
    bad = {"characters": [{"character": "sgn", "dim": 1}]}
    rejects(workloads.check_report, doc, "dims", ["--q", "2"], bad, {})


def test_cli_check_rejects_wrong_exit_and_traceback():
    doc = workloads.CliDoc("x", "x.json", None, True)
    op = workloads._cli_op(lambda argv: None, doc, "genus", [], 3, {}, {})
    op.check((3, "", '{"error": {"code": "non-integral-invariant", "message": ""}}'))
    rejects(op.check, (2, "", '{"error": {"code": "config", "message": ""}}'))
    rejects(op.check, (3, "", "Traceback (most recent call last):"))
    seen = {}
    first = workloads._cli_op(lambda argv: None, doc, "genus", [], 3, {}, seen)
    first.check((3, "a", '{"error": {"code": "non-integral-invariant"}}'))
    rejects(first.check, (3, "b", '{"error": {"code": "non-integral-invariant"}}'))


# -- self time on nested spans ------------------------------------------------------------


def test_self_time_arithmetic():
    names = ["bench.op", "groups.u_value", "cover.t_fraction"]
    #  bench.op [0, 10] > groups [1, 4] > cover [2, 3];  bench.op > cover [5, 7]
    name_id = [0, 1, 2, 2]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 7.0]
    parent = [-1, 0, 1, 0]
    selfs = layer_self_times(names, name_id, start, end, parent)
    assert selfs == {"bench": 5.0, "groups": 2.0, "cover": 3.0}
    assert sum(selfs.values()) == end[0] - start[0]


def test_tracer_spans_cover_the_operation(bd):
    cover = gen.to_cover(galcov, bd)
    tracer = Tracer()
    tracer.install(galcov)
    try:
        tracer.op_id = 0
        sid = tracer.open("bench.op")
        cover.validate()
        galcov.decompose(cover)
        tracer.close(sid)
    finally:
        tracer.uninstall()
    assert tracer.counts["cover.validate.calls"] == 1
    assert tracer.counts["jacobian.decompose.calls"] == 1
    assert tracer.counts["groups.u_value.calls"] > 0
    assert set(tracer.op) == {0}
    selfs = tracer.self_times()
    assert {"bench", "cover", "groups", "jacobian", "differentials"} <= set(selfs)
    assert math.isclose(sum(selfs.values()), tracer.end[sid] - tracer.start[sid], rel_tol=1e-9)
    assert not hasattr(galcov.decompose, "__wrapped__")
    assert not hasattr(galcov.GroupSpec.u_value, "__wrapped__")


# -- inputs depend on the seed alone ---------------------------------------------------------


def test_inputs_identical_for_one_seed():
    for shape in workloads.DUAL_FULL + tuple(shape for shape, _ in workloads.FAMILY_COVERS):
        a = gen.draw(gen.pass_rng(3, "w", 1), shape)
        assert a == gen.draw(gen.pass_rng(3, "w", 1), shape)
        counts = shape.counts or (1,) * len(shape.class_orders)
        orders = tuple(o for o, c in zip(shape.class_orders, counts) for _ in range(c))
        assert ref.is_valid(a) and tuple(ref.element_order(a.orders, x) for x in a.psis) == orders
    assert gen.draw(gen.pass_rng(3, "w", 1), SHAPE) != gen.draw(gen.pass_rng(4, "w", 1), SHAPE)
    rng_a, rng_b = gen.pass_rng(5, "random-divisors", 0), gen.pass_rng(5, "random-divisors", 0)
    slots = gen.small_slots(100)
    assert [gen.random_small(rng_a, *slot) for slot in slots] == [gen.random_small(rng_b, *slot) for slot in slots]
    root = HERE.parent
    texts = []
    for name in ("a", "b"):
        workdir = root / ".perfbench_runs" / f"test-inputs-{name}"
        workdir.mkdir(parents=True, exist_ok=True)
        try:
            docs = workloads.cli_docs(9, 0, workdir, root)
            texts.append([(root / d.path).read_text() for d in docs if not d.fixed])
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    assert texts[0] == texts[1] and len(texts[0]) == 2
