"""The four workloads.  Each builds the operations of one pass from
``gen.pass_rng(seed, name, k)``; an operation is a callable timed on its own
plus a checker run after the pass, outside any timing.

dual-sweep        per-character loops on abelian covers with large dual groups
divisor-families  counting and streaming the two divisor families
random-divisors   thousands of small covers, each with one random divisor
cli               ``python -m galcov.cli <command> <doc> --format json``
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import multiprocessing
import os
import resource
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import gen
import ref
from gen import Shape
from ref import expect


@dataclass
class Op:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], None]
    # an operation that fails on every input because of a known fault
    known_fault: bool = False


# -- dual-sweep --------------------------------------------------------------------

DUAL_FULL = (
    Shape("Z60", (60,), (60, 60, 30)),
    Shape("Z120", (120,), (120, 120, 60)),
    Shape("Z240", (240,), (240, 240, 120)),
    Shape("Z2xZ6xZ10", (2, 6, 10), (30, 30, 10, 6)),
    Shape("Z2^6", (2,) * 6, (2,) * 7),
)
DUAL_TWO_POINT = Shape("Z20000", (20000,), (20000, 20000))
# about 5 s each, two thirds of a pass with them: a run would see each
# question only twice.  The Z_n decompose ladder up to n = 240 is in ladders.py.
DUAL_SKIP = ("Z240:jacobian", "Z240:chevalley-weil")


def cover_questions(G, tag, bd, cover) -> list[Op]:
    """Each question ``galcov all`` asks except the family counts, plus hchi,
    omega, dims at q = 2, traces over every nontrivial tau and Chevalley-Weil
    over every character; the later checks read earlier answers."""
    df, dv, jac = G.differentials, G.divisors, G.jacobian
    g = ref.genus(bd)
    answers: dict[str, Any] = {}

    def validate():
        return cover.validate().ok

    def tchi():
        classes = cover.branch_classes
        return {
            chi.exponents: (cover.t_chi(chi), [cover.u_value(chi, c.key) for c in classes])
            for chi in cover.characters()
        }

    def dims(q):
        def run():
            info = df.delta_info(cover, q, 0)
            rows = {chi.exponents: df.dim_omega_chi(cover, chi, q, 0) for chi in cover.characters()}
            return rows, df.total_dim_omega(cover, q, 0), info.delta

        def check(result):
            rows, total, delta = result
            ref.check_dims(g, q, rows, total)
            expect(delta == ref.delta(g, q), f"delta {delta} at q = {q}")
            answers[f"dims{q}"] = rows

        return run, check

    def hchi():
        out = []
        for chi in cover.characters():
            d = dv.h_chi_divisor(cover, chi)
            out.append((chi.exponents, d.branch_exponents, d.infinity_exponent, d.degree()))
        return out

    def omega():
        out = []
        for chi in cover.characters():
            d = df.omega_divisor(cover, chi, 1)
            d.presentation()
            out.append(d.degree())
        return out

    def jacobian():
        rep = jac.decompose(cover)
        return (
            {chi.exponents: m for chi, m in rep.analytic},
            {chi.exponents: m for chi, m in rep.rational},
            [s.dim_A for s in rep.orbits],
            [(p.dim, p.dim_from_quotient) for p in rep.quotients],
        )

    def traces():
        group = cover.group
        return {
            tau.exponents: df.eichler_trace(cover, tau, 1, 0).value
            for tau in group.elements()
            if group.element_order(tau) > 1
        }

    def chevalley_weil():
        return {chi.exponents: df.cw_multiplicity(cover, chi, 2, 0) for chi in cover.characters()}

    def check_cw(mult):
        expect(mult == answers.get("dims2"), "Chevalley-Weil multiplicities differ from the q = 2 dims")

    dims1, check_dims1 = dims(1)
    dims2, check_dims2 = dims(2)
    return [
        Op(f"{tag}:validate", validate, lambda ok: ref.check_validate(bd, ok)),
        Op(f"{tag}:genus", lambda: cover.genus(), lambda v: ref.check_genus(bd, v)),
        Op(f"{tag}:tchi", tchi, lambda rows: ref.check_tchi(bd, g, rows)),
        Op(f"{tag}:hchi", hchi, lambda rows: [ref.check_hchi(bd, *row) for row in rows]),
        Op(f"{tag}:dims1", dims1, check_dims1),
        Op(f"{tag}:dims2", dims2, check_dims2),
        Op(f"{tag}:omega", omega, lambda degs: [ref.check_omega(g, 1, d) for d in degs]),
        Op(f"{tag}:jacobian", jacobian, lambda r: ref.check_jacobian(bd.orders, g, *r)),
        Op(f"{tag}:traces", traces, lambda tr: ref.check_traces(bd.orders, answers.get("dims1", {}), tr)),
        Op(f"{tag}:chevalley-weil", chevalley_weil, check_cw),
    ]


def dual_sweep(G, seed, k) -> list[Op]:
    rng = gen.pass_rng(seed, "dual-sweep", k)
    ops = []
    for shape in DUAL_FULL:
        bd = gen.draw(rng, shape)
        ops += [op for op in cover_questions(G, shape.name, bd, gen.to_cover(G, bd)) if op.name not in DUAL_SKIP]
    bd = gen.draw(rng, DUAL_TWO_POINT)
    cover = gen.to_cover(G, bd)
    ops += [
        Op("Z20000:validate", lambda: cover.validate().ok, lambda ok: ref.check_validate(bd, ok)),
        Op("Z20000:genus", lambda: cover.genus(), lambda v: ref.check_genus(bd, v)),
    ]
    return ops


# -- divisor-families ---------------------------------------------------------------

# (shape, operations): both ladders, Z_m with m points of one class and the
# hyperelliptic covers, interleave, so that the costs of a pass spread from
# 0.1 ms to 0.3 s with no wide gap.  The median falls among the ten or so
# operations of 1 to 4 ms and p90 among the streams of 0.1 to 0.2 s: a
# percentile that sits between two unlike operations moves with the machine's
# speed by more than the operations do.  Streams where the count is small;
# each stream is checked against the count and the closed form.  The top
# rungs, Z_11 counts and 16-point streams, take over 0.8 s each and would
# leave a run a handful of passes; ladders.py times them.
FAMILY_COVERS = (
    tuple((Shape(f"Z{m}x{m}", (m,), (m,), (m,)), ("count", "stream")) for m in (5, 6, 7))
    + tuple((Shape(f"Z{m}x{m}", (m,), (m,), (m,)), ("count",)) for m in (8, 9, 10))
    + tuple((Shape(f"hyp{k}", (2,), (2,), (k,)), ("count", "stream")) for k in (8, 10, 12, 14))
    + ((Shape("Z6mixed", (6,), (6, 3, 2), (2, 2, 2)), ("count", "stream")),)
)
# small enough for the brute-force oracle on every pass
FAMILY_ORACLE = ("hyp8", "Z6mixed")


def family_ops(G, bd, cover, name, kinds) -> list[Op]:
    en = G.enumeration
    counts: dict[str, int] = {}

    def counter(family):
        def check(n):
            ref.check_family(bd, family, n)
            counts[family] = n

        return Op(f"{name}:count-{family}", lambda: en.count_by_cardinality(cover, family), check)

    def streamer(family):
        # looked up on every run, so that a traced run sees the wrapped function
        attr = "iter_nonspecial_integral" if family == "integral" else "iter_degree_gm1"

        def check(divs):
            ref.check_family(bd, family, counts.get(family, ref.family_count(bd, family)), divs)
            if name in FAMILY_ORACLE:
                g = ref.genus(bd)
                p, deg, r = (0, g, 1) if family == "integral" else (-1, g - 1, 0)
                oracle = {d.buckets for d in en.brute_force_filter(cover, p, deg, r)}
                expect(oracle == {b for b, _ in divs}, f"{name} {family} differs from brute force")

        return Op(f"{name}:stream-{family}", lambda: [(d.buckets, d.p) for d in getattr(en, attr)(cover)], check)

    make = {"count": counter, "stream": streamer}
    return [make[kind](family) for kind in kinds for family in ("integral", "gm1")]


def divisor_families(G, seed, k) -> list[Op]:
    rng = gen.pass_rng(seed, "divisor-families", k)
    ops = []
    for shape, kinds in FAMILY_COVERS:
        bd = gen.draw(rng, shape)
        ops += family_ops(G, bd, gen.to_cover(G, bd), shape.name, kinds)
    return ops


# -- random-divisors ----------------------------------------------------------------

RANDOM_PER_PASS = 100


def random_divisors(G, seed, k) -> list[Op]:
    rng = gen.pass_rng(seed, "random-divisors", k)
    ops = []
    for j, (orders, points) in enumerate(gen.small_slots(RANDOM_PER_PASS)):
        bd = gen.random_small(rng, orders, points)
        buckets, p = gen.random_divisor(rng, bd)
        taus = [x for x in ref.characters(bd.orders) if any(x)]
        tau = taus[rng.randrange(len(taus))]
        ops.append(Op(f"random:{j}", _random_run(G, bd, buckets, p, tau), _random_check(bd, buckets, p, tau)))
    return ops


def _random_run(G, bd, buckets, p, tau):
    df = G.differentials

    def run():
        cover = gen.to_cover(G, bd)
        ok = cover.validate().ok
        g = cover.genus()
        div = G.divisors.InvariantDivisor(cover, buckets, p)
        r, i, deg = div.r_total(), div.i_total(), div.degree()
        dims = {chi.exponents: df.dim_omega_chi(cover, chi, 1, 0) for chi in cover.characters()}
        trace = df.eichler_trace(cover, cover.group.element(tau), 1, 0).value
        return ok, g, r, i, deg, dims, trace

    return run


def _random_check(bd, buckets, p, tau):
    def check(result):
        ok, g, r, i, deg, dims, trace = result
        ref.check_validate(bd, ok)
        ref.check_genus(bd, g)
        ref.check_riemann_roch(bd, g, deg, r, i, buckets, p)
        ref.check_dims(g, 1, dims)
        ref.check_traces(bd.orders, dims, {tau: trace})

    return check


# -- cli ------------------------------------------------------------------------------

COMMANDS = (
    "validate", "genus", "tchi", "hchi", "dims", "nonspecial",
    "degree-gm1", "omega", "traces", "chevalley-weil", "jacobian", "all",
)
EXIT = {
    "config": 2, "non-integral-invariant": 3, "degenerate-cover": 4, "branched-at-infinity": 5,
    "unsupported-base-genus": 6, "not-abelian": 7, "search-space-too-large": 8,
}
BUNDLED = ("hyperelliptic6", "klein4", "unramified_g1", "z3_cubic")
CLI_BRANCH = Shape("Z2xZ6", (2, 6), (6, 6, 2, 2, 3))
CLI_EQUATIONS = Shape("Z2xZ3", (2, 3), (6, 6, 3, 3))
# (name, document text, command, expected exit code); none depends on the seed
INVALID = (
    ("bad-json", "{not json", "genus", 2),
    ("no-mode", json.dumps({"equations": []}), "genus", 2),
    ("fractional", gen.dump(gen.branch_document(gen.BranchData(0, (3,), (1, 2), ((1,), (1,))))), "genus", 3),
    ("degenerate", gen.dump(gen.branch_document(gen.BranchData(0, (4,), (1, 2), ((2,), (2,))))), "genus", 4),
    ("at-infinity", json.dumps({"mode": "equations", "equations": [
        {"m": 2, "factors": [{"point": [1, 0], "exp": 1}]}]}), "validate", 5),
    ("base-genus-1", json.dumps({"mode": "branch-data", "base_genus": 1, "group": {"cyclic_orders": [2]},
                                 "branch_points": [{"label": "a", "psi": [1]}, {"label": "b", "psi": [1]}]}),
     "nonspecial", 6),
)


class CliDoc:
    """One input document with what the checks need to know about it;
    ``doc`` is None for an invalid document."""

    def __init__(self, name, path, doc, fixed):
        self.name, self.path, self.fixed = name, path, fixed
        self.generic = doc is not None and "classes" in doc.get("group", {})
        self.bd = None if doc is None or self.generic else gen.branch_data_of_document(doc)
        self.g = 1 if self.generic else self.bd and ref.genus(self.bd)
        self.base_genus = doc.get("base_genus", 0) if doc else 0

    def expected_code(self, command) -> int:
        if self.generic and command in ("nonspecial", "degree-gm1", "traces", "jacobian"):
            return EXIT["not-abelian"]
        if self.base_genus and command in ("hchi", "nonspecial", "degree-gm1", "omega"):
            return EXIT["unsupported-base-genus"]
        return 0


def cli_setup_files(workdir: Path):
    workdir.mkdir(parents=True, exist_ok=True)
    (workdir / "s3.json").write_text(gen.dump(gen.S3_DOCUMENT))
    (workdir / "s3-irreps.json").write_text(gen.dump(gen.S3_IRREPS))
    for name, text, _, _ in INVALID:
        (workdir / f"{name}.json").write_text(text)


def cli_docs(seed, k, workdir: Path, root: Path) -> list[CliDoc]:
    rng = gen.pass_rng(seed, "cli", k)
    docs = []
    for name in BUNDLED:
        path = f"configs/{name}.json"
        docs.append(CliDoc(name, path, json.loads((root / path).read_text()), True))
    branch = gen.branch_document(gen.draw(rng, CLI_BRANCH))
    equations = gen.equations_document(gen.draw(rng, CLI_EQUATIONS))
    for name, doc in (("branch", branch), ("equations", equations)):
        path = workdir / f"{name}.json"
        path.write_text(gen.dump(doc))
        docs.append(CliDoc(name, str(path.relative_to(root)), doc, False))
    docs.append(CliDoc("s3", str((workdir / "s3.json").relative_to(root)), gen.S3_DOCUMENT, True))
    return docs


def cli_ops(execute, seed, k, workdir: Path, root: Path, previous: dict) -> list[Op]:
    """``execute(argv) -> (code, stdout, stderr)``.  Every command runs on
    every valid document, then ``all`` runs again on each of them; stdout of
    a repeat must match the first run, within the pass for generated
    documents and across passes (``previous``) for fixed ones."""
    ops = []
    this_pass: dict[str, str] = {}
    irreps = str((workdir / "s3-irreps.json").relative_to(root))
    docs = cli_docs(seed, k, workdir, root)

    def op(doc, command, flags=(), code=0, answers=None, known_fault=False):
        seen = previous if doc.fixed else this_pass
        ops.append(_cli_op(execute, doc, command, list(flags), code, {} if answers is None else answers, seen,
                               known_fault))

    for doc in docs:
        answers: dict[str, Any] = {}
        for command in COMMANDS:
            flags = []
            if doc.generic and command in ("chevalley-weil", "all"):
                flags = ["--q", "2"] + (["--irrep-file", irreps] if command == "chevalley-weil" else [])
            # on the S3 document, whose u_table lists only sgn, dims at q = 1
            # never finds the corrected character (exit 14)
            op(doc, command, flags, doc.expected_code(command), answers, doc.generic and command == "dims")
        if doc.name == "klein4":
            # delta_info raises ValueError, which the CLI does not classify (exit 1)
            op(doc, "dims", ["--gamma-degree", "-1"], None, answers, True)
            op(doc, "tchi", ["--char", "1"], EXIT["config"])
        if doc.name == "hyperelliptic6":
            op(doc, "nonspecial", ["--cap", "3"], EXIT["search-space-too-large"])
    for name, _, command, code in INVALID:
        op(CliDoc(name, str((workdir / f"{name}.json").relative_to(root)), None, True), command, (), code)
    for doc in docs:
        op(doc, "all", ["--q", "2"] if doc.generic else [], 0, {})
    return ops


def _cli_op(execute, doc, command, flags, code, answers, seen, known_fault=False):
    argv = [command, doc.path, "--format", "json", *flags]

    def check(result):
        got, out, err = result
        expect("Traceback" not in err, f"{' '.join(argv)}: traceback on stderr")
        key = " ".join(argv)
        expect(seen.setdefault(key, out) == out, f"{key}: stdout differs from an earlier run")
        if code is None:
            # a classified error of any documented kind
            expect(2 <= got <= 14, f"{key}: exit {got}")
            return
        expect(got == code, f"{key}: exit {got}, expected {code}")
        if code:
            error = json.loads(err)["error"]
            expect(EXIT.get(error["code"]) == code, f"{key}: error code {error['code']}")
            return
        check_report(doc, command, flags, json.loads(out), answers)

    return Op(f"cli:{doc.name}:{command}{''.join(flags)}", lambda: execute(argv), check, known_fault)


def _char_key(value):
    return tuple(value) if isinstance(value, list) else value


def check_report(doc: CliDoc, command, flags, out, answers):
    q = int(flags[flags.index("--q") + 1]) if "--q" in flags else 1
    if doc.generic:
        return _check_generic_report(command, q, out)
    bd, g = doc.bd, doc.g
    if command in ("validate", "all"):
        report = out if command == "validate" else out["validate"]
        ref.check_validate(bd, report["valid"])
        expect(report["issues"] == [], "validation issues on valid data")
    if command in ("genus", "all"):
        ref.check_genus(bd, out["genus"])
    if command in ("tchi", "all"):
        rows = out["characters"] if command == "tchi" else out["tchi"]
        ref.check_tchi(bd, g, {_char_key(r["character"]): (r["t"], r["u"]) for r in rows})
    if command in ("dims", "all"):
        report = out if command == "dims" else out["dims"]
        dims = {_char_key(r["character"]): r["dim"] for r in report["characters"]}
        ref.check_dims(g, q, dims, report.get("total"))
        answers["dims"] = dims
    if command in ("nonspecial", "degree-gm1"):
        family = "integral" if command == "nonspecial" else "gm1"
        divisors = [(tuple(d["buckets"]), d["p"]) for d in out["divisors"]]
        ref.check_family(bd, family, out["count"], divisors)
        answers[family] = out["count"]
    if command == "all" and "counts" in out:
        for family, key in (("integral", "nonspecial"), ("gm1", "degree_gm1")):
            ref.check_family(bd, family, out["counts"][key])
            if family in answers:
                expect(out["counts"][key] == answers[family], f"all: {key} count differs from the command")
    if command == "hchi":
        for r in out["characters"]:
            ref.check_hchi(bd, _char_key(r["character"]), r["branch_exponents"], r["infinity_exponent"],
                           r["degree"])
    if command == "omega":
        for r in out["characters"]:
            ref.check_omega(g, q, r["degree"])
    if command == "traces":
        traces = {tuple(r["tau"]): complex(*r["value"]) for r in out["traces"]}
        expect(len(traces) == math.prod(bd.orders) - 1, "traces miss a nontrivial element")
        ref.check_traces(bd.orders, answers.get("dims", {}), traces)
    if command == "chevalley-weil":
        mult = {_char_key(r["irrep"]): r["multiplicity"] for r in out["multiplicities"]}
        expect(mult == answers.get("dims"), "Chevalley-Weil multiplicities differ from dims")
    if command in ("jacobian", "all"):
        rep = out if command == "jacobian" else out["jacobian"]
        ref.check_jacobian(
            bd.orders, g,
            {_char_key(r["character"]): r["multiplicity"] for r in rep["analytic"]},
            {_char_key(r["character"]): r["multiplicity"] for r in rep["rational"]},
            [o["dim_A"] for o in rep["orbits"]],
            [(p["dim"], p["dim_from_quotient"]) for p in rep["quotients"]],
        )


def _check_generic_report(command, q, out):
    """The S3 document: four transpositions over the line, genus 1."""
    g = 1
    classes = [(4, 2)]  # (branch count, order) of the transposition class
    rows = {"sgn": [1]}
    if command in ("validate", "all"):
        report = out if command == "validate" else out["validate"]
        expect(report["valid"] and not report["issues"], "the S3 cover is valid")
    if command in ("genus", "all"):
        expect(out["genus"] == g, "S3 cover genus")
    if command in ("tchi", "all"):
        got = out["characters"] if command == "tchi" else out["tchi"]
        expect([(r["character"], r["t"], r["u"]) for r in got] == [("sgn", 2, [1])], "S3 t-invariants")
    if command == "hchi":
        expect([(r["branch_exponents"], r["infinity_exponent"], r["degree"]) for r in out["characters"]]
               == [([1, 1, 1, 1], -2, 0)], "S3 h_chi divisor")
    if command == "omega":
        for r in out["characters"]:
            ref.check_omega(g, q, r["degree"])
    if command in ("dims", "all"):
        report = out if command == "dims" else out["dims"]
        expected = ref.generic_dims(0, q, g, classes, rows)
        got = {r["character"]: r["dim"] for r in report["characters"]}
        expect(got == {name: expected[name] for name in rows}, f"S3 dims at q = {q}")
    if command == "chevalley-weil":
        total = sum(r["dim"] * r["multiplicity"] for r in out["multiplicities"])
        expect(all(r["multiplicity"] >= 0 for r in out["multiplicities"]), "negative multiplicity")
        expect(total == (2 * q - 1) * (g - 1) + ref.delta(g, q), "S3 Chevalley-Weil total")


class Spawner:
    """Runs ``python -m galcov.cli`` children from a small process forked
    before galcov is imported.  A child's peak RSS counts its parent's pages
    until exec, so children of the benchmark's own process would report the
    benchmark's size; children of the spawner report their own."""

    def __init__(self, root: Path):
        ctx = multiprocessing.get_context("fork")
        self.conn, child = ctx.Pipe()
        self.proc = ctx.Process(target=_spawn_loop, args=(child, root), daemon=True)
        self.proc.start()
        child.close()

    def execute(self, argv):
        self.conn.send(argv)
        result = self.conn.recv()
        if isinstance(result, Exception):
            raise result
        return result

    def close(self) -> float:
        """Stops the spawner; returns the largest child's peak RSS in MB."""
        self.conn.send(None)
        peak = self.conn.recv()
        self.proc.join()
        return peak

    def kill(self):
        if self.proc.is_alive():
            self.proc.kill()
        self.proc.join()


def _spawn_loop(conn, root: Path):
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    while (argv := conn.recv()) is not None:
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "galcov.cli", *argv],
                cwd=root, env=env, capture_output=True, text=True, timeout=120,
            )
            conn.send((proc.returncode, proc.stdout, proc.stderr))
        except Exception as exc:
            conn.send(exc)
    conn.send(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024)


def inprocess_executor(G):
    """``cli.main(argv)`` with stdout and stderr captured; an uncaught
    exception becomes exit 1 with its traceback, as in a child process."""

    def execute(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = G.cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception:
                traceback.print_exc()
                code = 1
        return code, out.getvalue(), err.getvalue()

    return execute
