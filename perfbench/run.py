"""Benchmark runner for galcov.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: ``galcov`` is imported from
``src/`` and the CLI runs as ``python -m galcov.cli``.  One client, closed
loop, single process.  A run attempts whole passes: at least ``MIN_OPS``
operations, then more passes while one more is expected to end within
``--seconds``.  Every output is checked after its pass, outside the timed
region.  The last line of stdout
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(end-to-end metrics with ``--trace 0``, per-layer metrics with ``--trace 1``).
See README.md in this directory.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
RUN_DIR = ROOT / ".perfbench_runs"
MIN_OPS = 100
SETUP_SAMPLES = 15
STARTUP_REPEATS = 5

WORKLOADS = ("dual-sweep", "divisor-families", "random-divisors", "cli")

COUNTS = (
    "groups.u_value.calls", "groups.characters.yielded", "groups.elements.yielded",
    "groups.smith_diagonal.calls", "cover.t_fraction.calls", "cover.validate.calls",
    "cover.quotient.calls", "jacobian.decompose.calls", "differentials.delta_info.calls",
    "differentials.raw_dimension_value.calls", "differentials.eichler_trace.calls",
    "differentials.cw_multiplicity.calls", "enumeration.count_by_cardinality.calls",
    "enumeration.divisors.yielded", "divisors.InvariantDivisor.built", "divisors.r_chi.calls",
    "equations.build_cover.calls", "equations.check_nondegeneracy.calls", "config.parse_config.calls",
)
SELF_TIMES = ("groups", "cover", "jacobian", "differentials", "enumeration", "divisors", "equations", "config", "cli")


def drop_galcov() -> dict:
    """Remove the loaded copy of the package from ``sys.modules``; returns it."""
    return {name: sys.modules.pop(name) for name in list(sys.modules) if name == "galcov" or name.startswith("galcov.")}


def import_galcov():
    """A fresh import of the package: drop any loaded copy first."""
    drop_galcov()
    package = importlib.import_module("galcov")
    importlib.import_module("galcov.cli")
    return package


class Workload:
    """Binds a workload name to the function that makes its passes and, for
    ``cli``, to its files and to the spawner of its child processes (None
    calls ``cli.main`` in-process)."""

    def __init__(self, name, seed, workdir: Path, spawner=None):
        self.name, self.seed, self.workdir = name, seed, workdir
        self.spawner = spawner
        self.previous: dict[str, str] = {}

    def setup(self, G):
        if self.name == "cli":
            workloads.cli_setup_files(self.workdir)
            self.execute = self.spawner.execute if self.spawner else workloads.inprocess_executor(G)

    def make_pass(self, G, k):
        if self.name == "cli":
            return workloads.cli_ops(self.execute, self.seed, k, self.workdir, ROOT, self.previous)
        make = {
            "dual-sweep": workloads.dual_sweep,
            "divisor-families": workloads.divisor_families,
            "random-divisors": workloads.random_divisors,
        }[self.name]
        return make(G, self.seed, k)


class SetupClock:
    """Set-up time: a fresh import of ``galcov`` and ``galcov.cli``, the
    workload's files, and the inputs of its first pass.  The first sample
    builds what the run uses; the others are taken between operations, every
    ``seconds / SETUP_SAMPLES`` seconds, so that their median spans the same
    stretch of the machine's time as the operations do.  Those build into a
    workload of their own and put the run's copy of the package back."""

    def __init__(self, wl, seconds: float):
        self.wl, self.interval = wl, seconds / SETUP_SAMPLES
        self.samples: list[float] = []

    def first(self):
        t0 = time.perf_counter()
        G = import_galcov()
        self.wl.setup(G)
        ops = self.wl.make_pass(G, 0)
        self.last = time.perf_counter()
        self.samples.append(self.last - t0)
        return G, ops

    def between(self):
        if time.perf_counter() - self.last < self.interval:
            return
        kept = drop_galcov()
        try:
            t0 = time.perf_counter()
            probe = Workload(self.wl.name, self.wl.seed, self.wl.workdir / "setup", self.wl.spawner)
            G = import_galcov()
            probe.setup(G)
            probe.make_pass(G, 0)
            self.last = time.perf_counter()
            self.samples.append(self.last - t0)
        finally:
            drop_galcov()
            sys.modules.update(kept)
            # the dropped copy is cyclic garbage; collect it here rather than
            # in the middle of a timed operation
            gc.collect()


class Tally:
    def __init__(self):
        self.attempted = self.failed = 0
        self.correct = True
        # latencies of completed operations, by position in the pass
        self.latencies: dict[int, list[float]] = {}
        self.op_seconds = 0.0


def run_ops(ops, tracer=None, between=None):
    """Time each operation alone, calling ``between()`` after each, outside
    the timing; returns (op, result, error, seconds) rows."""
    results = []
    for j, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id = j
            sid = tracer.open("bench.op")
        t0 = time.perf_counter()
        try:
            result, error = op.run(), None
        except Exception as exc:  # an operation the program could not complete
            result, error = None, exc
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.close(sid)
        results.append((op, result, error, dt))
        if between is not None:
            between()
    return results


def check_ops(tally: Tally, results) -> float:
    """Check every result of a pass, in order; returns the pass's op time."""
    for j, (op, result, error, dt) in enumerate(results):
        tally.attempted += 1
        tally.op_seconds += dt
        if error is None:
            try:
                op.check(result)
            except Exception as exc:
                if op.known_fault:
                    error = exc
                else:
                    tally.correct = False
                    print(f"check failed: {op.name}: {exc!r}", file=sys.stderr)
        if error is None:
            tally.latencies.setdefault(j, []).append(dt)
        else:
            tally.failed += 1
            if not op.known_fault:
                print(f"failed: {op.name}: {error!r}", file=sys.stderr)
    return sum(dt for *_, dt in results)


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(wl: Workload, seconds: float):
    clock = SetupClock(wl, seconds)
    G, first = clock.first()
    tally = Tally()
    start = time.perf_counter()
    k = 0
    # whole passes only, and no pass that would end past the deadline once
    # MIN_OPS operations have been attempted
    while tally.attempted < MIN_OPS or (time.perf_counter() - start) * (k + 1) / k <= seconds:
        check_ops(tally, run_ops(first if k == 0 else wl.make_pass(G, k), between=clock.between))
        k += 1
    # on cli, the largest child's peak; the spawner stops here
    peak_mb = wl.spawner.close() if wl.spawner else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # each operation of a pass at its mean latency over the run's passes.  A
    # single run of a short operation reads the machine's speed at one
    # instant, and where that speed switches between two levels, a percentile
    # of single runs jumps between them from one run of the benchmark to the
    # next; the mean over the passes reads it over the whole run.
    lat = [statistics.fmean(v) for v in tally.latencies.values()]
    deciles = statistics.quantiles(lat, n=10, method="inclusive")
    completed = tally.attempted - tally.failed
    metrics = {
        "setup_s": metric(statistics.median(clock.samples), "s"),
        "ops_per_s": metric(completed / tally.op_seconds, "ops/s"),
        "op_p50_ms": metric(1000 * statistics.median(lat), "ms"),
        "op_p90_ms": metric(1000 * deciles[8], "ms"),
        "peak_rss_mb": metric(peak_mb, "MB"),
    }
    print(f"{wl.name}: {k} passes, {tally.attempted} operations, {len(clock.samples)} set-ups", file=sys.stderr)
    return tally, metrics


def startup_ms() -> float:
    cmd = [sys.executable, "-c", "import galcov.cli"]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    times = []
    for _ in range(STARTUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, env=env, check=True, timeout=60)
        times.append(1000 * (time.perf_counter() - t0))
    return statistics.median(times)


def per_layer(wl: Workload):
    """One untraced pass, then the same pass traced on freshly built inputs;
    ``--seconds`` does not apply."""
    G = import_galcov()
    wl.setup(G)
    tally = Tally()
    plain = check_ops(tally, run_ops(wl.make_pass(G, 0)))
    ops = wl.make_pass(G, 0)
    tracer = Tracer()
    tracer.install(G)
    try:
        results = run_ops(ops, tracer)
    finally:
        tracer.uninstall()
    traced = check_ops(tally, results)
    tracer.write(RUN_DIR / f"spans-{wl.name}-seed{wl.seed}")
    selfs = tracer.self_times()
    metrics = {name: metric(tracer.counts.get(name, 0), "count") for name in COUNTS}
    metrics.update({f"{layer}.self_s": metric(selfs.get(layer, 0.0), "s") for layer in SELF_TIMES})
    metrics["cli.format_report.s"] = metric(tracer.span_total("cli.format_report"), "s")
    metrics["cli.startup_ms"] = metric(startup_ms(), "ms")
    metrics["trace.overhead_ratio"] = metric(traced / plain, "ratio")
    return tally, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "galcov" / "__init__.py").is_file():
        print(f"no galcov sources under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)
    workdir = RUN_DIR / f"work-{args.workload}-{args.seed}"
    # forked before galcov is imported, so that it stays small
    spawner = workloads.Spawner(ROOT) if args.workload == "cli" and not args.trace else None
    wl = Workload(args.workload, args.seed, workdir, spawner)
    try:
        tally, metrics = per_layer(wl) if args.trace else end_to_end(wl, args.seconds)
    finally:
        if spawner is not None:
            spawner.kill()
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
