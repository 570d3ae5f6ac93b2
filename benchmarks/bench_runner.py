"""Standalone benchmark harness: ``python benchmarks/bench_runner.py``.

One registry of benches, each a :class:`Bench` record that declares
its artifact, how to run it, and its gates as data.  The runner is one
loop over the registry: run a bench, evaluate its gates, compare its
timings against the committed artifact, write the artifact.

Artifacts (one ``BENCH_<name>.json`` per bench, in registry order):

``substrate``  microbenchmarks of the simulation substrate (event churn,
               resource contention, mailbox churn, one collective).
``kernels``    scalar ``predict_*`` loop vs one vectorized kernel
               evaluation of the same grid; gates the speedup floor.
``obs``        observability overhead (``bench_obs_overhead.py``).
``discover``   hierarchy-discovery round trip (``bench_discover.py``).
``scale``      macro-event vs object-event engine (``bench_scale.py``).
``tuning``     schedule auto-tuner (``bench_tuning.py``).
``serve``      open-loop serving layer (``bench_serve.py``).
``dynamics``   churn overhead and calibration fit (``bench_dynamics.py``).
``sweep``      wall-clock of ``python -m repro.experiments all``, serial
               and parallel, plus a cold/warm pair against a fresh
               persistent cache (warm must not be slower, and its output
               must be byte-identical).

Each artifact holds ``benchmark``, ``machine`` (host CPU count, python,
platform), an optional ``note``, and one entry per scope: ``--quick``
results land under ``"quick"`` and full runs under ``"full"``, and a
write keeps the other scope already in the file.

``--check`` evaluates every gate, then compares each bench's timings
with the committed repo-root artifact and fails on a slowdown past the
bench's regression limit (default 25%).  That comparison is refused,
once per artifact, when the committed file was recorded on a different
machine (``cpu_count`` or python major.minor differ): cross-host
wall-clock ratios are noise.  The gates still apply.  With ``--check``
nothing is written unless ``--output-dir`` is given.

A bench module runs on its own with the same options:
``python benchmarks/bench_scale.py [--quick] [--check] [--output-dir D]``.
"""

from __future__ import annotations

import argparse
import json
import operator
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
import typing as t
from dataclasses import dataclass
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"

#: Wall-clock of ``python -m repro.experiments all`` at the seed commit
#: (pre-``repro.perf``), median of 3 on the reference 1-CPU container.
SEED_BASELINE_SECONDS = 5.918

#: Reduced experiment subset for ``--quick`` (CI smoke).
QUICK_EXPERIMENTS = ["fig3a", "fig4a", "model-vs-sim"]

#: Default regression limit: ``--check`` fails beyond this slowdown.
REGRESSION_LIMIT = 1.25

#: Minimum vectorized-vs-scalar speedup ``--check`` accepts.
KERNEL_SPEEDUP_FLOOR = 5.0

#: A warm-cache run may exceed the cold run by at most this factor
#: (small head-room for timer noise; the real expectation is warm <<
#: cold).
WARM_CACHE_LIMIT = 1.05

_OPS = {"<": operator.lt, "<=": operator.le, ">": operator.gt,
        ">=": operator.ge, "==": operator.eq}


@dataclass(frozen=True)
class Gate:
    """One pass/fail check on a fresh entry: ``value <op> bound``.

    A floor uses ``>=`` or ``>``, a ceiling ``<=`` or ``<``; the
    defaults make a boolean gate (``value == True``).
    """

    label: str
    value: float | bool
    op: str = "=="
    bound: float | bool = True

    @property
    def ok(self) -> bool:
        return _OPS[self.op](self.value, self.bound)

    def __str__(self) -> str:
        if self.op == "==":
            return f"{self.label}: {self.value}"
        return f"{self.label}: {self.value:.4g} {self.op} {self.bound:.4g}"


def _no_gates(entry: t.Any) -> list[Gate]:
    return []


def _no_timings(scope: dict) -> dict[str, float | None]:
    return {}


@dataclass(frozen=True)
class Bench:
    """One benchmark: what it runs, how it is gated, where it is written.

    ``run(quick)`` returns the scope entry.  ``gates(entry)`` declares
    the pass/fail checks on it.  ``timings(scope)`` maps labels to
    seconds; it is applied to the fresh entry and to the committed
    artifact's scope, and each label's ratio is gated at
    ``regression_limit``.
    """

    artifact: str
    heading: str
    benchmark: str
    note: str | None
    run: t.Callable[[bool], t.Any]
    gates: t.Callable[[t.Any], list[Gate]] = _no_gates
    timings: t.Callable[[dict], dict[str, float | None]] = _no_timings
    regression_limit: float = REGRESSION_LIMIT


# -- substrate microbenchmarks -------------------------------------------------
def _bench_timeout_churn(n: int) -> dict:
    from repro.sim.engine import Engine

    def chain(engine, count):
        for _ in range(count):
            yield engine.timeout(0.001)

    engine = Engine()
    engine.process(chain(engine, n))
    start = time.perf_counter()
    engine.run()
    elapsed = time.perf_counter() - start
    return {
        "name": "engine_timeout_churn",
        "what": f"one process yielding {n} back-to-back timeouts",
        "events": engine.events_processed,
        "seconds": elapsed,
        "events_per_second": engine.events_processed / elapsed,
    }


def _bench_resource_contention(processes: int, rounds: int) -> dict:
    from repro.sim.engine import Engine
    from repro.sim.resources import Resource

    def worker(resource, count):
        for _ in range(count):
            yield from resource.occupy(0.01)

    engine = Engine()
    cpu = Resource(engine, capacity=1, name="cpu")
    for _ in range(processes):
        engine.process(worker(cpu, rounds))
    start = time.perf_counter()
    engine.run()
    elapsed = time.perf_counter() - start
    return {
        "name": "resource_contention",
        "what": f"{processes} processes x {rounds} holds of one capacity-1 resource",
        "events": engine.events_processed,
        "seconds": elapsed,
        "events_per_second": engine.events_processed / elapsed,
    }


def _bench_store_churn(pairs: int, messages: int) -> dict:
    from repro.sim.engine import Engine
    from repro.sim.resources import Store

    def producer(engine, store, count):
        for i in range(count):
            yield engine.timeout(0.001)
            store.put(i)

    def consumer(store, count):
        for _ in range(count):
            yield store.get()

    engine = Engine()
    for _ in range(pairs):
        store = Store(engine)
        engine.process(producer(engine, store, messages))
        engine.process(consumer(store, messages))
    start = time.perf_counter()
    engine.run()
    elapsed = time.perf_counter() - start
    return {
        "name": "store_churn",
        "what": f"{pairs} producer/consumer pairs x {messages} messages",
        "events": engine.events_processed,
        "seconds": elapsed,
        "events_per_second": engine.events_processed / elapsed,
    }


def _bench_gather_collective(n: int) -> dict:
    from repro.cluster.presets import ucf_testbed
    from repro.collectives import RootPolicy, run_gather

    topology = ucf_testbed(10)
    start = time.perf_counter()
    outcome = run_gather(topology, n, root=RootPolicy.FASTEST, seed=0)
    elapsed = time.perf_counter() - start
    return {
        "name": "gather_collective",
        "what": f"run_gather(testbed(10), n={n}, fastest root)",
        "simulated_time": outcome.time,
        "seconds": elapsed,
    }


def run_substrate(quick: bool) -> dict:
    scale = 1 if quick else 4
    repeats = 1 if quick else 3
    benches = [
        lambda: _bench_timeout_churn(10_000 * scale),
        lambda: _bench_resource_contention(20, 100 * scale),
        lambda: _bench_store_churn(10, 200 * scale),
        lambda: _bench_gather_collective(25_600 * scale),
    ]
    results = {}
    for bench in benches:
        rounds = [bench() for _ in range(repeats)]
        best = min(rounds, key=lambda r: r["seconds"])
        best["repeats"] = repeats
        name = best.pop("name")
        results[name] = best
        print(f"  {name:22s} {best['seconds']*1e3:8.1f} ms"
              + (f"  ({best['events_per_second']:,.0f} events/s)"
                 if "events_per_second" in best else ""))
    return results


# -- sweep wall-clock ----------------------------------------------------------
def _time_sweep(
    experiments: list[str],
    jobs: int,
    runs: int,
    cache_args: tuple[str, ...] = ("--no-cache",),
) -> tuple[list[float], list[str]]:
    """Timings and captured stdout of ``runs`` sweep subprocesses.

    Default ``--no-cache`` keeps the regression-comparable timings
    measuring the simulator, not the persistent cache (and comparable
    to the pre-cache seed baseline).
    """
    command = [sys.executable, "-m", "repro.experiments", *experiments, *cache_args]
    if jobs != 1:
        command += ["--jobs", str(jobs)]
    timings, outputs = [], []
    for _ in range(runs):
        start = time.perf_counter()
        result = subprocess.run(
            command, capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
        )
        elapsed = time.perf_counter() - start
        if result.returncode != 0:
            raise RuntimeError(
                f"sweep failed (rc={result.returncode}):\n{result.stderr[-2000:]}"
            )
        timings.append(elapsed)
        outputs.append(result.stdout)
    return timings, outputs


def run_sweep(quick: bool, runs: int, parallel_jobs: int) -> dict:
    """Serial and parallel sweep timings, then the cold/warm cache pair."""
    experiments = QUICK_EXPERIMENTS if quick else ["all"]
    label = " ".join(experiments)
    print(f"  timing: python -m repro.experiments {label}  (x{runs})")
    serial, _ = _time_sweep(experiments, 1, runs)
    print(f"    serial: {', '.join(f'{s:.3f}s' for s in serial)}")
    parallel, _ = _time_sweep(experiments, parallel_jobs, runs)
    print(f"    --jobs {parallel_jobs}: "
          f"{', '.join(f'{s:.3f}s' for s in parallel)}")
    entry = {
        "experiments": label,
        "runs": runs,
        "serial_seconds": round(statistics.median(serial), 3),
        "serial_all_runs": [round(s, 3) for s in serial],
        "parallel_jobs": parallel_jobs,
        "parallel_seconds": round(statistics.median(parallel), 3),
    }
    if not quick:
        entry["seed_baseline_seconds"] = SEED_BASELINE_SECONDS
        entry["speedup_vs_seed"] = round(
            SEED_BASELINE_SECONDS / entry["serial_seconds"], 2
        )
    print("  persistent cache (cold vs warm, fresh --cache-dir):")
    with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as tmp:
        cold, cold_out = _time_sweep(experiments, 1, 1, ("--cache-dir", tmp))
        warm, warm_out = _time_sweep(experiments, 1, 1, ("--cache-dir", tmp))
    cache = entry["cache"] = {
        "experiments": label,
        "cold_seconds": round(cold[0], 3),
        "warm_seconds": round(warm[0], 3),
        "warm_over_cold": round(warm[0] / cold[0], 2),
        "outputs_identical": cold_out[0] == warm_out[0],
    }
    print(f"    cold: {cache['cold_seconds']:.3f}s  "
          f"warm: {cache['warm_seconds']:.3f}s  "
          f"({cache['warm_over_cold']:.2f}x, outputs identical: "
          f"{cache['outputs_identical']})")
    return entry


def _sweep_gates(entry: dict) -> list[Gate]:
    cache = entry["cache"]
    return [
        Gate("warm cache seconds", cache["warm_seconds"], "<=",
             cache["cold_seconds"] * WARM_CACHE_LIMIT),
        Gate("warm cache output identical to cold", cache["outputs_identical"]),
    ]


# -- analytic kernels ----------------------------------------------------------
def run_kernels(quick: bool) -> dict:
    """Scalar ``predict_*`` loop vs one vectorized kernel evaluation.

    Both paths produce the exact same ledger totals (asserted here);
    the entry records the wall-clock ratio on an identical grid.
    """
    import numpy as np

    from repro.cluster.presets import ucf_testbed
    from repro.model.kernels import BroadcastKernel, GatherKernel
    from repro.model.params import calibrate
    from repro.model.predict import predict_broadcast, predict_gather

    params = calibrate(ucf_testbed(10))
    sizes = [1_000, 16_000, 128_000, 1_000_000]
    copies = 8 if quick else 64
    repeats = 1 if quick else 3
    points = [
        (n, root) for _ in range(copies) for n in sizes for root in range(params.p)
    ]
    ns = np.array([n for n, _ in points], dtype=np.int64)
    roots = np.array([root for _, root in points], dtype=np.int64)

    def scalar_gather():
        return [predict_gather(params, n, root=root).total for n, root in points]

    def kernel_gather():
        return GatherKernel(params).evaluate(ns, roots=roots).totals

    def scalar_broadcast():
        return [
            predict_broadcast(params, n, root=root, phases="two").total
            for n, root in points
        ]

    def kernel_broadcast():
        return BroadcastKernel(params).evaluate(ns, roots=roots, phases="two").totals

    entry = {}
    for name, scalar, kernel in (
        ("gather", scalar_gather, kernel_gather),
        ("broadcast", scalar_broadcast, kernel_broadcast),
    ):
        scalar_s, kernel_s = [], []
        for _ in range(repeats):
            start = time.perf_counter()
            scalar_totals = scalar()
            scalar_s.append(time.perf_counter() - start)
            start = time.perf_counter()
            kernel_totals = kernel()
            kernel_s.append(time.perf_counter() - start)
        if list(kernel_totals) != scalar_totals:
            raise RuntimeError(f"{name}: kernel totals diverge from scalar")
        best_scalar, best_kernel = min(scalar_s), min(kernel_s)
        entry[name] = {
            "points": len(points),
            "scalar_seconds": round(best_scalar, 4),
            "kernel_seconds": round(best_kernel, 4),
            "speedup": round(best_scalar / best_kernel, 1),
        }
        print(f"  {name:10s} {len(points)} points: scalar "
              f"{best_scalar * 1e3:7.1f} ms, kernel {best_kernel * 1e3:6.1f} ms "
              f"({entry[name]['speedup']:.1f}x)")
    return entry


def _kernel_gates(entry: dict) -> list[Gate]:
    return [
        Gate(f"kernel {name} speedup", bench["speedup"], ">=", KERNEL_SPEEDUP_FLOOR)
        for name, bench in entry.items()
    ]


SUBSTRATE = Bench(
    artifact="BENCH_substrate.json",
    heading="substrate microbenchmarks:",
    benchmark="repro.sim substrate microbenchmarks",
    note=None,
    run=run_substrate,
)

KERNELS = Bench(
    artifact="BENCH_kernels.json",
    heading="analytic kernels (scalar loop vs vectorized):",
    benchmark="repro.model.kernels vs scalar predict_*",
    note=(
        "identical grids, bit-identical totals (asserted during the "
        "run); the speedup is pure vectorization"
    ),
    run=run_kernels,
    gates=_kernel_gates,
)


def sweep_bench(runs: int = 3, jobs: int = 4) -> Bench:
    """The sweep bench; ``runs`` only applies to full runs (quick runs once)."""
    return Bench(
        artifact="BENCH_sweep.json",
        heading="experiment sweep:",
        benchmark="python -m repro.experiments wall-clock",
        note=(
            "the CLI clamps --jobs to the host's cores (serially on a "
            "1-CPU host), so the parallel timing matches serial there; "
            "the headline speedup is serial vs the recorded seed "
            "baseline; serial/parallel timings use --no-cache (the "
            "'cache' block times the persistent cache separately)"
        ),
        run=lambda quick: run_sweep(quick, 1 if quick else runs, jobs),
        gates=_sweep_gates,
        timings=lambda scope: {"sweep serial": scope.get("serial_seconds")},
    )


def registry(runs: int = 3, jobs: int = 4) -> list[Bench]:
    """Every bench, in the order the runner executes them."""
    import bench_discover
    import bench_dynamics
    import bench_obs_overhead
    import bench_scale
    import bench_serve
    import bench_tuning

    return [
        SUBSTRATE, KERNELS, bench_obs_overhead.BENCH, bench_discover.BENCH,
        bench_scale.BENCH, bench_tuning.BENCH, bench_serve.BENCH,
        bench_dynamics.BENCH, sweep_bench(runs, jobs),
    ]


# -- the loop ------------------------------------------------------------------
def machine_info() -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.system().lower(),
    }


def _other_host(committed: dict) -> str | None:
    """Why timings recorded on ``committed`` (a machine block) are not
    comparable here, or ``None``.  Python patch versions are ignored:
    they don't move wall-clock, and CI images bump them constantly."""
    current = machine_info()
    if committed.get("cpu_count") != current["cpu_count"]:
        return f"cpu_count {committed.get('cpu_count')} != {current['cpu_count']}"
    theirs = str(committed.get("python", "")).split(".")[:2]
    ours = current["python"].split(".")[:2]
    if theirs != ours:
        return f"python {'.'.join(theirs) or '?'} != {'.'.join(ours)}"
    return None


def check(bench: Bench, entry: t.Any, scope: str, baseline: Path) -> bool:
    """Print every gate's verdict and every timing comparison against
    the committed ``baseline`` artifact; True when anything regressed."""
    regressed = False
    for gate in bench.gates(entry):
        print(f"  {gate} -> {'ok' if gate.ok else 'REGRESSION'}")
        regressed |= not gate.ok
    timings = bench.timings(entry)
    if not timings:
        return regressed
    if not baseline.exists():
        print(f"  no committed {baseline.name}; skipping the timing comparison")
        return regressed
    committed = json.loads(baseline.read_text())
    reason = _other_host(committed.get("machine", {}))
    if reason:
        print(f"  {baseline.name}: committed on a different machine "
              f"({reason}); refusing the timing comparison")
        return regressed
    before = bench.timings(committed.get(scope, {}))
    limit = bench.regression_limit
    for label, seconds in timings.items():
        base = before.get(label)
        if not base:
            print(f"  committed {baseline.name} has no {scope} {label}; skipping")
            continue
        ratio = seconds / base
        over = ratio > limit
        print(f"  {label}: {seconds:.3f}s vs committed {base:.3f}s "
              f"({ratio:.2f}x, limit {limit:.2f}x) -> "
              f"{'REGRESSION' if over else 'ok'}")
        regressed |= over
    return regressed


def write(bench: Bench, entry: t.Any, scope: str, output_dir: Path) -> None:
    """Write ``bench``'s artifact, keeping the other scope already there."""
    doc = {"benchmark": bench.benchmark, "machine": machine_info()}
    if bench.note is not None:
        doc["note"] = bench.note
    doc[scope] = entry
    path = output_dir / bench.artifact
    if path.exists():
        previous = json.loads(path.read_text())
        for key in ("full", "quick"):
            if key in previous and key not in doc:
                doc[key] = previous[key]
    output_dir.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {path}")


def run_suite(
    benches: t.Iterable[Bench],
    *,
    quick: bool,
    check_gates: bool,
    output_dir: Path | None,
    baseline_dir: Path = REPO_ROOT,
) -> int:
    """Run, gate and write each bench; 1 when ``check_gates`` found a
    regression, else 0.  Nothing is written when ``output_dir`` is None."""
    scope = "quick" if quick else "full"
    regressed = False
    for bench in benches:
        print(bench.heading)
        entry = bench.run(quick)
        if check_gates:
            regressed |= check(bench, entry, scope, baseline_dir / bench.artifact)
        if output_dir is not None:
            write(bench, entry, scope, output_dir)
    return 1 if regressed else 0


def main(argv: list[str] | None = None, benches: list[Bench] | None = None) -> int:
    """CLI entry point; ``benches`` narrows the run (default: the registry)."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="CI-sized run (reduced subset, fewer repeats)")
    parser.add_argument("--check", action="store_true",
                        help="fail on >25%% regression vs the committed JSON")
    parser.add_argument("--runs", type=int, default=3,
                        help="sweep timing repetitions (median is reported)")
    parser.add_argument("--jobs", type=int, default=4,
                        help="worker count for the parallel sweep timing")
    parser.add_argument("--output-dir", type=Path, default=None,
                        help="where to write the BENCH_*.json artifacts "
                        "(default: the repo root; with --check, only when given)")
    args = parser.parse_args(argv)
    for path in (SRC, REPO_ROOT / "benchmarks"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    output_dir = args.output_dir
    if output_dir is None and not args.check:
        output_dir = REPO_ROOT
    return run_suite(
        benches if benches is not None else registry(args.runs, args.jobs),
        quick=args.quick, check_gates=args.check, output_dir=output_dir,
    )


if __name__ == "__main__":
    raise SystemExit(main())
