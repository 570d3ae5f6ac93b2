"""Benchmark of the ``repro`` simulator: one workload, one seed, one run.

    python3 perfbench/run.py --workload macro-collectives --seed 1 --seconds 20 --trace 0

Runs the workload's iterations one after another, each in a fresh
process (``worker.py``), until ``--seconds`` of iterations are spent
(at least three untraced ones, or one of each kind with ``--trace 1``).
Every iteration's outputs are checked and digested; digests must agree
across iterations, and the paper sweep's rendered text must equal what
``python -m repro.experiments <ids> --no-cache [--seed N]`` prints.

Prints a table of every metric with its unit, the simulated output
digest and the host fingerprint, writes the full record under
``.perfbench/results/``, and ends with one JSON line::

    {"correct": true, "attempted": 12, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are ``BENCHMARK.json``'s ``end_to_end``
list: medians over the untraced iterations, with times scaled to a
reference host speed by a calibration probe run before each iteration
(see :func:`summarize`).  With ``--trace 1`` they are its ``per_layer``
list, measured on traced iterations interleaved with untraced ones
(``trace_overhead`` compares the two).  Exits 2 without a result line
when the checkout lacks the program or ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
import typing as t
from importlib import metadata
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Untraced iterations a ``--trace 0`` run always makes.
MIN_ITERATIONS = 3
#: Host seconds after which a run stops its workers (it must end in 180).
RUN_DEADLINE_S = 170.0
#: :func:`calibrate`'s typical time on a 2-CPU x86_64 host (Python 3.11).
#: Time metrics are reported at this reference speed (see summarize).
REFERENCE_CALIBRATION_S = 0.12
#: How far the workloads' times follow the calibration's when the host
#: speeds up or slows down.  Regressing log run time on log calibration
#: time over ten runs each on a shared 2-vCPU VM gave 0.85
#: (macro-collectives), 0.65 (serve-knee) and 0.26 (paper-sweep): the
#: probe, a small cache-resident loop, swings more than the programs do.
HOST_SPEED_ELASTICITY = 0.5


class BenchError(Exception):
    """The benchmark cannot run in this checkout."""


def _clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def fingerprint() -> dict[str, t.Any]:
    """The host facts absolute timings are comparable within."""
    def version(package: str) -> str:
        try:
            return metadata.version(package)
        except metadata.PackageNotFoundError:
            return "missing"

    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "platform": platform.platform(),
        "machine": platform.machine(),
    }


def load_spec() -> dict[str, t.Any]:
    """``BENCHMARK.json`` plus sanity checks on the checkout."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program to benchmark: {ROOT / 'src' / 'repro'} is missing")
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        raise BenchError(f"{spec_path} is missing")
    return json.loads(spec_path.read_text())


def worker_env(workdir: Path) -> dict[str, str]:
    """Environment for workers: the checkout's sources, single-threaded
    numeric libraries, and every cache/temp file inside the checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["REPRO_CACHE_DIR"] = str(workdir / "cache")
    env["TMPDIR"] = str(workdir / "tmp")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def calibrate() -> float:
    """Host seconds of a fixed pure-Python mini event simulation.

    Generators resumed from a heap, like the simulator's engine, but
    no ``repro`` code, so no change to the program can move it.  The
    host's speed drifts by tens of percent over minutes; scaling a run's
    times by its median calibration (see ``HOST_SPEED_ELASTICITY``)
    removes part of that drift.
    """
    import heapq

    log: list[tuple[int, int, float]] = []

    def process(pid: int) -> t.Generator[float, float, None]:
        now = 0.0
        for step in range(400):
            now += 1.0 + ((pid * 7919 + step * 104729) % 1000) / 1000.0
            log.append((pid, step, (yield now)))

    started = time.perf_counter()
    processes = [process(pid) for pid in range(300)]
    heap = [(next(proc), pid) for pid, proc in enumerate(processes)]
    heapq.heapify(heap)
    while heap:
        now, pid = heapq.heappop(heap)
        try:
            heapq.heappush(heap, (processes[pid].send(now), pid))
        except StopIteration:
            pass
    return time.perf_counter() - started


class Iteration(t.NamedTuple):
    traced: bool
    record: dict[str, t.Any] | None  # None: the worker crashed
    setup_s: float
    error: str


def run_worker(
    args: argparse.Namespace, env: dict[str, str], traced: bool,
    spans_out: Path | None, deadline: float,
) -> Iteration:
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--size", args.size, "--trace", "1" if traced else "0",
    ]
    if spans_out is not None:
        command += ["--spans-out", str(spans_out)]
    spawned_at = _clock()
    try:
        done = subprocess.run(
            command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
            text=True, timeout=max(deadline - spawned_at, 1.0), check=False,
        )
    except subprocess.TimeoutExpired:
        return Iteration(traced, None, 0.0, "worker stopped at the run's deadline")
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return Iteration(traced, None, 0.0, f"worker exited with code {done.returncode}")
    try:
        record = json.loads(lines[-1])
    except json.JSONDecodeError:
        return Iteration(traced, None, 0.0, "worker printed no result record")
    return Iteration(traced, record, record["ready_at"] - spawned_at, "")


def iterate(
    args: argparse.Namespace, workdir: Path, deadline: float
) -> tuple[list[Iteration], list[float]]:
    """Run iterations until the next one would overrun ``--seconds``;
    three host-speed calibrations precede each iteration."""
    env = worker_env(workdir)
    for sub in ("cache", "tmp", "results", "traces"):
        (workdir / sub).mkdir(parents=True, exist_ok=True)
    iterations: list[Iteration] = []
    calibrations: list[float] = []
    started = _clock()
    while True:
        calibrations += [calibrate() for _ in range(3)]
        traced = bool(args.trace) and len(iterations) % 2 == 1
        spans_out = None
        if traced:
            spans_out = workdir / "traces" / (
                f"{args.workload}-seed{args.seed}-{len(iterations)}.jsonl"
            )
        iterations.append(run_worker(args, env, traced, spans_out, deadline))
        elapsed = _clock() - started
        if args.trace:
            enough = len(iterations) >= 2
        else:
            enough = len(iterations) >= MIN_ITERATIONS
        if enough and elapsed * (len(iterations) + 1) / len(iterations) > args.seconds:
            return iterations, calibrations


def check_cli(
    groups: list[dict[str, t.Any]], workdir: Path, deadline: float
) -> list[str]:
    """Labels whose in-process text differs from the CLI's output."""
    env = worker_env(workdir)
    mismatched: list[str] = []
    for group in groups:
        try:
            done = subprocess.run(
                [sys.executable, "-m", "repro.experiments", *group["args"]],
                cwd=ROOT, env=env, stdout=subprocess.PIPE,
                timeout=max(deadline - _clock(), 1.0), check=False,
            )
        except subprocess.TimeoutExpired:
            mismatched.extend(group["ids"])
            continue
        if done.returncode != 0 or hashlib.sha256(done.stdout).hexdigest() != group["sha256"]:
            mismatched.extend(group["ids"])
    return mismatched


def _median(values: t.Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def summarize(
    args: argparse.Namespace, iterations: list[Iteration], calibrations: list[float],
    workdir: Path, deadline: float,
) -> dict[str, t.Any]:
    """Failure accounting, medians, digests and the metric sets.

    Times are medians of host seconds scaled to the reference host
    speed, ``host_s * (REFERENCE_CALIBRATION_S / median(calibrations))
    ** HOST_SPEED_ELASTICITY`` (rates by the inverse), so runs on a
    momentarily slow host compare with runs on a fast one.  The raw host
    figures are kept alongside.
    """
    good = [it for it in iterations if it.record is not None]
    labels = sorted({op for it in good for op in it.record["ops"]})
    attempted = 0
    failed: dict[tuple[int, str], str] = {}
    reference: dict[str, str] = {}
    for index, it in enumerate(iterations):
        if it.record is None:
            attempted += max(len(labels), 1)
            for label in labels or ["iteration"]:
                failed[(index, label)] = it.error
            continue
        attempted += len(it.record["ops"])
        for label, why in it.record["failures"].items():
            failed[(index, label)] = why
        for label, digest in it.record["digests"].items():
            first = reference.setdefault(label, digest)
            if digest != first and (index, label) not in failed:
                failed[(index, label)] = "output differs from an earlier iteration"
    if good:
        for label in check_cli(good[0].record["cli_groups"], workdir, deadline):
            for index, it in enumerate(iterations):
                if it.record is not None:
                    failed.setdefault(
                        (index, label), "differs from `python -m repro.experiments` output"
                    )

    untraced = [it for it in good if not it.traced]
    traced = [it for it in good if it.traced]
    walls = [it.record["wall_s"] for it in untraced]
    host = {
        "setup_s": _median([it.setup_s for it in untraced]),
        "wall_s": _median(walls),
        "peak_rss_mb": _median([it.record["peak_rss_mb"] for it in untraced]),
        "ops_per_s": _median(
            [it.record["work_units"] / it.record["wall_s"] for it in untraced]
        ),
        "calibration_s": _median(calibrations),
    }
    speed = (REFERENCE_CALIBRATION_S / host["calibration_s"]) ** HOST_SPEED_ELASTICITY
    end_to_end = {
        "setup_s": host["setup_s"] * speed,
        "wall_s": host["wall_s"] * speed,
        "peak_rss_mb": host["peak_rss_mb"],
        "ops_per_s": host["ops_per_s"] / speed,
    }
    per_layer: dict[str, float] = {}
    if traced:
        for name in traced[0].record["layers"]:
            per_layer[name] = _median([it.record["layers"][name] for it in traced])
        per_layer["trace_overhead"] = (
            _median([it.record["wall_s"] for it in traced]) / _median(walls)
            if walls else 0.0
        )
    sim = good[0].record["sim"] if good else {}
    per_layer.update(sim)
    per_layer["fail_frac"] = len(failed) / attempted if attempted else 1.0
    digest = hashlib.sha256(
        json.dumps(sorted(reference.items())).encode()
    ).hexdigest()
    return {
        "attempted": attempted,
        "failed": failed,
        "end_to_end": end_to_end,
        "host": host,
        "per_layer": per_layer,
        "sim": sim,
        "digests": reference,
        "digest": digest,
        "samples": {
            "untraced": len(untraced), "traced": len(traced),
            "crashed": len(iterations) - len(good),
        },
        "work_unit": workloads.WORKLOADS[args.workload].work_unit,
        "iterations": [
            {"traced": it.traced, "setup_s": it.setup_s, "wall_s": it.record["wall_s"],
             "peak_rss_mb": it.record["peak_rss_mb"]}
            for it in good
        ],
        "calibrations": calibrations,
    }


def select(metrics: dict[str, float], wanted: list[dict[str, t.Any]]) -> dict[str, t.Any]:
    """Exactly the ``BENCHMARK.json`` metrics, zero for a layer the
    workload never enters."""
    return {
        m["name"]: {"value": float(metrics.get(m["name"], 0.0)), "unit": m["unit"]}
        for m in wanted
    }


def report(args: argparse.Namespace, spec: dict[str, t.Any], summary: dict[str, t.Any],
           workdir: Path) -> dict[str, t.Any]:
    """Print every metric with its unit, write the results record, and
    return the metrics of the result line."""
    samples = summary["samples"]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units["calibration_s"] = "s"

    def rows(title: str, metrics: dict[str, float]) -> None:
        print(title)
        for name, value in metrics.items():
            print(f"  {name:<36} {value:>16.8g} {units.get(name, '')}")

    print(f"workload {args.workload}  seed {args.seed}  size {args.size}  "
          f"iterations: {samples['untraced']} untraced, {samples['traced']} traced, "
          f"{samples['crashed']} crashed")
    rows(f"end to end (untraced; median of {samples['untraced']}; at reference host "
         f"speed; ops = simulated {summary['work_unit']}):", summary["end_to_end"])
    rows("host (raw medians; calibration_s is the host-speed probe):", summary["host"])
    rows("simulated (deterministic per seed):", summary["sim"])
    if args.trace:
        rows(f"per layer (traced; median of {samples['traced']}):", {
            name: value for name, value in summary["per_layer"].items()
            if name not in summary["sim"]
        })
    failed = summary["failed"]
    print(f"operations: attempted {summary['attempted']}, failed {len(failed)}, "
          f"fail_frac {summary['per_layer']['fail_frac']:.6g}")
    for (index, label), why in sorted(failed.items()):
        last = why.strip().splitlines()[-1] if why.strip() else ""
        print(f"  FAILED iteration {index} {label}: {last}")
    print(f"output digest {summary['digest']}")
    host = fingerprint()
    print("host " + json.dumps(host, sort_keys=True))
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "host": host,
        "samples": samples, "attempted": summary["attempted"],
        "failed": {f"{i}:{label}": why for (i, label), why in failed.items()},
        "end_to_end": summary["end_to_end"], "per_layer": summary["per_layer"],
        "host_medians": summary["host"], "calibrations": summary["calibrations"],
        "digest": summary["digest"], "digests": summary["digests"],
        "iterations": summary["iterations"],
    }
    out = workdir / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=2, sort_keys=True))
    print(f"record {out.relative_to(ROOT)}")
    kind = "per_layer" if args.trace else "end_to_end"
    return select(summary[kind], spec[kind])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: the same code path on small inputs (tests)")
    args = parser.parse_args(argv)
    # A terminated run raises SystemExit inside subprocess.run, which
    # then kills and reaps the worker it is waiting on.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        spec = load_spec()
    except BenchError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    workdir = ROOT / ".perfbench"
    deadline = _clock() + RUN_DEADLINE_S
    iterations, calibrations = iterate(args, workdir, deadline)
    summary = summarize(args, iterations, calibrations, workdir, deadline)
    metrics = report(args, spec, summary, workdir)
    failed = len(summary["failed"])
    print(json.dumps({
        "correct": failed == 0,
        "attempted": summary["attempted"],
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
