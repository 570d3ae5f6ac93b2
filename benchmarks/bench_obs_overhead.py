"""Observability-overhead benchmark: ``python benchmarks/bench_obs_overhead.py``.

The obs hooks sit on the simulator's hottest paths (every sync, every
send, the executor's result merge).  This bench pins down what they
cost, writing ``BENCH_obs.json``:

* **off** (no active observation) — the default path every experiment
  takes.  The hooks are single ``tracer.enabled`` reads that find
  ``False``.
* **metrics** (``observe()``) — counters/histograms/ledgers fed from
  the compact per-run records.
* **spans** (``observe(spans=True)``) — full span timelines.  Recorded
  for scale, never gated: span tracing deliberately turns every run's
  tracer on, and the simulator records each span live.

The gate (< 3%): the metrics path is *structurally* the off path plus
one ``Observation.record_run`` per run — same simulations, same
records, plus the deterministic merge.  So the gated number is that
ingestion work timed directly against the off wall-clock, which stays
stable on noisy shared hosts where an end-to-end A/B of two ~equal
wall times flaps by ±10%.  The end-to-end metrics/spans timings are
recorded alongside for honesty, and all three paths must render
byte-identical reports.

``--quick`` trims repetitions for CI (best of 3 instead of 5);
``--check`` exits non-zero when the gated overhead exceeds the budget.
"""

from __future__ import annotations

import time

from bench_runner import Bench, Gate

#: Gated ceiling on the metrics-ingestion cost relative to the obs-off
#: wall-clock.  The disabled path runs a strict subset of the metrics
#: path, so bounding the ingestion delta bounds both.
OVERHEAD_BUDGET = 0.03

#: The measured workload: in-process experiment runs (the acceptance
#: target is "overhead on the experiment suite", not a microbench).
#: Quick mode keeps both experiments — a smaller workload makes the
#: 3% gate flappy on a noisy shared host — and only trims the reps.
FULL_EXPERIMENTS = ["fig3a", "fig4a"]
QUICK_EXPERIMENTS = FULL_EXPERIMENTS


def _best_of(fn, reps: int) -> tuple[float, object]:
    """Min-of-reps wall time: robust against scheduler noise."""
    best = float("inf")
    result = None
    for _ in range(reps):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def _run(quick: bool) -> dict:
    """Time the experiment subset off / metrics-on / spans-on."""
    from repro.experiments import run_experiment
    from repro.obs import Observation, observe

    experiments = QUICK_EXPERIMENTS if quick else FULL_EXPERIMENTS
    reps = 3 if quick else 5

    def off():
        return [run_experiment(e).render() for e in experiments]

    def metrics_on():
        with observe() as observation:
            reports = [run_experiment(e).render() for e in experiments]
        return reports, observation

    def spans_on():
        with observe(spans=True) as observation:
            reports = [run_experiment(e).render() for e in experiments]
        return reports, len(observation.tracer)

    off()  # untimed warm-up: imports, memoised inputs, content hashes

    off_wall, off_reports = _best_of(off, reps)
    metrics_wall, (metrics_reports, observation) = _best_of(metrics_on, reps)
    spans_wall, (spans_reports, span_count) = _best_of(spans_on, max(1, reps - 1))

    if metrics_reports != off_reports or spans_reports != off_reports:
        raise RuntimeError("observed runs rendered different reports")

    # The gated number: what the metrics path adds over the off path —
    # one record_run per observed run, replayed on the actual records.
    runs = [ledger.run for ledger in observation.ledgers]

    def ingest():
        fresh = Observation()
        for run in runs:
            fresh.record_run(run)

    # The ingest pass is ~2 orders of magnitude shorter than the off
    # pass, so a scheduler burst inflates its best-of far more easily:
    # give it many cheap reps to let the min converge.
    ingest_wall, _ = _best_of(ingest, max(12, 3 * reps))
    overhead = ingest_wall / off_wall

    entry = {
        "experiments": " ".join(experiments),
        "reps": reps,
        "runs_observed": len(runs),
        "off_seconds": round(off_wall, 4),
        "metrics_seconds": round(metrics_wall, 4),
        "spans_seconds": round(spans_wall, 4),
        "ingest_seconds": round(ingest_wall, 4),
        "metrics_overhead": round(overhead, 4),
        "metrics_over_off": round(metrics_wall / off_wall, 2),
        "spans_over_off": round(spans_wall / off_wall, 2),
        "spans_recorded": span_count,
        "overhead_budget": OVERHEAD_BUDGET,
        "reports_identical": True,
    }
    print(f"  off={off_wall * 1e3:.1f} ms  metrics={metrics_wall * 1e3:.1f} ms  "
          f"spans={spans_wall * 1e3:.1f} ms ({span_count} spans)\n"
          f"  gated ingestion: {ingest_wall * 1e3:.1f} ms over {len(runs)} runs "
          f"= {overhead * 100:+.1f}% of the off path "
          f"(budget {OVERHEAD_BUDGET * 100:.0f}%)")
    return entry


BENCH = Bench(
    artifact="BENCH_obs.json",
    heading="observability overhead (off vs metrics vs spans):",
    benchmark="repro.obs overhead on in-process experiment runs",
    note=(
        "off = no active observation (the default path); metrics = "
        "observe(); spans = observe(spans=True), which turns every "
        "run's tracer on and is recorded unguarded; all three must "
        "render byte-identical reports"
    ),
    run=_run,
    gates=lambda entry: [
        Gate("obs overhead (metrics ingestion / off wall)",
             entry["metrics_overhead"], "<=", OVERHEAD_BUDGET),
    ],
)


if __name__ == "__main__":
    from bench_runner import main

    raise SystemExit(main(benches=[BENCH]))
