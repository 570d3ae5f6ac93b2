"""Serving-layer benchmark: ``python benchmarks/bench_serve.py``.

Measures the three claims ``repro.serve`` makes, writing
``BENCH_serve.json``:

* **Tail latency under reference load** — one session at the reference
  offered rate (well below the knee) must keep its *simulated* p99
  under :data:`P99_CEILING_SECONDS`.  Simulated time is deterministic,
  so this gate holds on any host.
* **Goodput monotone to the knee** — sweeping offered load, goodput
  must be non-decreasing up to its peak (the knee); open-loop serving
  that loses goodput *before* saturating means admission control or
  placement regressed.
* **Service overhead** — a cold serving session is the kernel-cost
  prewarm (raw DES work) plus the service loop (arrivals, queueing,
  dispatch events).  The loop must stay under
  :data:`OVERHEAD_LIMIT` of the raw ``evaluate()`` of the same job
  universe: the serving layer orchestrates simulations, it must not
  become one.

``--quick`` runs the small built-in demo workload (CI smoke) with a
relaxed overhead limit — tiny universes leave fixed per-session costs
nothing to amortise against — but keeps all three gates.
"""

from __future__ import annotations

import time

from bench_runner import Bench, Gate

#: Simulated p99 ceiling at the reference offered rate (full scope: the
#: calibrated experiment workload at 8 req/s measures ~0.29 s).
P99_CEILING_SECONDS = 0.6

#: Relaxed ceiling for ``--quick`` (the demo workload's kernels cost
#: ~6 ms, so even heavy queueing stays far below this).
QUICK_P99_CEILING_SECONDS = 0.5

#: Reference offered rate (req/s) the p99 gate measures at.
REFERENCE_RATE = 8.0

#: Service-loop wall-clock overhead vs raw evaluate() of the same job
#: universe.
OVERHEAD_LIMIT = 0.05
QUICK_OVERHEAD_LIMIT = 0.50

#: Wall-clock regression gate vs the committed artifact (wide, like
#: bench_tuning: sub-second sessions on shared hosts are noisy; the
#: hard gates above are what protect behaviour).
REGRESSION_LIMIT = 2.0

#: Offered-load sweep (req/s) for the goodput-monotone gate.
RATES = (2.0, 4.0, 8.0, 16.0, 24.0, 32.0, 48.0, 64.0)
QUICK_RATES = (2.0, 8.0, 32.0)


def _config(rate: float, quick: bool):
    if quick:
        from repro.serve import default_config

        return default_config(seed=0, duration=20.0, rate=rate)
    from repro.experiments.serving import serving_config

    return serving_config(rate, seed=0)


def _time_session(rate: float, quick: bool, repeats: int) -> tuple[float, object]:
    """Best-of-``repeats`` cold-session wall-clock and the last report."""
    from repro.serve import run_service

    best = float("inf")
    report = None
    for _ in range(repeats):
        config = _config(rate, quick)
        start = time.perf_counter()
        report = run_service(config)
        best = min(best, time.perf_counter() - start)
    return best, report


def _time_raw_universe(rate: float, quick: bool, repeats: int) -> float:
    """Best-of-``repeats`` raw evaluate() of the same job universe."""
    from repro.perf import evaluate
    from repro.serve import StageCostModel, carve_slices
    from repro.serve.service import resolve_cluster

    best = float("inf")
    for _ in range(repeats):
        config = _config(rate, quick)
        slices = carve_slices(
            resolve_cluster(config.cluster), config.policy.placement
        )
        jobs = StageCostModel(config, slices).jobs()
        start = time.perf_counter()
        evaluate(jobs)
        best = min(best, time.perf_counter() - start)
    return best


def _run(quick: bool) -> dict:
    """Sweep offered load, time the reference session vs raw DES."""
    from repro.serve import run_service

    rates = QUICK_RATES if quick else RATES
    curve = {}
    for rate in rates:
        report = run_service(_config(rate, quick))
        curve[str(rate)] = {
            "goodput": report.goodput,
            "p50": report.latency_p50,
            "p99": report.latency_p99,
            "shed_fraction": round(report.shed_fraction, 4),
        }
        print(f"  rate {rate:6.1f} req/s -> goodput {report.goodput:7.3f}  "
              f"p99 {report.latency_p99 * 1e3:8.1f} ms  "
              f"shed {100 * report.shed_fraction:5.1f}%")

    repeats = 1 if quick else 3
    session_seconds, reference = _time_session(REFERENCE_RATE, quick, repeats)
    raw_seconds = _time_raw_universe(REFERENCE_RATE, quick, repeats)
    overhead = session_seconds / raw_seconds - 1.0
    print(f"  reference rate {REFERENCE_RATE:g}: session "
          f"{session_seconds:.3f}s vs raw universe {raw_seconds:.3f}s "
          f"({100 * overhead:+.1f}% service overhead)")
    return {
        "reference_rate": REFERENCE_RATE,
        "p99_ceiling_seconds": (
            QUICK_P99_CEILING_SECONDS if quick else P99_CEILING_SECONDS
        ),
        "overhead_limit": QUICK_OVERHEAD_LIMIT if quick else OVERHEAD_LIMIT,
        "reference_p99": reference.latency_p99,
        "reference_goodput": reference.goodput,
        "session_seconds": round(session_seconds, 4),
        "raw_universe_seconds": round(raw_seconds, 4),
        "service_overhead": round(overhead, 4),
        "curve": curve,
    }


def _gates(entry: dict) -> list[Gate]:
    rates = sorted(float(rate) for rate in entry["curve"])
    goodputs = [entry["curve"][str(rate)]["goodput"] for rate in rates]
    knee = goodputs.index(max(goodputs))
    return [
        Gate(f"serve reference p99 at {entry['reference_rate']:g} req/s",
             entry["reference_p99"], "<=", entry["p99_ceiling_seconds"]),
        Gate(f"serve goodput monotone up to the knee at {rates[knee]:g} req/s",
             all(goodputs[i] <= goodputs[i + 1] for i in range(knee))),
        Gate("serve overhead vs raw DES", entry["service_overhead"], "<",
             entry["overhead_limit"]),
    ]


BENCH = Bench(
    artifact="BENCH_serve.json",
    heading="open-loop serving (goodput curve, reference p99, overhead):",
    benchmark="open-loop serving goodput, tail latency, overhead",
    note=(
        "curve/goodput/p99 are simulated (deterministic per seed); "
        "session_seconds is the cold session wall-clock (kernel-cost "
        "prewarm + service loop), raw_universe_seconds the bare "
        "evaluate() of the same job universe; their ratio is the "
        "service overhead"
    ),
    run=_run,
    gates=_gates,
    timings=lambda scope: {"serve session": scope.get("session_seconds")},
    regression_limit=REGRESSION_LIMIT,
)


if __name__ == "__main__":
    from bench_runner import main

    raise SystemExit(main(benches=[BENCH]))
