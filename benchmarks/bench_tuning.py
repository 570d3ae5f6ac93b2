"""Auto-tuner benchmark: ``python benchmarks/bench_tuning.py``.

Measures the two claims the tuning subsystem makes, writing
``BENCH_tuning.json``:

* **Decision cache** — the cold tune (enumerate the plan space, price
  it with the vectorized kernels, DES-validate the analytic shortlist)
  vs the warm resolution of the same decision from the persistent
  :class:`~repro.tuning.cache.DecisionCache`.  Warm lookups touch no
  simulator — ``--check`` gates the cold/warm ratio at
  :data:`WARM_LOOKUP_FLOOR`.
* **Tuned vs default makespans** — scenarios at 10^2, 10^3, and 10^4
  leaves on the generator families.  Because the tuner DES-validates
  the default plan alongside its shortlist and picks on simulated
  time, tuned must never be slower; ``--check`` gates that on every
  scenario, plus a >= :data:`WIN_FLOOR` improvement on the scenarios
  marked ``expect_win`` (latency-dominated broadcasts, where the
  expanded schedule space provably beats the paper's two-phase
  default).

``--quick`` shrinks the machines to CI-smoke size and relaxes the
warm-ratio floor (tiny machines leave less cold work to amortise), but
keeps both hard gates.
"""

from __future__ import annotations

import tempfile
import time

from bench_runner import Bench, Gate

#: Minimum cold-tune / warm-lookup wall-clock ratio ``--check`` accepts.
WARM_LOOKUP_FLOOR = 50.0

#: Relaxed floor for ``--quick`` (a 32-leaf cold tune is only ~10 ms,
#: so the ratio is dominated by fixed per-lookup costs).
QUICK_WARM_LOOKUP_FLOOR = 10.0

#: Scenarios marked ``expect_win`` must improve on the default
#: schedule by at least this fraction of makespan.
WIN_FLOOR = 0.10

#: Regression gate on cold_seconds vs the committed artifact (wide,
#: like bench_scale: multi-second DES runs on shared hosts are noisy;
#: the hard gates are the ratio floor and the never-slower rule).
REGRESSION_LIMIT = 2.0

#: (label, family, generator kwargs, op, n, expect_win).
SCENARIOS: tuple[tuple[str, str, dict, str, int, bool], ...] = (
    ("bcast_100_multi_rack", "multi_rack",
     {"racks": 8, "hosts_per_rack": 16}, "broadcast", 500, True),
    ("bcast_1k_fat_tree", "fat_tree",
     {"pods": 4, "racks_per_pod": 16, "hosts_per_rack": 16},
     "broadcast", 20_000, False),
    ("gather_1k_multi_rack", "multi_rack",
     {"racks": 8, "hosts_per_rack": 128}, "gather", 20_000, False),
    ("bcast_10k_fat_tree", "fat_tree",
     {"pods": 25, "racks_per_pod": 25, "hosts_per_rack": 16},
     "broadcast", 20_000, False),
)

QUICK_SCENARIOS: tuple[tuple[str, str, dict, str, int, bool], ...] = (
    ("bcast_quick_multi_rack", "multi_rack",
     {"racks": 4, "hosts_per_rack": 8}, "broadcast", 500, True),
    ("gather_quick_multi_rack", "multi_rack",
     {"racks": 4, "hosts_per_rack": 8}, "gather", 5_000, False),
)

#: Which scenario label times the cold/warm decision-cache pair.
TIMED_SCENARIO = "bcast_1k_fat_tree"
QUICK_TIMED_SCENARIO = "bcast_quick_multi_rack"


def _bench_scenario(label: str, family: str, gen_kwargs: dict, op: str,
                    n: int, expect_win: bool, timed: bool,
                    cache_dir: str) -> dict:
    from repro.cluster.discover.generators import GENERATORS
    from repro.tuning.cache import DecisionCache
    from repro.tuning.tuner import tune

    topology = GENERATORS[family](seed=0, **gen_kwargs)
    cache = DecisionCache(cache_dir)
    start = time.perf_counter()
    decision = tune(topology, op, n, cache=cache, force=True)
    cold = time.perf_counter() - start
    entry: dict = {
        "label": label,
        "generator": f"{family}({gen_kwargs})",
        "op": op,
        "n": n,
        "leaves": topology.num_machines,
        "plan": decision.plan.key,
        "candidates": decision.candidates,
        "validated": decision.validated,
        "tuned_time": decision.simulated_time,
        "default_time": decision.default_time,
        "improvement": round(decision.improvement, 4),
        "expect_win": expect_win,
        "cold_seconds": round(cold, 4),
    }
    if timed:
        # A fresh DecisionCache instance drops the in-memory memo, so
        # every warm iteration pays the honest disk path: topology
        # hash, key digest, one JSON read.
        warm_times = []
        for _ in range(5):
            warm_cache = DecisionCache(cache_dir)
            start = time.perf_counter()
            warm = tune(topology, op, n, cache=warm_cache)
            warm_times.append(time.perf_counter() - start)
            assert warm == decision
        entry["warm_seconds"] = round(min(warm_times), 6)
        entry["warm_ratio"] = round(cold / min(warm_times), 1)
    print(f"  {label:24s} p={entry['leaves']:6d} {op}(n={n}) -> "
          f"{decision.plan.key}  win={100 * decision.improvement:5.1f}%  "
          f"cold={cold:6.2f}s"
          + (f"  warm={entry['warm_seconds'] * 1e3:.1f}ms "
             f"({entry['warm_ratio']:.0f}x)" if timed else ""))
    return entry


def _run(quick: bool) -> dict:
    """Tune every scenario; the timed one also measures cold vs warm."""
    scenarios = QUICK_SCENARIOS if quick else SCENARIOS
    timed = QUICK_TIMED_SCENARIO if quick else TIMED_SCENARIO
    with tempfile.TemporaryDirectory(prefix="repro-bench-tuning-") as scratch:
        entries = [
            _bench_scenario(*scenario, scenario[0] == timed, scratch)
            for scenario in scenarios
        ]
    return {
        "warm_lookup_floor": (
            QUICK_WARM_LOOKUP_FLOOR if quick else WARM_LOOKUP_FLOOR
        ),
        "win_floor": WIN_FLOOR,
        "scenarios": {entry["label"]: entry for entry in entries},
    }


def _gates(entry: dict) -> list[Gate]:
    gates = []
    for label, bench in entry["scenarios"].items():
        gates.append(Gate(f"tuning {label} tuned vs default seconds",
                          bench["tuned_time"], "<=", bench["default_time"]))
        if bench["expect_win"]:
            gates.append(Gate(f"tuning {label} win", bench["improvement"],
                              ">=", entry["win_floor"]))
        if "warm_ratio" in bench:
            gates.append(Gate(f"tuning {label} cold/warm ratio",
                              bench["warm_ratio"], ">=",
                              entry["warm_lookup_floor"]))
    return gates


BENCH = Bench(
    artifact="BENCH_tuning.json",
    heading="auto-tuned schedules (cold tune, warm lookup, tuned vs default):",
    benchmark="schedule auto-tuning cost and wins",
    note=(
        "cold_seconds = full tune (enumerate + vectorized pricing + "
        "DES-validated shortlist) into a fresh cache; warm_seconds = "
        "best of 5 decision-cache resolutions with the in-memory "
        "memo dropped; tuned can never be slower than default "
        "because the default plan is always in the validated "
        "shortlist"
    ),
    run=_run,
    gates=_gates,
    timings=lambda scope: {
        f"tuning {label} cold": bench.get("cold_seconds")
        for label, bench in scope.get("scenarios", {}).items()
    },
    regression_limit=REGRESSION_LIMIT,
)


if __name__ == "__main__":
    from bench_runner import main

    raise SystemExit(main(benches=[BENCH]))
