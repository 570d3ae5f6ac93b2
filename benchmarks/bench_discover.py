"""Hierarchy-discovery benchmark: ``python benchmarks/bench_discover.py``.

Times the full big-machine pipeline — parametric generation, probe
matrix synthesis, hierarchy inference, topology reconstruction — at
10^3 and 10^4 leaves, writing ``BENCH_discover.json``:

* **1024 leaves** (``fat_tree(4, 16, 16)``) exercises the scipy
  linkage backend over the full float64 matrix with gap columns — the
  calibration-grade path.
* **10000 leaves** (``fat_tree(25, 25, 16)``) exercises the banded
  connected-components backend over a latency-only float32 matrix —
  the scalable path (a 10^8-element matrix; linkage's condensed-form
  O(p^2 log p) is out of reach there).

Both runs assert **exact structural recovery** against the generating
truth; a timing with the wrong answer is worthless.  ``--check`` gates
three things: exact recovery at every scale, the 10^4-leaf acceptance
ceiling (:data:`LARGE_LIMIT_SECONDS`: build and discover within a
minute on CI), and a gross total-seconds regression against
the committed artifact.

``--quick`` drops the 10^4 scale (CI smoke stays seconds); the
acceptance ceiling is therefore only exercised by full runs.
"""

from __future__ import annotations

import time

from bench_runner import Bench, Gate

#: Acceptance ceiling on the 10^4-leaf generate+synthesize+discover
#: wall-clock (the ISSUE's CI budget).
LARGE_LIMIT_SECONDS = 60.0

#: Regression gate on total_seconds vs the committed artifact.  Wider
#: than bench_runner's 1.25x: the 10^4-leaf run streams ~1 GB of
#: matrix through a shared host, so its wall-clock is far noisier than
#: the in-cache microbenches (observed spread on identical code is
#: several x).  The *hard* gates are exact recovery and the absolute
#: :data:`LARGE_LIMIT_SECONDS` ceiling; this one only catches
#: order-of-magnitude algorithmic regressions.
REGRESSION_LIMIT = 3.0

#: (label, fat_tree kwargs, synthesize kwargs, discover method).
SCALES: tuple[tuple[str, dict, dict, str], ...] = (
    (
        "1k",
        {"pods": 4, "racks_per_pod": 16, "hosts_per_rack": 16},
        {},
        "linkage",
    ),
    (
        "10k",
        {"pods": 25, "racks_per_pod": 25, "hosts_per_rack": 16},
        {"dtype": "float32", "include_gap": False},
        "bands",
    ),
)


def _bench_scale(label: str, build_kwargs: dict, synth_kwargs: dict,
                 method: str) -> dict:
    import numpy as np

    from repro.cluster.discover import (
        discover,
        exact_recovery,
        fat_tree,
        synthesize,
        topology_partitions,
    )

    kwargs = dict(synth_kwargs)
    if "dtype" in kwargs:
        kwargs["dtype"] = getattr(np, kwargs["dtype"])
    start = time.perf_counter()
    topology = fat_tree(seed=0, **build_kwargs)
    built = time.perf_counter()
    matrix = synthesize(topology, **kwargs)
    synthesized = time.perf_counter()
    result = discover(matrix, method=method)
    done = time.perf_counter()
    exact = exact_recovery(topology_partitions(topology), result.partitions)
    entry = {
        "label": label,
        "leaves": matrix.p,
        "method": result.method,
        "levels": result.k,
        "exact_recovery": exact,
        "build_seconds": round(built - start, 3),
        "synthesize_seconds": round(synthesized - built, 3),
        "discover_seconds": round(done - synthesized, 3),
        "total_seconds": round(done - start, 3),
    }
    print(f"  {label:4s} p={entry['leaves']:6d} [{entry['method']}] "
          f"build {entry['build_seconds']:6.2f}s  "
          f"synth {entry['synthesize_seconds']:6.2f}s  "
          f"discover {entry['discover_seconds']:6.2f}s  "
          f"total {entry['total_seconds']:6.2f}s  "
          f"exact={entry['exact_recovery']}")
    return entry


def _run(quick: bool) -> dict:
    """Time generate -> synthesize -> discover per scale; assert recovery."""
    scales = SCALES[:1] if quick else SCALES
    entries = [_bench_scale(*scale) for scale in scales]
    return {
        "large_limit_seconds": LARGE_LIMIT_SECONDS,
        "scales": {entry["label"]: entry for entry in entries},
    }


def _gates(entry: dict) -> list[Gate]:
    gates = []
    for label, bench in entry["scales"].items():
        gates.append(Gate(f"discover {label} exact recovery",
                          bool(bench["exact_recovery"])))
        if bench["leaves"] >= 10_000:
            gates.append(Gate(f"discover {label} total seconds",
                              bench["total_seconds"], "<=", LARGE_LIMIT_SECONDS))
    return gates


BENCH = Bench(
    artifact="BENCH_discover.json",
    heading="hierarchy discovery (generate -> synthesize -> discover):",
    benchmark="repro.cluster.discover round-trip wall-clock",
    note=(
        "1k = fat_tree(4,16,16), float64 matrix with gap columns, "
        "scipy linkage; 10k = fat_tree(25,25,16), latency-only "
        "float32 matrix, banded components; both assert exact "
        "structural recovery against the generating truth"
    ),
    run=_run,
    gates=_gates,
    timings=lambda scope: {
        f"discover {label}": bench.get("total_seconds")
        for label, bench in scope.get("scales", {}).items()
    },
    regression_limit=REGRESSION_LIMIT,
)


if __name__ == "__main__":
    from bench_runner import main

    raise SystemExit(main(benches=[BENCH]))
