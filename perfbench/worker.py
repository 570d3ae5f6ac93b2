"""One measured iteration of a workload, in a process of its own.

Started by ``run.py``; prints one JSON record as its last stdout line:
the monotonic-clock instant it became ready (its parent recorded the
spawn instant, so the difference is the set-up time from process
start), the host seconds of the timed phase, peak resident memory,
per-operation digests and failures, the simulated metrics and, with
``--trace 1``, the per-layer metrics.

    python3 perfbench/worker.py --workload serve-knee --seed 3 --trace 0
"""

from __future__ import annotations

import argparse
import json
import resource
import time

import workloads


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans-out", default=None,
                        help="with --trace 1, write the recorded spans here (JSON lines)")
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]

    tracer = None
    if args.trace:
        import layers
        from repro.experiments.runner import EXPERIMENTS

        experiment_ids = tuple(EXPERIMENTS)
        tracer = layers.LayerTracer()
        layers.install(tracer, experiment_ids)
    state = workload.setup(args.seed, args.size)
    ready_at = time.clock_gettime(time.CLOCK_MONOTONIC)

    start = time.perf_counter()
    outputs = workload.run(state, tracer)
    wall_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    checked = workload.check(state, outputs)
    record = {
        "ready_at": ready_at,
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "work_units": checked.work_units,
        # Every operation either produced a digest or failed (or both).
        "ops": sorted(set(checked.digests) | set(checked.failures)),
        "digests": checked.digests,
        "failures": checked.failures,
        "sim": checked.sim,
        "cli_groups": checked.cli_groups,
    }
    if tracer is not None:
        record["layers"] = layers.layer_metrics(tracer, experiment_ids)
        if args.spans_out:
            tracer.dump_spans(args.spans_out)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
