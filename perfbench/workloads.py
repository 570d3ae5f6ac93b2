"""The benchmark's three workloads: inputs from a seed, a timed phase, checks.

Each workload is an object with

* ``setup(seed, size)`` -- everything a user pays before the first
  result (topology generation, slice carving + cost-model prewarm);
  returns the state the timed phase runs on;
* ``run(state, tracer)`` -- the timed phase: every *operation* (one
  collective run, one serving session, one experiment) in order, each
  guarded so one failure does not hide the rest;
* ``check(state, outputs)`` -- per-operation output checks and digests,
  plus the simulated metrics and the count of simulated work units.

``size`` is ``"full"`` for the benchmark and ``"tiny"`` for the tests;
both take the same code path.  The program under test receives only
the inputs generated here from the seed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import inspect
import json
import math
import traceback
import typing as t

__all__ = ["WORKLOADS", "SIM_METRICS", "Checked", "Workload"]

#: Metrics the checks compute from simulated outputs (deterministic per
#: seed); a workload reports the ones that apply to it.
SIM_METRICS = (
    "sim_makespan_s", "sim_p50_s", "sim_p99_s", "sim_goodput_rps", "slo_miss_frac",
    "serve.batches", "serve.mean_batch", "serve.queue_depth_max", "serve.busy_frac",
)


@dataclasses.dataclass
class Checked:
    """Result of checking one timed phase's outputs."""

    #: operation label -> sha256 of every simulated output it produced.
    digests: dict[str, str]
    #: operation label -> why it failed (raised or failed a check).
    failures: dict[str, str]
    #: Simulated metrics (deterministic per seed).
    sim: dict[str, float]
    #: Simulated work units of the phase (messages, requests, jobs).
    work_units: int
    #: CLI invocations whose stdout digest the parent process checks.
    cli_groups: list[dict[str, t.Any]] = dataclasses.field(default_factory=list)


class Workload(t.Protocol):
    name: str
    work_unit: str

    def setup(self, seed: int, size: str) -> t.Any: ...

    def run(self, state: t.Any, tracer: t.Any) -> dict[str, t.Any]: ...

    def check(self, state: t.Any, outputs: dict[str, t.Any]) -> Checked: ...


def _sha(*parts: str) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part.encode())
        digest.update(b"\0")
    return digest.hexdigest()


class _Failure:
    """An operation that raised; carries the formatted traceback."""

    def __init__(self, error: BaseException) -> None:
        self.text = "".join(traceback.format_exception(error)).strip()


def _guarded(tracer: t.Any, label: str, call: t.Callable[[], t.Any]) -> t.Any:
    """Run one operation; an exception becomes a :class:`_Failure`."""
    try:
        if tracer is None:
            return call()
        tracer.op = label
        with tracer.timed("bench." + label, "bench"):
            return call()
    except Exception as error:  # one failed operation must not stop the rest
        return _Failure(error)


# -- macro-collectives -------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class _CollectiveSpec:
    op: str
    family: str
    shape: tuple[int, ...]
    n: int

    @property
    def label(self) -> str:
        return f"{self.op}:{self.family}{self.shape}:n={self.n}"


class MacroCollectives:
    """Gather and broadcast at 10^3-10^4 leaves on the macro-engine fast path."""

    name = "macro-collectives"
    work_unit = "messages"
    SIZES = {
        "full": (
            _CollectiveSpec("broadcast", "multi_rack", (8, 128), 20_000),
            _CollectiveSpec("broadcast", "fat_tree", (4, 16, 16), 20_000),
            _CollectiveSpec("gather", "multi_rack", (8, 128), 20_000),
            _CollectiveSpec("gather", "fat_tree", (25, 25, 16), 50_000),
        ),
        "tiny": (
            _CollectiveSpec("broadcast", "multi_rack", (2, 8), 400),
            _CollectiveSpec("broadcast", "fat_tree", (2, 2, 4), 400),
            _CollectiveSpec("gather", "multi_rack", (2, 8), 400),
            _CollectiveSpec("gather", "fat_tree", (3, 2, 4), 1_000),
        ),
    }

    def setup(self, seed: int, size: str) -> t.Any:
        from repro.cluster.discover.generators import GENERATORS

        specs = self.SIZES[size]
        topologies = {}
        for spec in specs:
            key = (spec.family, spec.shape)
            if key not in topologies:
                topologies[key] = GENERATORS[spec.family](*spec.shape, seed=seed)
        return seed, specs, topologies

    def run(self, state: t.Any, tracer: t.Any) -> dict[str, t.Any]:
        from repro.collectives import run_broadcast, run_gather

        runners = {"broadcast": run_broadcast, "gather": run_gather}
        seed, specs, topologies = state
        return {
            spec.label: _guarded(
                tracer, spec.label,
                lambda spec=spec: runners[spec.op](
                    topologies[(spec.family, spec.shape)], spec.n, seed=seed
                ),
            )
            for spec in specs
        }

    def check(self, state: t.Any, outputs: dict[str, t.Any]) -> Checked:
        seed, specs, _ = state
        checked = Checked({}, {}, {"sim_makespan_s": 0.0}, 0)
        for spec in specs:
            outcome = outputs[spec.label]
            if isinstance(outcome, _Failure):
                checked.failures[spec.label] = outcome.text
                continue
            problem = self._problem(spec, seed, outcome)
            if problem:
                checked.failures[spec.label] = problem
            runtime = outcome.runtime
            vm = runtime.vm
            checked.work_units += sum(vm.task(tid).sent_messages for tid in vm.tids)
            checked.sim["sim_makespan_s"] += outcome.time
            checked.digests[spec.label] = _sha(
                outcome.name, outcome.time.hex(), str(outcome.supersteps),
                repr(sorted(outcome.values.items())),
                repr(runtime.superstep_marks()), repr(outcome.predicted_time),
            )
        return checked

    @staticmethod
    def _problem(spec: _CollectiveSpec, seed: int, outcome: t.Any) -> str:
        """Why ``outcome`` is wrong, or ``""``: every pid's returned
        ``(items, checksum)`` against the generated inputs, and the
        macro fast path engaged."""
        import numpy as np

        from repro.collectives import WorkloadPolicy, split_counts
        from repro.collectives.base import make_items

        runtime = outcome.runtime
        if runtime.macro is None:
            return "macro fast path did not engage"
        if not (math.isfinite(outcome.time) and outcome.time > 0):
            return f"bad makespan {outcome.time!r}"
        root = runtime.fastest_pid
        nprocs = runtime.nprocs
        if spec.op == "broadcast":
            checksum = int(make_items(seed, root, spec.n).astype(np.int64).sum())
            expected = {pid: (spec.n, checksum) for pid in range(nprocs)}
        else:
            counts = split_counts(runtime, spec.n, WorkloadPolicy.BALANCED)
            checksum = sum(
                int(make_items(seed, pid, count).astype(np.int64).sum())
                for pid, count in enumerate(counts)
            )
            expected = {pid: (0, 0) for pid in range(nprocs)}
            expected[root] = (spec.n, checksum)
        wrong = [pid for pid in range(nprocs) if outcome.values.get(pid) != expected[pid]]
        if wrong:
            return f"{len(wrong)} pid(s) returned wrong (items, checksum), first pid {wrong[0]}"
        return ""


# -- serve-knee ----------------------------------------------------------------------
class ServeKnee:
    """One open-loop serving session just below the knee (~20 req/s)."""

    name = "serve-knee"
    work_unit = "requests"
    RATE = 20.0
    DURATION = {"full": 5_000.0, "tiny": 60.0}
    LABEL = "session"

    def setup(self, seed: int, size: str) -> t.Any:
        from repro.experiments.serving import serving_config
        from repro.serve.costs import StageCostModel
        from repro.serve.service import serve_slices

        config = serving_config(self.RATE, seed=seed, duration=self.DURATION[size])
        slices, _ = serve_slices(config)
        model = StageCostModel(config, slices)
        model.prewarm()
        return config, model

    def run(self, state: t.Any, tracer: t.Any) -> dict[str, t.Any]:
        from repro.serve.service import run_service

        config, model = state
        return {
            self.LABEL: _guarded(
                tracer, self.LABEL, lambda: run_service(config, costs=model)
            )
        }

    def check(self, state: t.Any, outputs: dict[str, t.Any]) -> Checked:
        config, _ = state
        report = outputs[self.LABEL]
        checked = Checked({}, {}, {}, 0)
        if isinstance(report, _Failure):
            checked.failures[self.LABEL] = report.text
            return checked
        checked.work_units = report.offered
        refused = report.shed + report.degraded_shed
        problem = ""
        if report.offered <= 0:
            problem = "no requests offered"
        elif report.offered != report.completed + refused:
            problem = (
                f"offered {report.offered} != completed {report.completed} "
                f"+ shed {report.shed} + degraded_shed {report.degraded_shed}"
            )
        elif len(report.latencies) != report.completed:
            problem = "latency count differs from completed count"
        elif not all(0 < lat < math.inf for lat in report.latencies):
            problem = "non-positive or infinite latency"
        if problem:
            checked.failures[self.LABEL] = problem
        slo = config.policy.slo
        late = sum(1 for lat in report.latencies if lat > slo)
        utilization = report.slice_utilization()
        checked.sim = {
            "sim_p50_s": report.latency_p50,
            "sim_p99_s": report.latency_p99,
            "sim_goodput_rps": report.goodput,
            "slo_miss_frac": (refused + late) / report.offered if report.offered else 0.0,
            "serve.batches": report.batches,
            "serve.mean_batch": report.completed / report.batches if report.batches else 0.0,
            "serve.queue_depth_max": report.queue_depth_max,
            "serve.busy_frac": sum(utilization) / len(utilization) if utilization else 0.0,
        }
        checked.digests[self.LABEL] = _sha(
            json.dumps(report.to_jsonable(), sort_keys=True), repr(report.latencies)
        )
        return checked


# -- paper-sweep ---------------------------------------------------------------------
#: Output key under which the sweep reports how many simulations it ran.
_SIMULATIONS = "#simulations"


class PaperSweep:
    """Every registered experiment, in-process, under one serial sweep."""

    name = "paper-sweep"
    work_unit = "simulations"
    #: Tiny size: a few cheap experiments, seedless, seeded, and seed-sensitive.
    TINY = ("table1", "model-vs-sim", "robustness")

    def setup(self, seed: int, size: str) -> t.Any:
        from repro.experiments.runner import EXPERIMENTS

        ids = tuple(EXPERIMENTS) if size == "full" else self.TINY
        seeded = {
            experiment_id
            for experiment_id in ids
            if "seed" in inspect.signature(EXPERIMENTS[experiment_id]).parameters
        }
        return seed, ids, seeded

    def run(self, state: t.Any, tracer: t.Any) -> dict[str, t.Any]:
        from repro.experiments.runner import run_experiment
        from repro.perf import sweep

        seed, ids, seeded = state
        outputs: dict[str, t.Any] = {}
        with sweep(jobs=1, cache_dir=None) as executor:
            for experiment_id in ids:
                outputs[experiment_id] = _guarded(
                    tracer, experiment_id,
                    lambda eid=experiment_id: run_experiment(
                        eid, seed=seed if eid in seeded else None
                    ).render(),
                )
        outputs[_SIMULATIONS] = executor.cache_misses
        return outputs

    def check(self, state: t.Any, outputs: dict[str, t.Any]) -> Checked:
        seed, ids, seeded = state
        checked = Checked({}, {}, {}, outputs[_SIMULATIONS])
        for experiment_id in ids:
            text = outputs[experiment_id]
            if isinstance(text, _Failure):
                checked.failures[experiment_id] = text.text
            elif not text.strip():
                checked.failures[experiment_id] = "empty report"
            else:
                checked.digests[experiment_id] = _sha(text)
        # What `python -m repro.experiments <ids> --no-cache [--seed N]`
        # prints: each report followed by a blank line.  The parent runs
        # the command and compares digests.
        for with_seed in (True, False):
            members = [e for e in ids if (e in seeded) == with_seed]
            if not members:
                continue
            text = "".join(
                outputs[e] + "\n\n" for e in members if isinstance(outputs[e], str)
            )
            args = members + ["--no-cache"] + (["--seed", str(seed)] if with_seed else [])
            sha256 = hashlib.sha256(text.encode()).hexdigest()
            checked.cli_groups.append({"ids": members, "args": args, "sha256": sha256})
        return checked


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (MacroCollectives(), ServeKnee(), PaperSweep())
}
