"""Per-layer tracing for the benchmark: wrappers around ``repro`` entry points.

The program under test is never edited.  Instead, :func:`install` swaps
each public entry point of a ``repro.<package>`` layer for a wrapper
that records, at the layer boundary:

* a *frame* on a call stack, so each layer's **self time** is its
  frames' host time minus the part covered by wrapped children;
* **counts** (calls, messages, supersteps, jobs, cache hits, ...);
* a coarse **span** ``(id, parent, name, start, end, op)`` for every
  non-hot boundary, kept in memory and written out when the process
  ends (:meth:`LayerTracer.dump_spans`).

Hot boundaries (``MacroEngine.send``, ``Task.send``, ...) are timed and
counted but record no span, so a 10^5-message broadcast does not build
10^5 span objects.  Generator entry points (the simulator resumes them
once per event) are timed per resumed step through :func:`_timed_steps`.

Attribution is by boundary, not by profiler: program code that a
wrapped engine loop resumes (a collective's generator body, say) is
charged to ``sim.engine`` unless a wrapped boundary inside it claims
it.  ``perfbench/README.md`` lists which metric comes from where.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import sys
import time
import typing as t
from collections import Counter, defaultdict

__all__ = ["LayerTracer", "install", "layer_metrics"]

_now = time.perf_counter

COLLECTIVE_OPS = (
    "gather", "broadcast", "scatter", "reduce", "allgather", "alltoall",
    "allreduce", "scan",
)
APP_OPS = ("histogram", "matvec", "sample_sort", "jacobi")

#: ``(module, attribute path, layer, frame name, kind)`` for every
#: wrapped boundary.  ``kind``: ``span`` (timed, records a span),
#: ``hot`` (timed, no span), ``steps`` (generator, timed per resumed
#: step), ``count`` (call count only, no timing).
BOUNDARIES: tuple[tuple[str, str, str, str, str], ...] = (
    # sim: the event loop and the macro engine
    ("repro.sim.engine", "Engine.run", "sim.engine", "sim.engine.run", "span"),
    ("repro.sim.engine", "Engine.run_until", "sim.engine", "sim.engine.run", "span"),
    ("repro.sim.macro", "MacroEngine.send", "sim.macro", "sim.macro.send", "hot"),
    ("repro.sim.macro", "MacroEngine.compute", "sim.macro", "sim.macro.compute", "hot"),
    ("repro.sim.macro", "MacroEngine.barrier_round", "sim.macro",
     "sim.macro.barrier_round", "steps"),
    ("repro.sim.macro", "MacroEngine.finish", "sim.macro", "sim.macro.finish", "steps"),
    # pvm: task-level message passing on the object path
    ("repro.pvm.vm", "VirtualMachine.run", "pvm", "pvm.vm.run", "span"),
    ("repro.pvm.task", "Task.send", "pvm", "pvm.task.send", "steps"),
    ("repro.pvm.task", "Task.recv", "pvm", "pvm.task.recv", "steps"),
    ("repro.pvm.task", "Task.compute", "pvm", "pvm.task.compute", "steps"),
    # hbsplib: the runtime and the program-side context surface
    ("repro.hbsplib.runtime", "HbspRuntime.run", "hbsplib", "hbsplib.run", "span"),
    ("repro.hbsplib.context", "HbspContext.send", "hbsplib", "hbsplib.ctx.send", "steps"),
    ("repro.hbsplib.context", "HbspContext.sync", "hbsplib", "hbsplib.ctx.sync", "steps"),
    ("repro.hbsplib.context", "HbspContext.compute", "hbsplib", "hbsplib.ctx.compute",
     "steps"),
    ("repro.hbsplib.context", "HbspContext.messages", "hbsplib", "hbsplib.ctx.messages",
     "hot"),
    # collectives: the run_* entry points and the per-process programs
    # (generators the engine resumes)
    *(
        ("repro.collectives." + op, "run_" + op, "collectives",
         "collectives.run_" + op, "span")
        for op in COLLECTIVE_OPS
    ),
    *(
        ("repro.collectives." + op, op + "_program", "collectives",
         "collectives.program", "steps")
        for op in COLLECTIVE_OPS
    ),
    # model
    *(
        ("repro.model.predict", name, "model", "model." + name, "span")
        for name in (
            "predict_gather", "predict_broadcast",
            "predict_gather_plan", "predict_broadcast_plan",
        )
    ),
    ("repro.model.kernels", "GatherKernel.evaluate", "model",
     "model.GatherKernel.evaluate", "span"),
    ("repro.model.kernels", "GatherKernel.evaluate_plans", "model",
     "model.GatherKernel.evaluate_plans", "span"),
    ("repro.model.kernels", "BroadcastKernel.evaluate", "model",
     "model.BroadcastKernel.evaluate", "span"),
    ("repro.model.kernels", "BroadcastKernel.evaluate_plans", "model",
     "model.BroadcastKernel.evaluate_plans", "span"),
    ("repro.model.params", "calibrate", "model", "model.calibrate", "span"),
    # perf
    ("repro.perf.executor", "SweepExecutor.evaluate", "perf", "perf.evaluate", "span"),
    # serve
    ("repro.serve.service", "run_service", "serve", "serve.run_service", "span"),
    ("repro.serve.arrivals", "generate_arrivals", "serve", "serve.generate_arrivals",
     "span"),
    ("repro.serve.costs", "StageCostModel.prewarm", "serve", "serve.prewarm", "span"),
    ("repro.serve.costs", "StageCostModel.request_cost", "serve",
     "serve.request_cost", "count"),
    # cluster
    *(
        ("repro.cluster.discover.generators", name, "cluster",
         "cluster.generate." + name, "span")
        for name in ("fat_tree", "multi_rack", "cloud_spot_mix", "multicore_nodes")
    ),
    ("repro.cluster.discover.infer", "discover", "cluster", "cluster.discover", "span"),
    # apps
    *(
        ("repro.apps." + name, "run_" + name, "apps", "apps.run_" + name, "span")
        for name in APP_OPS
    ),
    *(
        ("repro.apps." + name, name + "_program", "apps", "apps.program", "steps")
        for name in APP_OPS
    ),
    # tuning
    ("repro.tuning.tuner", "tune", "tuning", "tuning.tune", "span"),
    ("repro.tuning.tuner", "tuned_plan", "tuning", "tuning.tuned_plan", "span"),
    # dynamics
    ("repro.dynamics.epochs", "membership_epochs", "dynamics",
     "dynamics.membership_epochs", "span"),
)

#: Layers whose self time is reported as ``<layer>.self_s``.
SELF_TIME_LAYERS = (
    "sim.macro", "sim.engine", "pvm", "hbsplib", "collectives", "model",
    "apps", "tuning",
)


class _Frame:
    __slots__ = ("name", "layer", "span_id", "parent", "child", "start")

    def __init__(self, name: str, layer: str, span_id: int, parent: int) -> None:
        self.name = name
        self.layer = layer
        self.span_id = span_id
        self.parent = parent
        self.child = 0.0
        self.start = _now()


class LayerTracer:
    """Call stack, per-layer self time, counts and spans of one process."""

    def __init__(self) -> None:
        self.stack: list[_Frame] = []
        self.self_time: defaultdict[str, float] = defaultdict(float)
        #: Host time of each frame name, outermost activations only.
        self.inclusive: defaultdict[str, float] = defaultdict(float)
        self._active: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.ratios: list[float] = []
        self.spans: list[tuple[int, int, str, float, float, str]] = []
        self._next_span = 0
        #: Label of the workload operation in progress (a span's trace id).
        self.op = ""

    # -- frames ---------------------------------------------------------------
    def enter(self, name: str, layer: str, span: bool) -> _Frame:
        span_id = parent = 0
        if span:
            self._next_span += 1
            span_id = self._next_span
            parent = next((f.span_id for f in reversed(self.stack) if f.span_id), 0)
        self._active[name] += 1
        frame = _Frame(name, layer, span_id, parent)
        self.stack.append(frame)
        return frame

    def exit(self, frame: _Frame) -> None:
        end = _now()
        duration = end - frame.start
        if self.stack.pop() is not frame:  # pragma: no cover - wrappers are balanced
            raise RuntimeError(f"unbalanced trace stack at {frame.name}")
        self.self_time[frame.layer] += duration - frame.child
        if self.stack:
            self.stack[-1].child += duration
        self._active[frame.name] -= 1
        if not self._active[frame.name]:
            self.inclusive[frame.name] += duration
        if frame.span_id:
            self.spans.append(
                (frame.span_id, frame.parent, frame.name, frame.start, end, self.op)
            )

    @contextlib.contextmanager
    def timed(self, name: str, layer: str) -> t.Iterator[None]:
        """A span around benchmark-side code (one workload operation)."""
        frame = self.enter(name, layer, True)
        try:
            yield
        finally:
            self.exit(frame)

    def dump_spans(self, path: str) -> None:
        """Write the recorded spans as JSON lines (one span per line)."""
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent, name, start, end, op in self.spans:
                handle.write(json.dumps({
                    "id": span_id, "parent": parent, "name": name,
                    "start": start, "end": end, "op": op,
                }) + "\n")


# -- wrappers -------------------------------------------------------------------
def _timed_steps(tracer: LayerTracer, gen: t.Generator, name: str, layer: str):
    """Drive ``gen`` transparently, timing each resumed step as a frame."""
    value: t.Any = None
    error: BaseException | None = None
    while True:
        frame = tracer.enter(name, layer, False)
        try:
            if error is None:
                out = gen.send(value)
            else:
                out = gen.throw(error)
        except StopIteration as stop:
            tracer.exit(frame)
            return stop.value
        except BaseException:
            tracer.exit(frame)
            raise
        tracer.exit(frame)
        try:
            value = yield out
            error = None
        except GeneratorExit:
            gen.close()
            raise
        except BaseException as exc:  # re-thrown into ``gen`` on the next step
            value, error = None, exc


#: A boundary hook: called with the wrapped call's arguments before the
#: call; returns a callable given the call's result afterwards.
Hook = t.Callable[["LayerTracer", tuple], t.Callable[[t.Any], None]]


def _make_wrapper(
    tracer: LayerTracer,
    original: t.Callable,
    name: str,
    layer: str,
    kind: str,
    hook: Hook | None,
) -> t.Callable:
    counts = tracer.counts
    if kind == "count":
        @functools.wraps(original)
        def counted(*args: t.Any, **kwargs: t.Any) -> t.Any:
            counts[name] += 1
            return original(*args, **kwargs)
        return counted
    if kind == "steps":
        @functools.wraps(original)
        def stepped(*args: t.Any, **kwargs: t.Any) -> t.Any:
            counts[name] += 1
            return _timed_steps(tracer, original(*args, **kwargs), name, layer)
        return stepped
    span = kind == "span"
    enter, exit_ = tracer.enter, tracer.exit

    @functools.wraps(original)
    def timed(*args: t.Any, **kwargs: t.Any) -> t.Any:
        counts[name] += 1
        finish = hook(tracer, args) if hook is not None else None
        frame = enter(name, layer, span)
        try:
            result = original(*args, **kwargs)
        finally:
            exit_(frame)
        if finish is not None:
            finish(result)
        return result
    return timed


def _engine_events(tracer: LayerTracer, args: tuple) -> t.Callable[[t.Any], None]:
    engine = args[0]
    before = engine.events_processed

    def finish(result: t.Any) -> None:
        tracer.counts["sim.engine.events"] += engine.events_processed - before
    return finish


def _runtime_run(tracer: LayerTracer, args: tuple) -> t.Callable[[t.Any], None]:
    vm = args[0].vm

    def finish(result: t.Any) -> None:
        tracer.counts["hbsplib.supersteps"] += result.supersteps
        tracer.counts["pvm.messages"] += sum(
            vm.task(tid).sent_messages for tid in vm.tids
        )
    return finish


def _collective_run(tracer: LayerTracer, args: tuple) -> t.Callable[[t.Any], None]:
    def finish(outcome: t.Any) -> None:
        tracer.counts["collectives.runs"] += 1
        if outcome.runtime.macro is not None:
            tracer.counts["collectives.macro_runs"] += 1
        predicted = outcome.predicted_time
        if predicted is not None and outcome.time > 0:
            tracer.ratios.append(predicted / outcome.time)
    return finish


def _sweep_evaluate(tracer: LayerTracer, args: tuple) -> t.Callable[[t.Any], None]:
    executor = args[0]
    hits, misses, disk = executor.cache_hits, executor.cache_misses, executor.disk_hits

    def finish(result: t.Any) -> None:
        new_hits = executor.cache_hits - hits
        tracer.counts["perf.memo_hits"] += new_hits
        tracer.counts["perf.jobs"] += (
            new_hits + executor.cache_misses - misses + executor.disk_hits - disk
        )
    return finish


def _epochs(tracer: LayerTracer, args: tuple) -> t.Callable[[t.Any], None]:
    def finish(epochs: t.Any) -> None:
        tracer.counts["dynamics.epochs"] += len(epochs)
    return finish


_HOOKS: dict[str, Hook] = {
    "sim.engine.run": _engine_events,
    "hbsplib.run": _runtime_run,
    "perf.evaluate": _sweep_evaluate,
    "dynamics.membership_epochs": _epochs,
    **{"collectives.run_" + op: _collective_run for op in COLLECTIVE_OPS},
}


def _replace_everywhere(original: t.Callable, wrapper: t.Callable) -> None:
    """Rebind every ``repro`` module global (and module-level dict value)
    that names ``original`` — ``from x import f`` copies the binding."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "repro" or module_name.startswith("repro.")):
            continue
        namespace = vars(module)
        for key, value in list(namespace.items()):
            if value is original:
                namespace[key] = wrapper
            elif type(value) is dict:
                for inner_key, inner in value.items():
                    if inner is original:
                        value[inner_key] = wrapper


def install(tracer: LayerTracer, experiment_ids: t.Iterable[str]) -> None:
    """Wrap every boundary in :data:`BOUNDARIES` and each experiment
    factory in ``experiment_ids`` so calls report into ``tracer``."""
    import importlib

    from repro.experiments.runner import EXPERIMENTS

    for module_name, path, layer, name, kind in BOUNDARIES:
        module = importlib.import_module(module_name)
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        original = vars(owner)[attr]
        if kind == "steps" and not inspect.isgeneratorfunction(original):
            raise TypeError(f"{module_name}.{path} is not a generator function")
        wrapper = _make_wrapper(tracer, original, name, layer, kind, _HOOKS.get(name))
        if owner_name:
            setattr(owner, attr, wrapper)
        else:
            _replace_everywhere(original, wrapper)
    for experiment_id in experiment_ids:
        EXPERIMENTS[experiment_id] = _make_wrapper(
            tracer, EXPERIMENTS[experiment_id], f"experiments.{experiment_id}",
            "experiments", "span", None,
        )


# -- metrics ----------------------------------------------------------------------
def layer_metrics(tracer: LayerTracer, experiment_ids: t.Sequence[str]) -> dict[str, float]:
    """The per-layer metrics of one traced process (see README.md)."""
    counts = tracer.counts
    inclusive = tracer.inclusive
    runs = counts["collectives.runs"]
    jobs = counts["perf.jobs"]
    metrics: dict[str, float] = {
        "sim.macro.sends": counts["sim.macro.send"],
        "sim.macro.barrier_rounds": counts["sim.macro.barrier_round"],
        "sim.engine.events": counts["sim.engine.events"],
        "sim.macro_frac": counts["collectives.macro_runs"] / runs if runs else 0.0,
        "pvm.messages": counts["pvm.messages"],
        "hbsplib.supersteps": counts["hbsplib.supersteps"],
        "model.pred_over_sim_min": min(tracer.ratios, default=0.0),
        "model.pred_over_sim_max": max(tracer.ratios, default=0.0),
        "perf.jobs": jobs,
        "perf.memo_hit_frac": counts["perf.memo_hits"] / jobs if jobs else 0.0,
        "perf.evaluate_s": inclusive["perf.evaluate"],
        "serve.arrivals_s": inclusive["serve.generate_arrivals"],
        "serve.loop_s": _loop_seconds(tracer),
        "serve.request_cost_calls": counts["serve.request_cost"],
        "serve.prewarm_s": inclusive["serve.prewarm"],
        "cluster.generate_s": sum(
            value for name, value in inclusive.items()
            if name.startswith("cluster.generate.")
        ),
        "cluster.discover_s": inclusive["cluster.discover"],
        "dynamics.epochs": counts["dynamics.epochs"],
    }
    for layer in SELF_TIME_LAYERS:
        metrics[f"{layer}.self_s"] = tracer.self_time[layer]
    for experiment_id in experiment_ids:
        metrics[f"experiments.{experiment_id}_s"] = inclusive[f"experiments.{experiment_id}"]
    return metrics


def _loop_seconds(tracer: LayerTracer) -> float:
    """Host time of ``run_service`` minus its arrival generation and
    prewarm (a prewarmed model makes the latter ~0)."""
    spans = tracer.spans
    sessions = {s[0] for s in spans if s[2] == "serve.run_service"}
    total = sum(s[4] - s[3] for s in spans if s[0] in sessions)
    nested = sum(
        s[4] - s[3] for s in spans
        if s[1] in sessions and s[2] in ("serve.generate_arrivals", "serve.prewarm")
    )
    return total - nested
