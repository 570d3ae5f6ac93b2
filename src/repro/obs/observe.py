"""The observation context: one bundle of tracer + metrics + ledgers.

Mirrors :func:`repro.perf.sweep`: ``observe()`` installs an
:class:`Observation` for its dynamic extent, and the runtime layers
pick it up through :func:`current_observation` — no parameter threading
through eight collectives and four experiment layers.

Determinism: metrics and ledgers are fed exclusively from the compact
:class:`~repro.obs.accounting.RunObs` records that ride inside
:class:`~repro.perf.job.SimResult`, merged by the sweep executor in
submission order.  Worker processes and the persistent disk cache
therefore produce byte-identical exports to a serial cold run.  Span
tracing (``spans=True``) additionally records full timelines, which
forces simulations inline into the observing process.
"""

from __future__ import annotations

import contextlib
import typing as t

from repro.obs.accounting import RunObs, SuperstepLedger, collect_run_obs
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import Tracer

__all__ = ["Observation", "observe", "current_observation"]


class Observation:
    """Everything one observed extent accumulates.

    Attributes
    ----------
    tracer:
        The span tracer (disabled unless ``spans=True``).
    metrics:
        The aggregated metrics registry.
    ledgers:
        One :class:`SuperstepLedger` per observed run, in observation
        order (duplicated grid points appear once per occurrence).
    """

    def __init__(self, *, spans: bool = False) -> None:
        self.tracer = Tracer(enabled=spans)
        self.metrics = MetricsRegistry()
        self.ledgers: list[SuperstepLedger] = []
        self._groups = 0

    # -- group bookkeeping (chrome-trace processes) --------------------------
    def take_group(self) -> str:
        """A fresh span group id for one simulated run."""
        self._groups += 1
        return f"run{self._groups}"

    # -- feeding -------------------------------------------------------------
    def record_result(self, result: t.Any) -> None:
        """Fold one :class:`~repro.perf.job.SimResult` in (ledger + metrics)."""
        run = getattr(result, "obs", None)
        if run is not None:
            self.record_run(run)

    def record_run(self, run: RunObs) -> SuperstepLedger:
        """Fold one run's compact record into metrics and ledgers."""
        metrics = self.metrics
        metrics.merge_counters(run.counters)
        metrics.inc("repro_runs_total")
        metrics.inc("repro_supersteps_total", float(run.supersteps))
        metrics.inc("repro_simulated_seconds_total", run.time)
        ledger = SuperstepLedger(run)
        for row in ledger.rows:
            metrics.observe("repro_superstep_seconds", row.simulated)
            if row.critical is not None:
                metrics.observe("repro_h_relation_bytes", float(row.critical.h))
            for machine_row in row.machines:
                metrics.observe(
                    "repro_barrier_wait_seconds",
                    machine_row.wait,
                    labels=(("machine", machine_row.machine),),
                )
        self.ledgers.append(ledger)
        return ledger

    def ingest_outcome(self, outcome: t.Any) -> None:
        """Observe a finished outcome directly (the non-sweep path).

        Its spans were recorded live; this folds in metrics and ledgers
        and labels the run's span group with the outcome name.
        """
        self.record_run(collect_run_obs(outcome))
        vm = outcome.runtime.vm
        if vm.tracer is self.tracer:
            self.tracer.group_labels[vm.span_group] = outcome.name

    def __repr__(self) -> str:
        return (
            f"Observation({len(self.ledgers)} runs, {len(self.tracer)} spans, "
            f"{len(self.metrics)} metrics)"
        )


#: The active observation installed by :func:`observe` (None = off).
_current: Observation | None = None


def current_observation() -> Observation | None:
    """The observation installed by the innermost active :func:`observe`."""
    return _current


@contextlib.contextmanager
def observe(*, spans: bool = False) -> t.Iterator[Observation]:
    """Install an :class:`Observation` for the dynamic extent.

    Runtimes constructed inside the block feed its metrics registry
    and ledgers; with ``spans=True`` they also record full span
    timelines (which disables the sweep pool for the extent — spans
    cannot cross process boundaries).
    """
    global _current
    previous = _current
    observation = Observation(spans=spans)
    _current = observation
    try:
        yield observation
    finally:
        _current = previous
