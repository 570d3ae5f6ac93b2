"""Shared plumbing for the collective operations."""

from __future__ import annotations

import dataclasses
import functools
import typing as t

import numpy as np

from repro.cluster.topology import ClusterTopology
from repro.hbsplib.runtime import HbspResult, HbspRuntime
from repro.model.cost import CostLedger
from repro.util.rng import RngStream

if t.TYPE_CHECKING:  # pragma: no cover
    from repro.faults.plan import FaultPlan

__all__ = ["CollectiveOutcome", "make_runtime", "make_items", "concat_payloads"]


@dataclasses.dataclass
class CollectiveOutcome:
    """Result of running one collective on the simulated machine.

    Attributes
    ----------
    name:
        Collective name + configuration summary.
    time:
        Simulated makespan (virtual seconds) — the experiment metric.
    supersteps:
        Synchronisations performed (max over processes).
    values:
        Per-pid program return values (collective-specific; usually
        verification data such as item counts/checksums).
    predicted:
        The closed-form cost ledger for the same configuration.
    result:
        The raw :class:`~repro.hbsplib.HbspResult`.
    runtime:
        The runtime the collective executed on (holds params, tree,
        trace).
    """

    name: str
    time: float
    supersteps: int
    values: dict[int, t.Any]
    predicted: CostLedger
    result: HbspResult
    runtime: HbspRuntime

    @property
    def predicted_time(self) -> float:
        """Total of the analytic cost ledger."""
        return self.predicted.total

    def __repr__(self) -> str:
        return (
            f"CollectiveOutcome({self.name!r}, time={self.time:.6g}, "
            f"predicted={self.predicted_time:.6g}, supersteps={self.supersteps})"
        )


def make_runtime(
    topology: ClusterTopology,
    *,
    scores: t.Mapping[str, float] | None = None,
    trace: bool = False,
    serialize_nic: bool = True,
    faults: "FaultPlan | None" = None,
    fault_seed: int = 0,
    delivery: t.Any | None = None,
    macro: bool | None = None,
) -> HbspRuntime:
    """A fresh runtime for one measured collective run.

    With ``faults`` a fresh :class:`~repro.faults.Injector` is built
    (even for an empty plan, which is guaranteed bit-identical to no
    plan at all); ``delivery`` sets the default send policy;
    ``serialize_nic=False`` is the ablation that gives NIC ports
    unlimited parallel channels.  ``macro`` selects the macro-event
    fast path (``None`` auto-engages it on fault-free untraced runs,
    an empty fault plan included).
    """
    injector = None
    if faults is not None:
        from repro.faults.injector import Injector

        injector = Injector(faults, seed=fault_seed)
    return HbspRuntime(
        topology, scores=scores, trace=trace, serialize_nic=serialize_nic,
        injector=injector, delivery=delivery, macro=macro,
    )


@functools.lru_cache(maxsize=512)
def _items_cached(seed: int, pid: int, count: int) -> np.ndarray:
    stream = RngStream(seed, "items", pid)
    return stream.uniform_ints(count, high=2**31 - 1).astype(np.int32)


def make_items(seed: int, pid: int, count: int) -> np.ndarray:
    """Deterministic per-processor input data.

    The paper's inputs are uniformly distributed integers; we generate
    them as ``int32`` (4-byte items) from a stream derived from the
    experiment seed and the pid, so inputs don't depend on schedule.

    Generation dominates the profile of large sweeps, and paired runs
    (``T_s`` vs ``T_f`` on the same grid point) regenerate identical
    inputs — a small LRU memoises the draw; callers get a private copy
    so in-place mutation cannot leak between simulations.
    """
    return _items_cached(int(seed), int(pid), int(count)).copy()


def concat_payloads(arrays: t.Iterable[np.ndarray]) -> np.ndarray:
    """Concatenate item arrays (empty-safe)."""
    arrays = [np.asarray(a) for a in arrays]
    if not arrays:
        return np.empty(0, dtype=np.int32)
    return np.concatenate(arrays)
