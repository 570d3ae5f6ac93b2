"""Declarative dynamic-cluster plans.

A :class:`DynamicPlan` generalises the static
:class:`~repro.faults.FaultPlan` timeline into the non-stationary
behaviour production clusters actually exhibit:

* **membership churn** — :class:`MachineLeave` / :class:`MachineJoin`
  events with deterministic membership *epochs* the serving layer
  re-plans against (:mod:`repro.dynamics.epochs`);
* **speed drift** — :class:`SpeedDrift` processes (seeded random-walk
  or piecewise-linear multipliers on a machine's effective ``r_i``);
* **diurnal background load** — :class:`DiurnalLoad` curves reusing
  the serving layer's ``1 + amplitude*sin(2*pi*t/period)`` rate shape
  (:func:`repro.serve.arrivals.diurnal_rate`).

Plans are plain frozen data: they JSON-round-trip exactly like fault
plans, validate against a topology before a run starts, and compile
(:func:`repro.dynamics.compile_plan`) onto the simulator through named
:class:`~repro.util.rng.RngStream`\\ s — so equal plans produce equal
timelines everywhere, and the empty plan compiles to the empty
:class:`~repro.faults.FaultPlan`, which is bit-identical to a
fault-free run.
"""

from __future__ import annotations

import dataclasses
import json
import math
import typing as t

from repro.errors import DynamicsError

if t.TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.topology import ClusterTopology

__all__ = [
    "MachineJoin",
    "MachineLeave",
    "SpeedDrift",
    "DiurnalLoad",
    "DynamicPlan",
    "churn_plan",
    "drift_plan",
]

_DRIFT_PROCESSES = ("random_walk", "piecewise_linear")


def _check_window(start: float, duration: float | None) -> None:
    if start < 0:
        raise DynamicsError(f"start must be >= 0, got {start!r}")
    if duration is not None and duration <= 0:
        raise DynamicsError(f"duration must be > 0, got {duration!r}")


def _end(start: float, duration: float | None) -> float:
    return math.inf if duration is None else start + duration


@dataclasses.dataclass(frozen=True)
class MachineJoin:
    """``machine`` is absent from the cluster until ``start``.

    Before the join time the machine makes no progress and the serving
    layer's membership epochs exclude it; a join at ``start == 0`` is a
    no-op (the machine was always there).
    """

    machine: str
    start: float

    kind: t.ClassVar[str] = "machine_join"

    def __post_init__(self) -> None:
        _check_window(self.start, None)


@dataclasses.dataclass(frozen=True)
class MachineLeave:
    """``machine`` leaves the cluster at ``start``.

    With a finite ``duration`` it rejoins afterwards (a reboot); with
    ``duration=None`` it is gone for the rest of the run.  While absent
    the machine makes no progress and membership epochs exclude it.
    """

    machine: str
    start: float
    duration: float | None = None

    kind: t.ClassVar[str] = "machine_leave"

    def __post_init__(self) -> None:
        _check_window(self.start, self.duration)

    @property
    def end(self) -> float:
        """Rejoin time (``inf`` when the machine never returns)."""
        return _end(self.start, self.duration)


@dataclasses.dataclass(frozen=True)
class SpeedDrift:
    """A seeded drift process on ``machine``'s effective slowness.

    Every ``step`` seconds the machine's slowdown multiplier is
    resampled: ``random_walk`` multiplies the previous value by a
    lognormal factor of sigma ``magnitude``; ``piecewise_linear`` draws
    a new target uniformly in ``[floor, ceiling]`` and ramps to it
    (compiled as the segment's midpoint factor).  Multipliers are
    clamped to ``[floor, ceiling]``; the default floor of 1 means a
    machine can only get *slower* than its calibrated ``r_i``, never
    faster than the model's fastest.
    """

    machine: str
    process: str = "random_walk"
    magnitude: float = 0.2
    step: float = 1.0
    floor: float = 1.0
    ceiling: float = 4.0
    start: float = 0.0
    duration: float | None = None

    kind: t.ClassVar[str] = "speed_drift"

    def __post_init__(self) -> None:
        _check_window(self.start, self.duration)
        if self.process not in _DRIFT_PROCESSES:
            raise DynamicsError(
                f"unknown drift process {self.process!r}; "
                f"known: {', '.join(_DRIFT_PROCESSES)}"
            )
        if self.magnitude <= 0:
            raise DynamicsError(f"magnitude must be > 0, got {self.magnitude!r}")
        if self.step <= 0:
            raise DynamicsError(f"step must be > 0, got {self.step!r}")
        if self.floor < 1.0:
            raise DynamicsError(f"floor must be >= 1, got {self.floor!r}")
        if self.ceiling < self.floor:
            raise DynamicsError(
                f"ceiling must be >= floor, got {self.ceiling!r} < {self.floor!r}"
            )

    @property
    def end(self) -> float:
        """Drift window end (``inf`` for a permanent process)."""
        return _end(self.start, self.duration)


@dataclasses.dataclass(frozen=True)
class DiurnalLoad:
    """A diurnal background-load curve on ``machine``.

    The stolen-CPU fraction follows the serving layer's rate shape:
    ``intensity * (1 + amplitude * sin(2*pi*t/period))``, clamped to
    ``(0, 1)``.  Compilation slices the window into piecewise-constant
    segments and emits one :class:`~repro.faults.BackgroundLoad` per
    segment, so the existing hog machinery plays the curve.
    """

    machine: str
    intensity: float = 0.3
    period: float = 60.0
    amplitude: float = 0.5
    burst_mean: float = 0.01
    start: float = 0.0
    duration: float | None = None

    kind: t.ClassVar[str] = "diurnal_load"

    def __post_init__(self) -> None:
        _check_window(self.start, self.duration)
        if not 0.0 < self.intensity < 1.0:
            raise DynamicsError(
                f"intensity must be in (0, 1), got {self.intensity!r}"
            )
        if not 0.0 <= self.amplitude <= 1.0:
            raise DynamicsError(
                f"amplitude must be in [0, 1], got {self.amplitude!r}"
            )
        if self.period <= 0:
            raise DynamicsError(f"period must be > 0, got {self.period!r}")
        if self.burst_mean <= 0:
            raise DynamicsError(f"burst_mean must be > 0, got {self.burst_mean!r}")

    @property
    def end(self) -> float:
        """Curve end (``inf`` when the load persists)."""
        return _end(self.start, self.duration)


#: Every concrete dynamic event type.
DynamicSpec = t.Union[MachineJoin, MachineLeave, SpeedDrift, DiurnalLoad]

_KINDS: dict[str, type] = {
    cls.kind: cls for cls in (MachineJoin, MachineLeave, SpeedDrift, DiurnalLoad)
}


@dataclasses.dataclass(frozen=True)
class DynamicPlan:
    """An ordered collection of dynamic-cluster events.

    Mirrors :class:`~repro.faults.FaultPlan`: build programmatically,
    from the preset builders (:func:`churn_plan`, :func:`drift_plan`),
    or from JSON.  The empty plan is a guaranteed no-op — it compiles
    to ``FaultPlan.empty()`` and a single all-present membership epoch,
    so runs carrying it stay bit-identical to runs without one.
    """

    events: tuple[DynamicSpec, ...] = ()

    def __init__(self, events: "DynamicSpec | t.Iterable[DynamicSpec]" = ()) -> None:
        if type(events) in _KINDS.values():  # a bare spec: wrap it
            events = (events,)
        events = tuple(events)
        for event in events:
            if type(event) not in _KINDS.values():
                raise DynamicsError(f"not a dynamic event specification: {event!r}")
        object.__setattr__(self, "events", events)

    @classmethod
    def empty(cls) -> "DynamicPlan":
        """The no-op plan: runs with it are bit-identical to plain runs."""
        return cls()

    @property
    def is_empty(self) -> bool:
        """True when the plan changes nothing."""
        return not self.events

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> t.Iterator[DynamicSpec]:
        return iter(self.events)

    def extended(self, *events: DynamicSpec) -> "DynamicPlan":
        """A new plan with ``events`` appended."""
        return DynamicPlan(self.events + tuple(events))

    def machines(self) -> tuple[str, ...]:
        """Every machine the plan names, sorted and deduplicated."""
        return tuple(sorted({event.machine for event in self.events}))

    # -- validation -----------------------------------------------------------
    def validate(self, topology: "ClusterTopology") -> None:
        """Check every named machine exists in ``topology``."""
        known = {m.name for m in topology.machines}
        for event in self.events:
            if event.machine not in known:
                raise DynamicsError(
                    f"{event.kind} names unknown machine {event.machine!r}; "
                    f"known: {', '.join(sorted(known))}"
                )

    # -- serialisation ---------------------------------------------------------
    def to_dict(self) -> dict:
        """Plain-data representation (JSON-compatible)."""
        out = []
        for event in self.events:
            record: dict[str, t.Any] = {"kind": event.kind}
            record.update(dataclasses.asdict(event))
            out.append(record)
        return {"events": out}

    @classmethod
    def from_dict(cls, data: t.Mapping) -> "DynamicPlan":
        """Rebuild a plan from :meth:`to_dict` output."""
        if not isinstance(data, t.Mapping) or "events" not in data:
            raise DynamicsError('dynamic plan must be an object with an "events" list')
        records = data["events"]
        if not isinstance(records, (list, tuple)):
            raise DynamicsError(f'"events" must be a list, got {type(records).__name__}')
        events = []
        for index, record in enumerate(records):
            if not isinstance(record, t.Mapping):
                raise DynamicsError(
                    f"events[{index}] must be an object, got {type(record).__name__}"
                )
            record = dict(record)
            kind = record.pop("kind", None)
            if not isinstance(kind, str) or kind not in _KINDS:
                raise DynamicsError(
                    f"events[{index}]: unknown event kind {kind!r}; "
                    f"known: {', '.join(sorted(_KINDS))}"
                )
            try:
                events.append(_KINDS[kind](**record))
            except TypeError as error:
                raise DynamicsError(
                    f"events[{index}]: bad {kind} specification: {error}"
                ) from None
        return cls(events)

    def to_json(self, *, indent: int | None = 2) -> str:
        """Serialise to a JSON document."""
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "DynamicPlan":
        """Parse a plan from a JSON document."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as error:
            raise DynamicsError(f"dynamic plan is not valid JSON: {error}") from None
        return cls.from_dict(data)

    @classmethod
    def from_file(cls, path: str) -> "DynamicPlan":
        """Load a plan from a JSON file (``repro serve --dynamics plan.json``)."""
        try:
            with open(path, encoding="utf-8") as handle:
                return cls.from_json(handle.read())
        except OSError as error:
            raise DynamicsError(
                f"cannot read dynamic plan {path!r}: {error}"
            ) from None

    def __repr__(self) -> str:
        kinds = ", ".join(e.kind for e in self.events) or "empty"
        return f"DynamicPlan({kinds})"


# -- preset builders -----------------------------------------------------------
def churn_plan(
    machines: t.Sequence[str],
    *,
    rate: float,
    duration: float,
    seed: int = 0,
    outage_mean: float | None = None,
) -> DynamicPlan:
    """Seeded Poisson churn: machines leave and rejoin at ``rate``.

    ``rate`` is leave events per second over ``[0, duration)``; each
    event picks a machine uniformly and an exponential outage of mean
    ``outage_mean`` (default ``duration / 10``).  ``rate = 0`` returns
    the empty plan.  Equal arguments build equal plans — the events are
    drawn from ``RngStream(seed, "dynamics", "churn")``.
    """
    from repro.util.rng import RngStream

    if not machines:
        raise DynamicsError("churn_plan needs at least one machine name")
    if rate < 0:
        raise DynamicsError(f"churn rate must be >= 0, got {rate!r}")
    if duration <= 0:
        raise DynamicsError(f"duration must be > 0, got {duration!r}")
    if rate == 0:
        return DynamicPlan.empty()
    mean_outage = duration / 10.0 if outage_mean is None else outage_mean
    if mean_outage <= 0:
        raise DynamicsError(f"outage_mean must be > 0, got {mean_outage!r}")
    stream = RngStream(seed, "dynamics", "churn")
    events: list[DynamicSpec] = []
    now = 0.0
    while True:
        now += stream.exponential(1.0 / rate)
        if now >= duration:
            break
        machine = machines[int(stream.uniform() * len(machines)) % len(machines)]
        outage = stream.exponential(mean_outage)
        events.append(MachineLeave(machine=machine, start=now, duration=outage))
    return DynamicPlan(events)


def drift_plan(
    machines: t.Sequence[str],
    *,
    magnitude: float = 0.2,
    step: float = 1.0,
    ceiling: float = 4.0,
) -> DynamicPlan:
    """Every named machine random-walks its effective slowness."""
    return DynamicPlan([
        SpeedDrift(machine=name, magnitude=magnitude, step=step, ceiling=ceiling)
        for name in machines
    ])
