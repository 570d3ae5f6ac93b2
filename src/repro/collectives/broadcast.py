"""The HBSP^k one-to-all broadcast (Sections 4.4–4.5).

"In the one-to-all broadcast, only the source process has the data
... at the termination of the procedure, each node has a copy."

Two schemes per level (the paper analyses both):

* **one-phase** — the level's coordinator sends the full ``n`` items
  to every participant (one super-step);
* **two-phase** — the coordinator scatters ``n/m`` shares, then the
  participants exchange shares all-to-all (two super-steps; the BSP
  two-phase broadcast of Juurlink & Wijshoff adapted to HBSP^k).

The hierarchical algorithm runs top-down: the root's cluster
distributes across level-``k`` participants, then every cluster
broadcasts internally, concurrently, until all level-0 processors hold
the data.
"""

from __future__ import annotations

import typing as t

import numpy as np

from repro.bytemark.ranking import partition_items
from repro.cluster.topology import ClusterTopology
from repro.collectives.base import CollectiveOutcome, concat_payloads, make_items, make_runtime
from repro.collectives.schedules import (
    RootPolicy,
    effective_coordinator,
    level_participants,
    resolve_root,
)
from repro.hbsplib.context import HbspContext
from repro.model.cost import CostLedger
from repro.model.params import HBSPParams
from repro.model.predict import predict_broadcast, predict_broadcast_plan
from repro.sim.macro import macro_safe
from repro.tuning.plan import (
    PhaseSpec,
    SchedulePlan,
    binomial_rounds,
    call_plan,
    phases_plan,
    split_segments,
)

if t.TYPE_CHECKING:  # pragma: no cover
    from repro.faults.plan import FaultPlan

__all__ = ["broadcast_program", "run_broadcast", "predict_broadcast_cost"]

#: Tag space: level * _TAG_STRIDE + share index; full copies use
#: share index _TAG_FULL.
_TAG_STRIDE = 1 << 16
_TAG_FULL = _TAG_STRIDE - 1


def _share_counts(
    ctx: HbspContext, participants: list[int], n: int, balanced: bool, level: int, root: int
) -> list[int]:
    """First-phase share sizes across participants (equal or by c)."""
    m = len(participants)
    if not balanced:
        base, extra = divmod(n, m)
        return [base + (1 if i < extra else 0) for i in range(m)]
    node = ctx.runtime._ancestor(ctx.pid, level)
    weights = []
    for child in node.children:
        weights.append(
            sum(ctx.runtime.fraction_of(member) for member in child.members)
        )
    total = sum(weights)
    part = partition_items(n, {str(i): w / total for i, w in enumerate(weights)})
    return [part[str(i)] for i in range(m)]


@macro_safe
def broadcast_program(
    ctx: HbspContext,
    n: int,
    root: int,
    phases: PhaseSpec = "two",
    balanced_shares: bool = False,
    seed: int = 0,
    plan: SchedulePlan | None = None,
) -> t.Generator:
    """Per-process broadcast program.

    Returns ``(items, checksum)``; on success every pid reports ``n``
    items with identical checksums.  ``plan`` overrides ``phases`` with
    a per-level schedule — one-phase (optionally segmented), two-phase,
    or binomial-tree doubling.
    """
    data: np.ndarray | None = (
        make_items(seed, root, n) if ctx.pid == root else None
    )
    k = ctx.runtime.tree.k
    plan = plan or phases_plan(phases, k)
    for level in range(k, 0, -1):
        schedule = plan.level(level)
        mode = schedule.algorithm
        participants = level_participants(ctx, level, root)
        coordinator = effective_coordinator(ctx, level, root)
        am_participant = ctx.pid in participants
        if mode == "one":
            segments = schedule.segments
            if segments == 1:
                if ctx.pid == coordinator and data is not None:
                    with ctx.phase(f"broadcast full L{level}", level=level):
                        for peer in participants:
                            if peer != ctx.pid:
                                yield from ctx.send(
                                    peer, data, tag=level * _TAG_STRIDE + _TAG_FULL
                                )
                yield from ctx.sync(level)
                arrived = ctx.messages(tag=level * _TAG_STRIDE + _TAG_FULL)
                if arrived and am_participant:
                    data = arrived[0].payload
            else:
                offsets = None
                if ctx.pid == coordinator and data is not None:
                    offsets = np.cumsum(
                        [0] + split_segments(data.size, segments)
                    )
                pieces: list[np.ndarray] = []
                for s in range(segments):
                    if offsets is not None:
                        with ctx.phase(
                            f"broadcast full L{level}.{s + 1}", level=level
                        ):
                            piece = data[offsets[s] : offsets[s + 1]]
                            for peer in participants:
                                if peer != ctx.pid:
                                    yield from ctx.send(
                                        peer, piece,
                                        tag=level * _TAG_STRIDE + _TAG_FULL,
                                    )
                    yield from ctx.sync(level)
                    arrived = ctx.messages(tag=level * _TAG_STRIDE + _TAG_FULL)
                    if arrived and am_participant:
                        pieces.append(arrived[0].payload)
                if pieces and am_participant:
                    data = concat_payloads(pieces)
        elif mode == "binomial":
            # Doubling over the child-coordinator positions, rotated so
            # the coordinator holds relative position 0: in round t
            # every holder q < 2^t forwards the payload to q + 2^t.
            C = len(participants)
            own_pos = participants.index(coordinator)
            rel = (
                (participants.index(ctx.pid) - own_pos) % C
                if am_participant
                else None
            )
            for t_round in range(binomial_rounds(C)):
                half = 1 << t_round
                if (
                    rel is not None
                    and data is not None
                    and rel < half
                    and rel + half < C
                ):
                    target = participants[(own_pos + rel + half) % C]
                    with ctx.phase(
                        f"binomial bcast L{level} r{t_round + 1}", level=level
                    ):
                        yield from ctx.send(
                            target, data, tag=level * _TAG_STRIDE + _TAG_FULL
                        )
                yield from ctx.sync(level)
                arrived = ctx.messages(tag=level * _TAG_STRIDE + _TAG_FULL)
                if arrived and rel is not None:
                    data = arrived[0].payload
        else:
            m = len(participants)
            my_index = participants.index(ctx.pid) if am_participant else -1
            my_share: np.ndarray | None = None
            if ctx.pid == coordinator and data is not None:
                with ctx.phase(f"broadcast scatter L{level}", level=level):
                    shares = _share_counts(ctx, participants, n, balanced_shares, level, root)
                    offsets = np.cumsum([0] + shares)
                    for i, peer in enumerate(participants):
                        piece = data[offsets[i] : offsets[i + 1]]
                        if peer == ctx.pid:
                            my_share = piece
                        else:
                            yield from ctx.send(peer, piece, tag=level * _TAG_STRIDE + i)
            yield from ctx.sync(level)
            if am_participant and my_share is None:
                arrived = ctx.messages()
                if arrived:
                    my_index = arrived[0].tag - level * _TAG_STRIDE
                    my_share = arrived[0].payload
            # Phase two: total exchange of shares among participants.
            if am_participant and my_share is not None:
                with ctx.phase(f"broadcast exchange L{level}", level=level):
                    for peer in participants:
                        if peer != ctx.pid:
                            yield from ctx.send(
                                peer, my_share, tag=level * _TAG_STRIDE + my_index
                            )
            yield from ctx.sync(level)
            if am_participant:
                pieces: dict[int, np.ndarray] = {}
                if my_share is not None:
                    pieces[my_index] = my_share
                for message in ctx.messages():
                    pieces[message.tag - level * _TAG_STRIDE] = message.payload
                if pieces:
                    data = concat_payloads(
                        [pieces[i] for i in sorted(pieces)]
                    )
    if data is None:
        return (0, 0)
    return (int(data.size), int(data.astype(np.int64).sum()))


def run_broadcast(
    topology: ClusterTopology,
    n: int,
    *,
    root: int | RootPolicy | None = None,
    phases: PhaseSpec = "two",
    balanced_shares: bool = False,
    scores: t.Mapping[str, float] | None = None,
    seed: int = 0,
    trace: bool = False,
    faults: "FaultPlan | None" = None,
    fault_seed: int | None = None,
    delivery: t.Any | None = None,
    macro: bool | None = None,
    plan: SchedulePlan | None = None,
) -> CollectiveOutcome:
    """Run the one-to-all broadcast and predict its cost.

    ``phases`` selects one-/two-phase per level (a single string
    applies everywhere).  ``balanced_shares`` distributes first-phase
    shares by the ``c_j`` fractions instead of equally (Fig. 4(b)).
    ``macro`` selects the macro-event fast path (default: auto on
    fault-free untraced runs; the result is bit-identical either way).
    ``plan`` runs an explicit :class:`~repro.tuning.plan.SchedulePlan`
    (overriding ``phases``), and the prediction prices that plan.
    """
    runtime = make_runtime(
        topology, scores=scores, trace=trace, faults=faults,
        fault_seed=seed if fault_seed is None else fault_seed, delivery=delivery,
        macro=macro,
    )
    root_pid = resolve_root(runtime, root)
    k = runtime.params.k
    plan, tag = call_plan("broadcast", k, plan, phases)
    result = runtime.run(
        broadcast_program, n, root_pid, phases, balanced_shares, seed, plan
    )
    fractions = (
        [runtime.fraction_of(j) for j in range(runtime.nprocs)]
        if balanced_shares
        else None
    )
    predicted = predict_broadcast_plan(
        runtime.params, n, plan, root=root_pid, fractions=fractions
    )
    predicted.name = f"broadcast(k={k}, n={n}{tag})"
    return CollectiveOutcome(
        name=f"broadcast(n={n}, root=pid{root_pid}{tag})",
        time=result.time,
        supersteps=result.supersteps,
        values=result.values,
        predicted=predicted,
        result=result,
        runtime=runtime,
    )


def predict_broadcast_cost(
    params: HBSPParams,
    n: int,
    *,
    root: int | None = None,
    phases: PhaseSpec = "two",
    fractions: t.Sequence[float] | None = None,
) -> CostLedger:
    """Closed-form broadcast cost (re-export of
    :func:`repro.model.predict.predict_broadcast` for API symmetry)."""
    return predict_broadcast(params, n, root=root, phases=phases, fractions=fractions)
