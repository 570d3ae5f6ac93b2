"""Closed-form HBSP^k cost predictions for the Section-4 algorithms.

Two families of functions:

* *Exact* h-relation evaluations of the paper's algorithms on an
  arbitrary HBSP^k parameter set (any k, any root, any workload
  distribution), returning an itemised
  :class:`~repro.model.cost.CostLedger`.  Each op has one scalar body,
  priced over a :class:`~repro.tuning.plan.SchedulePlan`:
  ``predict_gather_plan`` and ``predict_broadcast_plan``.  The
  plan-less ``predict_gather`` / ``predict_broadcast`` are adapters:
  they build the plan from their arguments (``default_plan`` for
  gather, the per-level plan of ``phases`` for broadcast), call the
  body, and keep their plan-less ledger names.
* ``paper_*`` — the paper's *simplified* formulas, verbatim
  (e.g. HBSP^1 gather ``= g·n + L_{1,0}``), used by tests and by the
  Section-4 analysis benchmarks to show where the simplifications hold.
  They are the independent second reference for the exact bodies.

Conventions: ``n`` counts data items, ``item_bytes`` converts items to
the bytes that ``g`` (seconds/byte) is expressed against.  Volumes
follow the paper's accounting — a machine's ``h`` is the largest number
of units it *sends or receives* in the step, and a processor never
sends data to itself.
"""

from __future__ import annotations

import typing as t

from repro.bytemark.ranking import partition_items
from repro.errors import CollectiveError, ModelError
from repro.model.cost import CostLedger, h_relation
from repro.model.params import HBSPParams, Key
from repro.tuning.plan import (
    PhaseSpec,
    SchedulePlan,
    binomial_rounds,
    default_plan,
    phases_plan,
    split_segments,
)
from repro.util.units import BYTES_PER_INT

__all__ = [
    "default_counts",
    "predict_gather",
    "predict_broadcast",
    "predict_gather_plan",
    "predict_broadcast_plan",
    "paper_gather_hbsp1",
    "paper_gather_hbsp2_super2",
    "paper_broadcast_hbsp1_one_phase",
    "paper_broadcast_hbsp1_two_phase",
    "paper_broadcast_hbsp2_super2_one_phase",
    "paper_broadcast_hbsp2_super2_two_phase",
]


def default_counts(params: HBSPParams, n: int) -> list[int]:
    """Balanced workloads: ``x_{0,j} = c_{0,j}·n`` as whole items."""
    fractions = {str(j): params.c_of(0, j) for j in range(params.p)}
    part = partition_items(n, fractions)
    return [part[str(j)] for j in range(params.p)]


def _coordinator_leaf(params: HBSPParams, key: Key, root: int | None) -> int:
    """Leaf (level-0 index) acting as coordinator of subtree ``key``.

    The fastest member (smallest ``r``) coordinates, except that the
    subtree containing ``root`` is coordinated by ``root`` itself — this
    is how the experiments re-root a collective on a chosen processor.
    """
    leaves = params.leaf_indices(*key)
    if root is not None and root in leaves:
        return root
    return min(leaves, key=lambda j: (params.r_of(0, j), j))


def _check_inputs(params: HBSPParams, n: int, root: int | None) -> int:
    if n < 0:
        raise CollectiveError(f"n must be >= 0, got {n}")
    if root is None:
        root = params.fastest_index(0)
    if not 0 <= root < params.p:
        raise CollectiveError(f"root {root} out of range for p={params.p}")
    return root


def predict_gather(
    params: HBSPParams,
    n: int,
    *,
    root: int | None = None,
    counts: t.Sequence[int] | None = None,
    item_bytes: int = BYTES_PER_INT,
) -> CostLedger:
    """Cost of the HBSP^k gather (Sections 4.2–4.3, generalised).

    Level by level, every cluster gathers onto its coordinator
    (concurrently — the super^i-step costs the *largest* cluster time),
    then coordinators forward their subtree totals upward until the
    root holds all ``n`` items.

    ``counts[j]`` is processor ``j``'s initial item count (default:
    the balanced workload ``c_{0,j}·n``).  ``root`` overrides the
    coordinator of its own chain (default: the fastest processor).

    An adapter: prices ``default_plan("gather", k)`` (flat fan-in at
    every level) with :func:`predict_gather_plan` and names the ledger
    ``gather(k=…, n=…)``.
    """
    ledger = predict_gather_plan(
        params, n, default_plan("gather", params.k),
        root=root, counts=counts, item_bytes=item_bytes,
    )
    ledger.name = f"gather(k={params.k}, n={n})"
    return ledger


def predict_broadcast(
    params: HBSPParams,
    n: int,
    *,
    root: int | None = None,
    phases: PhaseSpec = "two",
    fractions: t.Sequence[float] | None = None,
    item_bytes: int = BYTES_PER_INT,
) -> CostLedger:
    """Cost of the HBSP^k one-to-all broadcast (Sections 4.4–4.5).

    Top-down: at each level the cluster coordinator distributes the
    ``n`` items to its child coordinators using a one-phase or
    two-phase scheme, then every child cluster broadcasts internally
    (concurrently; the super^i-step costs the largest cluster time).

    Parameters
    ----------
    phases:
        ``"one"``/``"two"`` for all levels, or a mapping
        ``{level: "one"|"two"}`` (e.g. the paper's HBSP^2 variants use
        either at level 2 and two-phase at level 1).
    fractions:
        Optional per-*child* first-phase shares for the two-phase
        scheme (Fig. 4(b)'s balanced first phase); equal split when
        omitted.  Interpreted per cluster over its children by
        normalised child ``c`` when given as ``"c"``.

    An adapter: prices :func:`~repro.tuning.plan.phases_plan` of
    ``phases`` with :func:`predict_broadcast_plan` and names the ledger
    ``broadcast(k=…, n=…, phases=…)``.
    """
    ledger = predict_broadcast_plan(
        params, n, phases_plan(phases, params.k),
        root=root, fractions=fractions, item_bytes=item_bytes,
    )
    ledger.name = f"broadcast(k={params.k}, n={n}, phases={phases!r})"
    return ledger


# ---------------------------------------------------------------------------
# Schedule-plan predictions: the one scalar body per op
# ---------------------------------------------------------------------------
#
# ``predict_gather_plan`` / ``predict_broadcast_plan`` price an explicit
# :class:`~repro.tuning.plan.SchedulePlan` — per-level algorithm choice
# plus message segmentation — charging, per level, the worst cluster's
# super-step.  They are the scalar reference the vectorized
# ``model.kernels`` plan evaluators are bit-identical to, and the bodies
# behind the plan-less adapters above.
#
# Modelling conventions for the extended space:
#
# * **segmentation** (``segments = S``): every sender splits its payload
#   into ``S`` chunks (``split_segments``) and the level runs ``S``
#   chunked sub-steps, each charging its own ``g·h + L`` — latency
#   multiplies, peak h-relation shrinks.
# * **binomial**: ⌈log₂C⌉ rounds over the child-coordinator positions,
#   rotated so the cluster coordinator sits at relative position 0.  In
#   round ``t`` the holder at relative ``q`` (``q mod 2^{t+1} = 2^t``)
#   sends its accumulated window ``[q, q+2^t)`` down to ``q - 2^t``
#   (gather), or position ``q < 2^t`` forwards the full payload up to
#   ``q + 2^t`` (broadcast); each round charges ``g·h + L`` with the
#   h-relation over that round's senders and receivers.  Clusters with
#   fewer rounds than the level's worst simply drop out of the later
#   rounds' worst-cluster scans.


def _clusters(params: HBSPParams, level: int, root: int) -> list[tuple]:
    """Per-cluster facts of one level, shared by its sub-steps.

    One ``(key, children, r_coord, child_r, own_pos, L)`` per cluster:
    ``child_r`` lists the child coordinators' ``r``; ``own_pos`` is the
    child whose coordinator also coordinates the cluster (its data stays
    local — no self-send), or ``None``.
    """
    out = []
    for j in range(params.m[level]):
        key = (level, j)
        children = params.children_of(*key)
        coord = _coordinator_leaf(params, key, root)
        child_coords = [_coordinator_leaf(params, c, root) for c in children]
        own_pos = next(
            (i for i, c in enumerate(child_coords) if c == coord), None
        )
        out.append(
            (
                key,
                children,
                params.r_of(0, coord),
                [params.r_of(0, c) for c in child_coords],
                own_pos,
                params.L_of(level, j),
            )
        )
    return out


def _charge_worst(
    ledger: CostLedger, level: int, steps: list[tuple[float, float, str]]
) -> None:
    """Charge a super-step: the costliest ``(gh, L, label)`` cluster step.

    Clusters run concurrently, so the step costs its slowest cluster
    (the first one on ties).  No clusters, no charge.
    """
    if steps:
        gh, L, label = max(steps, key=lambda step: step[0] + step[1])
        ledger.charge(label, level=level, gh=gh, L=L)


def predict_gather_plan(
    params: HBSPParams,
    n: int,
    plan: SchedulePlan,
    *,
    root: int | None = None,
    counts: t.Sequence[int] | None = None,
    item_bytes: int = BYTES_PER_INT,
) -> CostLedger:
    """Cost of the HBSP^k gather under an explicit schedule plan.

    ``plan`` is a :class:`repro.tuning.plan.SchedulePlan` with
    ``op == "gather"`` and one :class:`~repro.tuning.plan.LevelSchedule`
    per hierarchy level.  The one scalar gather body:
    :func:`predict_gather` is this on the default plan.
    """
    if plan.op != "gather":
        raise CollectiveError(f"plan is for {plan.op!r}, expected 'gather'")
    root = _check_inputs(params, n, root)
    if counts is None:
        counts = default_counts(params, n)
    if len(counts) != params.p:
        raise CollectiveError(f"counts must have p={params.p} entries")
    if sum(counts) != n:
        raise CollectiveError(f"counts sum to {sum(counts)}, expected n={n}")
    if plan.k != params.k:
        raise CollectiveError(
            f"plan schedules {plan.k} levels, topology has k={params.k}"
        )

    ledger = CostLedger(f"gather(k={params.k}, n={n}, plan={plan.key})")
    if params.k == 0 or params.p == 1:
        return ledger

    # Items held by the coordinator of each subtree as the gather
    # ascends: starts as each leaf's own count.
    subtree_total: dict[Key, int] = {(0, j): int(counts[j]) for j in range(params.p)}

    for level in range(1, params.k + 1):
        schedule = plan.level(level)
        clusters = _clusters(params, level, root)
        totals_of = []
        for key, children, *_ in clusters:
            totals = [subtree_total[c] for c in children]
            subtree_total[key] = sum(totals)
            totals_of.append(totals)
        if schedule.algorithm == "flat":
            S = schedule.segments
            for s in range(S):
                steps = []
                for (key, _, r_coord, child_r, own_pos, L), totals in zip(
                    clusters, totals_of
                ):
                    chunks = [split_segments(c, S)[s] for c in totals]
                    received = sum(
                        c for i, c in enumerate(chunks) if i != own_pos
                    )
                    loads = [(r_coord, received * item_bytes)]
                    loads += [
                        (child_r[i], chunks[i] * item_bytes)
                        for i in range(len(chunks))
                        if i != own_pos
                    ]
                    label = (
                        f"super{level}: gather into {key}"
                        if S == 1
                        else f"super{level}.{s + 1}: gather into {key}"
                    )
                    steps.append((params.g * h_relation(loads), L, label))
                _charge_worst(ledger, level, steps)
        else:  # binomial
            rounds = [binomial_rounds(len(totals)) for totals in totals_of]
            for t_round in range(max(rounds, default=0)):
                steps = []
                half = 1 << t_round
                for (key, _, _, child_r, own_pos, L), totals, R in zip(
                    clusters, totals_of, rounds
                ):
                    if R <= t_round:
                        continue
                    C = len(totals)
                    assert own_pos is not None
                    loads = []
                    for q in range(half, C, 2 * half):
                        held = sum(
                            totals[(own_pos + u) % C]
                            for u in range(q, min(q + half, C))
                        )
                        volume = held * item_bytes
                        loads.append((child_r[(own_pos + q) % C], volume))
                        loads.append((child_r[(own_pos + q - half) % C], volume))
                    label = (
                        f"super{level}: binomial gather round {t_round + 1} "
                        f"in {key}"
                    )
                    steps.append((params.g * h_relation(loads), L, label))
                _charge_worst(ledger, level, steps)
    return ledger


def predict_broadcast_plan(
    params: HBSPParams,
    n: int,
    plan: SchedulePlan,
    *,
    root: int | None = None,
    fractions: t.Sequence[float] | None = None,
    item_bytes: int = BYTES_PER_INT,
) -> CostLedger:
    """Cost of the HBSP^k broadcast under an explicit schedule plan.

    The one scalar broadcast body: :func:`predict_broadcast` is this on
    the per-level plan of its ``phases``.  ``fractions`` selects the
    c-weighted first-phase shares for two-phase levels.
    """
    if plan.op != "broadcast":
        raise CollectiveError(f"plan is for {plan.op!r}, expected 'broadcast'")
    root = _check_inputs(params, n, root)
    if plan.k != params.k:
        raise CollectiveError(
            f"plan schedules {plan.k} levels, topology has k={params.k}"
        )

    ledger = CostLedger(f"broadcast(k={params.k}, n={n}, plan={plan.key})")
    if params.k == 0 or params.p == 1 or n == 0:
        return ledger

    for level in range(params.k, 0, -1):
        schedule = plan.level(level)
        # Singleton wrapper clusters have nothing to send.
        clusters = [c for c in _clusters(params, level, root) if len(c[1]) > 1]
        if schedule.algorithm == "one":
            S = schedule.segments
            for s, chunk in enumerate(split_segments(n, S)):
                steps = []
                for key, children, r_coord, child_r, own_pos, L in clusters:
                    peers = [i for i in range(len(children)) if i != own_pos]
                    loads = [(r_coord, chunk * len(peers) * item_bytes)]
                    loads += [(child_r[i], chunk * item_bytes) for i in peers]
                    label = (
                        f"super{level}: one-phase bcast in {key}"
                        if S == 1
                        else f"super{level}.{s + 1}: one-phase bcast in {key}"
                    )
                    steps.append((params.g * h_relation(loads), L, label))
                _charge_worst(ledger, level, steps)
        elif schedule.algorithm == "two":
            steps = []
            for key, children, r_coord, child_r, own_pos, L in clusters:
                m = len(children)
                peers = [i for i in range(m) if i != own_pos]
                if fractions is None:
                    shares = {i: n // m + (1 if i < n % m else 0) for i in range(m)}
                else:
                    if len(fractions) != params.p:
                        raise CollectiveError(
                            f"fractions must have p={params.p} entries"
                        )
                    weights = {
                        str(i): sum(
                            params.c_of(0, leaf)
                            for leaf in params.leaf_indices(*children[i])
                        )
                        for i in range(m)
                    }
                    total_w = sum(weights.values())
                    part = partition_items(
                        n, {k_: v / total_w for k_, v in weights.items()}
                    )
                    shares = {i: part[str(i)] for i in range(m)}
                own_share = shares[own_pos] if own_pos is not None else 0
                # Phase A: the coordinator scatters shares.
                loads_a = [(r_coord, (n - own_share) * item_bytes)]
                loads_a += [(child_r[i], shares[i] * item_bytes) for i in peers]
                # Phase B: total exchange of shares among the children.
                loads_b = [
                    (
                        child_r[i],
                        max(shares[i] * (m - 1), n - shares[i]) * item_bytes,
                    )
                    for i in range(m)
                ]
                gh = params.g * (h_relation(loads_a) + h_relation(loads_b))
                steps.append((gh, 2 * L, f"super{level}: two-phase bcast in {key}"))
            _charge_worst(ledger, level, steps)
        else:  # binomial
            rounds = [binomial_rounds(len(c[1])) for c in clusters]
            for t_round in range(max(rounds, default=0)):
                steps = []
                half = 1 << t_round
                for (key, children, _, child_r, own_pos, L), R in zip(
                    clusters, rounds
                ):
                    if R <= t_round:
                        continue
                    m = len(children)
                    assert own_pos is not None
                    volume = n * item_bytes
                    loads = []
                    for q in range(min(half, m - half)):
                        loads.append((child_r[(own_pos + q) % m], volume))
                        loads.append((child_r[(own_pos + q + half) % m], volume))
                    label = (
                        f"super{level}: binomial bcast round {t_round + 1} "
                        f"in {key}"
                    )
                    steps.append((params.g * h_relation(loads), L, label))
                _charge_worst(ledger, level, steps)
    return ledger


# ---------------------------------------------------------------------------
# The paper's simplified formulas (verbatim from Section 4)
# ---------------------------------------------------------------------------

def _nbytes(n: int, item_bytes: int) -> float:
    return float(n) * item_bytes


def paper_gather_hbsp1(params: HBSPParams, n: int, *, item_bytes: int = BYTES_PER_INT) -> float:
    """Section 4.2: balanced HBSP^1 gather costs ``g·n + L_{1,0}``."""
    if params.k != 1:
        raise ModelError("paper formula applies to HBSP^1 machines")
    return params.g * _nbytes(n, item_bytes) + params.L_of(1, 0)


def paper_gather_hbsp2_super2(
    params: HBSPParams, n: int, *, item_bytes: int = BYTES_PER_INT
) -> float:
    """Section 4.3: the balanced HBSP^2 gather super²-step is ``g·n + L_{2,0}``."""
    if params.k != 2:
        raise ModelError("paper formula applies to HBSP^2 machines")
    return params.g * _nbytes(n, item_bytes) + params.L_of(2, 0)


def paper_broadcast_hbsp1_one_phase(
    params: HBSPParams, n: int, *, item_bytes: int = BYTES_PER_INT
) -> float:
    """Section 4.4: one-phase HBSP^1 broadcast costs ``g·n·m + L_{1,0}``.

    (The paper prints ``m_{2,0}`` in this formula; on an HBSP^1 machine
    the sender fan-out is ``m_{1,0}``.)
    """
    if params.k != 1:
        raise ModelError("paper formula applies to HBSP^1 machines")
    return params.g * _nbytes(n, item_bytes) * params.m_of(1, 0) + params.L_of(1, 0)


def paper_broadcast_hbsp1_two_phase(
    params: HBSPParams, n: int, *, item_bytes: int = BYTES_PER_INT
) -> float:
    """Section 4.4: two-phase HBSP^1 broadcast costs ``g·n(1+r_{0,s}) + 2L_{1,0}``."""
    if params.k != 1:
        raise ModelError("paper formula applies to HBSP^1 machines")
    r_s = params.slowest_r(0)
    return params.g * _nbytes(n, item_bytes) * (1.0 + r_s) + 2 * params.L_of(1, 0)


def paper_broadcast_hbsp2_super2_one_phase(
    params: HBSPParams, n: int, *, item_bytes: int = BYTES_PER_INT
) -> float:
    """Section 4.4 HBSP^2 analysis, one-phase super²-step.

    ``g·max(r_{1,s}·n, r_{2,0}·n·m_{2,0}) + L_{2,0}``.
    """
    if params.k != 2:
        raise ModelError("paper formula applies to HBSP^2 machines")
    r_1s = params.slowest_r(1)
    r_root = params.r_of(2, 0)
    m = params.m_of(2, 0)
    nb = _nbytes(n, item_bytes)
    return params.g * max(r_1s * nb, r_root * nb * m) + params.L_of(2, 0)


def paper_broadcast_hbsp2_super2_two_phase(
    params: HBSPParams, n: int, *, item_bytes: int = BYTES_PER_INT
) -> float:
    """Section 4.4 HBSP^2 analysis, two-phase super²-steps.

    First step: ``g·max(r_{1,s}·n/m_{2,0}, r_{2,0}·n)``;
    second step: ``g·r_{1,s}·n``; plus ``2L_{2,0}``.
    """
    if params.k != 2:
        raise ModelError("paper formula applies to HBSP^2 machines")
    r_1s = params.slowest_r(1)
    r_root = params.r_of(2, 0)
    m = params.m_of(2, 0)
    nb = _nbytes(n, item_bytes)
    first = max(r_1s * nb / m, r_root * nb)
    second = r_1s * nb
    return params.g * (first + second) + 2 * params.L_of(2, 0)
