"""Gather/broadcast cost ledgers against a fixed golden reference.

``golden_ledgers.json`` holds, for every case below, the ledger name,
the total and every ``(label, level, w, gh, L)`` step as ``float.hex``.
It was written by this module's ``__main__`` from the code *before*
the plan-less predictors and kernels were folded into the plan-driven
ones, after checking there that the scalar predictor and the kernel
grid agreed exactly.  The current scalar adapters and kernel grids
must reproduce it with exact ``==``, so "default plan == legacy" stays
an independent check rather than one implementation compared with
itself.  The paper's verbatim ``paper_*`` formulas (test_predict.py)
are the second, independent reference.

Regenerate only on purpose (it freezes today's numbers)::

    PYTHONPATH=src python tests/model/test_golden_ledgers.py
"""

from __future__ import annotations

import json
import pathlib

import numpy as np
import pytest

from repro.cluster.presets import grid_three_level, smp_sgi_lan, ucf_testbed
from repro.model.kernels import BroadcastKernel, GatherKernel
from repro.model.params import calibrate
from repro.model.predict import predict_broadcast, predict_gather

FIXTURE = pathlib.Path(__file__).with_name("golden_ledgers.json")

MACHINES = {
    "testbed6": lambda: ucf_testbed(6),
    "fig1": smp_sgi_lan,
    "grid3": lambda: grid_three_level(2, 2, 2),
}
NS = (0, 1, 7, 1000, 25_600)
PHASES = ("one", "two", {2: "one"}, {1: "one"})
WEIGHTINGS = ("equal", "c")


def _fractions(params, weighting):
    if weighting == "equal":
        return None
    return [params.c_of(0, j) for j in range(params.p)]


def _gather_points(params):
    return [(n, root) for n in NS for root in range(params.p)]


def _broadcast_points(params):
    return [
        (n, root, phases)
        for n in NS
        for root in range(params.p)
        for phases in PHASES
    ]


def _gather_key(machine, n, root):
    return f"{machine}|gather|n={n}|root={root}"


def _broadcast_key(machine, n, root, phases, weighting):
    return f"{machine}|broadcast|n={n}|root={root}|phases={phases!r}|{weighting}"


def _encode(ledger):
    return {
        "name": ledger.name,
        "total": ledger.total.hex(),
        "steps": [
            [s.label, s.level, s.w.hex(), s.gh.hex(), s.L.hex()]
            for s in ledger.steps
        ],
    }


def scalar_ledgers(machine):
    """``{key: encoded ledger}`` from the scalar predictors."""
    params = calibrate(MACHINES[machine]())
    out = {}
    for n, root in _gather_points(params):
        out[_gather_key(machine, n, root)] = _encode(
            predict_gather(params, n, root=root)
        )
    for weighting in WEIGHTINGS:
        fractions = _fractions(params, weighting)
        for n, root, phases in _broadcast_points(params):
            out[_broadcast_key(machine, n, root, phases, weighting)] = _encode(
                predict_broadcast(
                    params, n, root=root, phases=phases, fractions=fractions
                )
            )
    return out


def kernel_ledgers(machine):
    """``{key: encoded ledger}`` from one kernel grid per op/weighting."""
    params = calibrate(MACHINES[machine]())
    out = {}
    points = _gather_points(params)
    grid = GatherKernel(params).evaluate(
        np.array([n for n, _ in points], dtype=np.int64),
        roots=np.array([root for _, root in points], dtype=np.int64),
    )
    for i, (n, root) in enumerate(points):
        out[_gather_key(machine, n, root)] = _encode(grid.ledger(i))
        assert grid.totals[i] == grid.ledger(i).total
    points = _broadcast_points(params)
    ns = np.array([n for n, _, _ in points], dtype=np.int64)
    roots = np.array([root for _, root, _ in points], dtype=np.int64)
    for weighting in WEIGHTINGS:
        grid = BroadcastKernel(params).evaluate(
            ns,
            roots=roots,
            phases=[phases for _, _, phases in points],
            fractions=_fractions(params, weighting),
        )
        for i, (n, root, phases) in enumerate(points):
            key = _broadcast_key(machine, n, root, phases, weighting)
            out[key] = _encode(grid.ledger(i))
            assert grid.totals[i] == grid.ledger(i).total
    return out


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


def _assert_matches(golden, got, machine):
    expected = {k: v for k, v in golden.items() if k.startswith(machine + "|")}
    assert expected, f"no golden cases for {machine}"
    assert sorted(got) == sorted(expected)
    for key, want in expected.items():
        assert got[key] == want, key


@pytest.mark.parametrize("machine", sorted(MACHINES))
def test_scalar_predictors_match_golden(golden, machine):
    _assert_matches(golden, scalar_ledgers(machine), machine)


@pytest.mark.parametrize("machine", sorted(MACHINES))
def test_kernel_grids_match_golden(golden, machine):
    _assert_matches(golden, kernel_ledgers(machine), machine)


if __name__ == "__main__":  # pragma: no cover - regenerates the fixture
    cases = {}
    for machine in MACHINES:
        scalar = scalar_ledgers(machine)
        assert kernel_ledgers(machine) == scalar, machine
        cases.update(scalar)
    with FIXTURE.open("w", encoding="utf-8") as handle:
        handle.write("{\n")
        lines = [
            f"{json.dumps(key)}: {json.dumps(cases[key])}" for key in sorted(cases)
        ]
        handle.write(",\n".join(lines))
        handle.write("\n}\n")
    print(f"wrote {len(cases)} ledgers to {FIXTURE}")
