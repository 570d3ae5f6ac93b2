"""Serving sessions and arrival sequences against a fixed golden reference.

``golden_sessions.json`` holds, for every session below, the report's
``to_jsonable()`` plus every latency as ``float.hex``, and for every
arrival case the sequence of ``(request_id, time.hex(), kind)``.  It
was written by this module's ``__main__`` from the serving loop as it
stood *before* the cost table, the vectorized Poisson draws and the
streamed arrivals went in, so those rewrites are held to the old
loop's exact numbers (``==``, not a tolerance) rather than compared
with themselves.

The matrix covers the static loop (shedding and not, unbounded and
zero-length queues, no batching, whole-cluster placement), the
diurnal thinning path, and churn: a seeded ``churn_plan`` plus
interrupting plans that drive ``_interrupt``, ``_retry`` and degraded
shedding, and a cluster that goes dark for good (backlog shed).

Regenerate only on purpose (it freezes today's numbers)::

    PYTHONPATH=src python tests/serve/test_golden_sessions.py
"""

from __future__ import annotations

import dataclasses
import functools
import json
import pathlib

import pytest

from repro.dynamics import DynamicPlan, MachineLeave, churn_plan
from repro.experiments.serving import serving_config
from repro.serve import default_config, generate_arrivals, run_service
from repro.serve.arrivals import _CHUNK
from repro.serve.costs import StageCostModel
from repro.serve.service import resolve_cluster, serve_slices

FIXTURE = pathlib.Path(__file__).with_name("golden_sessions.json")


def _with_policy(config, **kwargs):
    return dataclasses.replace(
        config, policy=dataclasses.replace(config.policy, **kwargs)
    )


def _with_arrival(config, **kwargs):
    return dataclasses.replace(
        config, arrival=dataclasses.replace(config.arrival, **kwargs)
    )


def _machines(config):
    return [m.name for m in resolve_cluster(config.cluster).machines]


def _interrupting_plan(config):
    """Every machine leaves for 1 s just after the first arrival."""
    t0 = generate_arrivals(config)[0].time
    return DynamicPlan([
        MachineLeave(name, start=t0 + 0.001, duration=1.0)
        for name in _machines(config)
    ])


@functools.lru_cache(maxsize=None)
def _serving_model():
    """One prewarmed model shared by the serving_config sessions."""
    config = serving_config(4.0, duration=200.0)
    slices, _ = serve_slices(config)
    model = StageCostModel(config, slices)
    model.prewarm()
    return model


def _serving(rate):
    return serving_config(rate, duration=200.0), None, _serving_model()


def _static(**policy):
    return _with_policy(default_config(duration=60.0), **policy), None, None


def _diurnal():
    config = serving_config(20.0, duration=100.0, process="diurnal")
    return config, None, _serving_model()


def _churn():
    config = default_config(duration=20.0, rate=8.0)
    plan = churn_plan(_machines(config), rate=0.5, duration=20.0, seed=3)
    return config, plan, None


def _offline_forever():
    """Every machine leaves before the first arrival and never returns."""
    config = default_config(duration=10.0)
    plan = DynamicPlan([
        MachineLeave(name, start=1e-9) for name in _machines(config)
    ])
    return config, plan, None


def _interrupt(**policy):
    config = _with_policy(default_config(duration=10.0), **policy)
    return config, _interrupting_plan(config), None


#: ``name -> () -> (config, dynamics, shared cost model or None)``
SESSIONS = {
    "serving-rate4": lambda: _serving(4.0),
    "serving-rate20": lambda: _serving(20.0),
    "serving-rate48": lambda: _serving(48.0),
    "default-unbounded-queue": lambda: _static(queue_limit=None),
    "default-queue-limit-0": lambda: _static(queue_limit=0),
    "default-max-batch-1": lambda: _static(max_batch=1),
    "default-whole": lambda: _static(placement="whole"),
    "diurnal": _diurnal,
    "churn": _churn,
    "interrupt": _interrupt,
    "interrupt-no-redispatch": lambda: _interrupt(max_redispatch=0),
    "offline-forever": _offline_forever,
}

#: ``name -> () -> config`` for arrival sequences alone.  The long
#: Poisson windows span several draw chunks; ``poisson-empty`` offers
#: nothing.
ARRIVALS = {
    "poisson-rate20-250s": lambda: default_config(seed=1, duration=250.0, rate=20.0),
    "poisson-rate100-130s": lambda: default_config(seed=2, duration=130.0, rate=100.0),
    "poisson-rate3-10s": lambda: default_config(seed=4, duration=10.0, rate=3.0),
    "poisson-empty": lambda: default_config(seed=0, duration=1e-6, rate=1.0),
    "diurnal-rate10-100s": lambda: _with_arrival(
        default_config(seed=5, duration=100.0, rate=10.0),
        process="diurnal", amplitude=0.7, period=20.0,
    ),
}


def session_record(name):
    config, dynamics, model = SESSIONS[name]()
    report = run_service(config, dynamics=dynamics, costs=model)
    return {
        # Round-trip through JSON so tuples compare equal to lists.
        "report": json.loads(json.dumps(report.to_jsonable())),
        "latencies": [latency.hex() for latency in report.latencies],
    }


def arrival_record(name):
    return [
        [a.request_id, a.time.hex(), a.kind]
        for a in generate_arrivals(ARRIVALS[name]())
    ]


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(SESSIONS))
def test_session_matches_golden(golden, name):
    assert session_record(name) == golden["sessions"][name]


@pytest.mark.parametrize("name", sorted(ARRIVALS))
def test_arrivals_match_golden(golden, name):
    assert arrival_record(name) == golden["arrivals"][name]


def test_matrix_exercises_every_path(golden):
    """The fixture still covers shedding, churn and empty traffic."""
    sessions = {k: v["report"] for k, v in golden["sessions"].items()}
    assert sessions["serving-rate48"]["shed"] > 0
    assert sessions["default-queue-limit-0"]["completed"] == 0
    assert sessions["default-max-batch-1"]["batches"] == (
        sessions["default-max-batch-1"]["completed"]
    )
    assert sessions["churn"]["epochs"] > 1
    assert sessions["interrupt"]["redispatched"] > 0
    assert sessions["interrupt-no-redispatch"]["degraded_shed"] > 0
    assert sessions["offline-forever"]["degraded_shed"] == (
        sessions["offline-forever"]["admitted"]
    ) > 0
    assert golden["arrivals"]["poisson-empty"] == []
    # Several vector draw chunks on the Poisson path.
    assert len(golden["arrivals"]["poisson-rate100-130s"]) > 3 * _CHUNK


if __name__ == "__main__":  # pragma: no cover - regenerates the fixture
    record = {
        "sessions": {name: session_record(name) for name in sorted(SESSIONS)},
        "arrivals": {name: arrival_record(name) for name in sorted(ARRIVALS)},
    }
    with FIXTURE.open("w", encoding="utf-8") as handle:
        json.dump(record, handle, sort_keys=True, separators=(",", ":"))
        handle.write("\n")
    print(
        f"wrote {len(record['sessions'])} sessions and "
        f"{len(record['arrivals'])} arrival sequences to {FIXTURE}"
    )
