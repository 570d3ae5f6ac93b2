"""Observed span timelines against a fixed golden reference.

``golden_traces.json`` holds the Chrome-trace "X" events of a few
observed runs, each as ``(process name, thread name, cat, name,
ts.hex(), dur.hex(), json.dumps(args, sort_keys=True))`` in sorted
order, so the comparison ignores event order and tid numbering but
nothing else.  It was written by this module's ``__main__`` while the
simulator still appended its own trace records and the observation
layer translated them into spans after each run; the live span
recording is held to that layer's exact output (``==``).

Cases:

* ``gather`` — ``run_gather(ucf_testbed(4), 1024)``, every event;
* ``faulty-broadcast`` — a lossy broadcast with retries (fault mark,
  drops, timeouts and retransmissions), every event;
* ``fig3a+fig4a`` — both experiments under one observation: counts
  per category plus a sha256 of the sorted event list;
* ``gantt`` — the ``trace=True`` Gantt chart of an unobserved
  ``run_gather(ucf_testbed(5), 100_000)``: header line and the cells
  of each machine's row.

Regenerate only on purpose (it freezes today's timelines)::

    PYTHONPATH=src python tests/obs/test_golden_traces.py
"""

from __future__ import annotations

import collections
import hashlib
import json
import pathlib

import pytest

from repro.cluster.presets import smp_sgi_lan, ucf_testbed
from repro.collectives import run_broadcast, run_gather
from repro.experiments import run_experiment
from repro.faults import DeliveryPolicy, flaky_network_plan
from repro.obs import chrome_trace, gantt, observe

FIXTURE = pathlib.Path(__file__).with_name("golden_traces.json")


def chrome_events(tracer):
    """The sorted "X" events of ``tracer``'s Chrome export."""
    events = json.loads(chrome_trace(tracer))["traceEvents"]
    processes, threads = {}, {}
    for event in events:
        if event["name"] == "process_name" and event["ph"] == "M":
            processes[event["pid"]] = event["args"]["name"]
        elif event["name"] == "thread_name" and event["ph"] == "M":
            threads[event["pid"], event["tid"]] = event["args"]["name"]
    return sorted(
        [
            processes[event["pid"]],
            threads[event["pid"], event["tid"]],
            event["cat"],
            event["name"],
            float(event["ts"]).hex(),
            float(event["dur"]).hex(),
            json.dumps(event.get("args", {}), sort_keys=True),
        ]
        for event in events
        if event["ph"] == "X"
    )


def _observed(run):
    with observe(spans=True) as observation:
        outcome = run()
        observation.ingest_outcome(outcome)
    return chrome_events(observation.tracer)


def gather_record():
    return _observed(lambda: run_gather(ucf_testbed(4), 1024))


def faulty_broadcast_record():
    return _observed(lambda: run_broadcast(
        smp_sgi_lan(), 4096,
        faults=flaky_network_plan(drop_prob=0.05),
        delivery=DeliveryPolicy.retry(5, timeout=0.5),
        seed=3,
    ))


def experiments_record():
    with observe(spans=True) as observation:
        run_experiment("fig3a")
        run_experiment("fig4a")
    events = chrome_events(observation.tracer)
    counts = collections.Counter(event[2] for event in events)
    digest = hashlib.sha256(json.dumps(events).encode()).hexdigest()
    return {"counts": dict(sorted(counts.items())), "sha256": digest}


def gantt_record():
    outcome = run_gather(ucf_testbed(5), 100_000, trace=True)
    header, *rows, _legend = gantt(outcome.result.trace, width=72).splitlines()
    cells = {}
    for row in rows:
        actor, line = row.split(" |", 1)
        # Keyed by machine; a task label ``pid3@machine`` maps to its machine.
        cells[actor.strip().rsplit("@", 1)[-1]] = line.rstrip("|")
    return {"header": header, "cells": cells}


RECORDS = {
    "gather": gather_record,
    "faulty-broadcast": faulty_broadcast_record,
    "fig3a+fig4a": experiments_record,
    "gantt": gantt_record,
}


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_trace_matches_golden(golden, name):
    assert RECORDS[name]() == golden[name]


def test_fixture_covers_faults_and_message_timing(golden):
    """The fixture still pins fault marks, drops, retries and drains."""
    cats = collections.Counter(event[2] for event in golden["faulty-broadcast"])
    assert cats["fault"] == 1 and cats["drop"] > 0 and cats["timeout"] > 0
    assert any('"retry"' in event[6] for event in golden["faulty-broadcast"])
    counts = golden["fig3a+fig4a"]["counts"]
    assert sum(counts.values()) == 21300
    assert len(golden["gantt"]["cells"]) == 5


if __name__ == "__main__":  # pragma: no cover - regenerates the fixture
    record = {name: build() for name, build in RECORDS.items()}
    with FIXTURE.open("w", encoding="utf-8") as handle:
        json.dump(record, handle, sort_keys=True, separators=(",", ":"))
        handle.write("\n")
    print(f"wrote {len(record)} trace records to {FIXTURE}")
