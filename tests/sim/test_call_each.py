"""Engine.call_each: a streamed batch fires exactly like per-item call_at."""

from __future__ import annotations

import functools
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim import Engine

#: Offsets from ``now`` on a coarse grid, so entries land on ``now``
#: itself (lane 0), on duplicate times and on other entries' times.
OFFSETS = st.sampled_from([0.0, 0.5, 1.0])

OPS = st.one_of(
    st.tuples(st.just("each"), st.lists(OFFSETS, max_size=6).map(sorted)),
    st.tuples(st.just("at"), OFFSETS),
    st.tuples(st.just("soon"), st.just(0.0)),
    st.tuples(st.just("timeout"), OFFSETS),
)

#: ``program[0]`` runs before the engine starts; the callback labelled
#: ``k`` runs ``program[k + 1]`` when it fires (labels are handed out in
#: scheduling order, so both engines label alike while they agree).
PROGRAMS = st.lists(st.lists(OPS, max_size=3), min_size=1, max_size=12)


def _play(program, *, streamed):
    """Run ``program``; return the firing log and the event count."""
    engine = Engine()
    log = []
    labels = itertools.count()

    def fire(label):
        log.append((label, engine.now))
        if label + 1 < len(program):
            schedule(program[label + 1])

    def schedule(ops):
        now = engine.now
        for op, arg in ops:
            if op == "each":
                times = [now + offset for offset in arg]
                batch = [next(labels) for _ in times]
                if streamed:
                    engine.call_each(times, lambda i, b=batch: fire(b[i]))
                else:
                    for at, label in zip(times, batch):
                        engine.call_at(at, functools.partial(fire, label))
            elif op == "at":
                engine.call_at(now + arg, functools.partial(fire, next(labels)))
            elif op == "soon":
                engine.call_soon(functools.partial(fire, next(labels)))
            else:
                label = next(labels)
                engine.timeout(arg).add_callback(lambda _e, k=label: fire(k))

    schedule(program[0])
    engine.run()
    return log, engine.events_processed


class TestCallEachOrdering:
    @settings(max_examples=300, deadline=None)
    @given(program=PROGRAMS)
    def test_matches_per_item_call_at(self, program):
        assert _play(program, streamed=True) == _play(program, streamed=False)

    def test_lane_zero_entries_beat_an_earlier_future_timeout(self):
        engine = Engine()
        order = []
        engine.call_at(1.0, lambda: engine.call_each(
            [1.0, 1.0, 2.0], lambda i: order.append(i)
        ))
        engine.timeout(1.0).add_callback(lambda _e: order.append("timeout"))
        engine.run()
        # The batch is created at t=1, so its t=1 entries are "ready
        # now" (lane 0) and run before the timeout, which was queued
        # earlier but merely lands there; the t=2 entry runs last.
        assert order == [0, 1, "timeout", 2]

    def test_reserves_sequence_numbers_at_call_time(self):
        engine = Engine()
        order = []
        engine.call_each([1.0, 2.0], lambda i: order.append(f"each{i}"))
        engine.call_at(2.0, lambda: order.append("at"))
        engine.run()
        assert order == ["each0", "each1", "at"]

    def test_heap_holds_one_entry_per_batch(self):
        engine = Engine()
        sizes = []
        engine.call_each([1.0, 2.0, 3.0, 4.0], lambda i: sizes.append(len(engine._heap)))
        assert len(engine._heap) == 1
        engine.run()
        assert sizes == [1, 1, 1, 0]
        assert engine.events_processed == 4
        assert engine.now == 4.0


class TestCallEachErrors:
    def test_past_time_raises(self):
        engine = Engine()
        engine.timeout(2.0)
        engine.run()
        with pytest.raises(SimulationError, match="cannot schedule into the past"):
            engine.call_each([1.0, 3.0], lambda i: None)
        assert not engine._heap

    def test_decreasing_times_raise(self):
        engine = Engine()
        with pytest.raises(SimulationError, match="cannot schedule into the past"):
            engine.call_each([1.0, 3.0, 2.0], lambda i: None)
        assert not engine._heap

    def test_empty_sequence_is_a_no_op(self):
        engine = Engine()
        engine.call_each([], lambda i: pytest.fail("called"))
        engine.call_each((), lambda i: pytest.fail("called"))
        assert not engine._heap
        assert engine.run() == 0.0
        assert engine.events_processed == 0
