"""The simulator's trace store: a :class:`repro.obs.Tracer` of spans.

Every simulator layer records into one tracer per run; these tests pin
the recording and query behaviour the rest of the suite relies on,
with per-actor and per-category totals written as ``filter`` plus a
sum.
"""

from repro.obs import Tracer


def record(tracer, category, actor, start, end=None, **args):
    return tracer.add(
        category, category, group="run", actor=actor,
        start=start, end=start if end is None else end, **args,
    )


class TestTrace:
    def test_disabled_is_noop(self):
        tracer = Tracer(enabled=False)
        record(tracer, "compute", "m0", 0.5, 1.0)
        assert len(tracer) == 0

    def test_emit_records(self):
        tracer = Tracer()
        record(tracer, "compute", "m0", 0.5, 1.0, work=100)
        assert len(tracer) == 1
        span = tracer.spans[0]
        assert span.end == 1.0
        assert span.category == "compute"
        assert span.actor == "m0"
        assert span.duration == 0.5
        assert span.args["work"] == 100

    def test_filter_by_category(self):
        tracer = Tracer()
        record(tracer, "pack", "a", 0.9, 1.0)
        record(tracer, "drain", "b", 1.8, 2.0)
        record(tracer, "pack", "b", 2.7, 3.0)
        assert len(tracer.filter("pack")) == 2
        assert len(tracer.filter("drain")) == 1

    def test_filter_by_actor(self):
        tracer = Tracer()
        record(tracer, "pack", "a", 0.9, 1.0)
        record(tracer, "pack", "b", 1.8, 2.0)
        assert len(tracer.filter(actor="a")) == 1

    def test_filter_both(self):
        tracer = Tracer()
        record(tracer, "pack", "a", 0.9, 1.0)
        record(tracer, "drain", "a", 1.8, 2.0)
        assert len(tracer.filter("pack", actor="a")) == 1

    def test_total_duration(self):
        tracer = Tracer()
        record(tracer, "pack", "a", 0.0, 0.1)
        record(tracer, "pack", "b", 0.0, 0.2)
        total = sum(s.duration for s in tracer.filter("pack"))
        assert abs(total - 0.3) < 1e-12

    def test_by_actor(self):
        tracer = Tracer()
        record(tracer, "drain", "root", 0.5, 1.0)
        record(tracer, "drain", "root", 1.5, 2.0)
        record(tracer, "drain", "other", 2.5, 2.625)
        by_actor = {
            actor: sum(s.duration for s in tracer.filter("drain", actor=actor))
            for actor in ("root", "other")
        }
        assert by_actor == {"root": 1.0, "other": 0.125}

    def test_categories(self):
        tracer = Tracer()
        record(tracer, "pack", "a", 0.0, 1.0)
        record(tracer, "barrier", "a", 0.0, 2.0)
        categories = {
            category: sum(s.duration for s in tracer.filter(category))
            for category in {s.category for s in tracer}
        }
        assert categories == {"pack": 1.0, "barrier": 2.0}

    def test_iterable(self):
        tracer = Tracer()
        record(tracer, "x", "a", 1.0)
        assert [s.category for s in tracer] == ["x"]

    def test_point_events_have_zero_duration(self):
        tracer = Tracer()
        record(tracer, "mark", "a", 1.0)
        assert tracer.spans[0].duration == 0.0
