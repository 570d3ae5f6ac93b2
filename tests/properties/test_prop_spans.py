"""Property tests: message-timing spans nest inside their supersteps.

Every simulator layer records live into the run's one tracer, so a
pack, inject, unpack or compute span lands while its machine's
superstep span is open: it lies inside a superstep span on its own
``(group, actor)`` track and is parented on that track.

A drain is the receiver's NIC taking in a message the *sender* sent in
its superstep, and HBSP^k barriers are per cluster: a faster cluster's
coordinator may already send superstep ``s + 1`` data to a machine
still finishing superstep ``s``.  So a drain always lies inside a
superstep of the sending machine, and inside one of its own machine's
supersteps (then parented there) unless it straddles that machine's
boundary.

Message spans store their start anchored at the end
(``end - (end - start)``, see ``VirtualMachine.record_span``), so the
containment test anchors the superstep start the same way; rounding
is monotone, so a span that truly starts inside a superstep passes it
exactly.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cli import build_preset
from repro.obs import observe
from repro.perf.job import COLLECTIVE_OPS, _resolve_runner
from tests.properties.test_prop_collectives import small_topology

LOCAL_CATEGORIES = frozenset({"pack", "inject", "unpack", "compute"})


def _enclosing_step(span, steps):
    """The superstep among ``steps`` that contains ``span``, if any."""
    for step in steps:
        if span.end - (span.end - step.start) <= span.start and span.end <= step.end:
            return step
    return None


@given(
    topology=small_topology(),
    op=st.sampled_from(COLLECTIVE_OPS),
    n=st.integers(min_value=1, max_value=3_000),
)
@settings(max_examples=40, deadline=None)
@example(topology=build_preset("testbed:2"), op="alltoall", n=1)
def test_message_spans_nest_in_supersteps(topology, op, n):
    with observe(spans=True) as observation:
        outcome = _resolve_runner(op)(topology, n)
    tracer, runtime = observation.tracer, outcome.runtime
    by_id = {span.span_id: span for span in tracer}
    steps: dict[str, list] = {}
    for span in tracer.filter("superstep"):
        steps.setdefault(span.actor, []).append(span)

    def parented_on_own_track(span):
        parent = by_id.get(span.parent_id)
        return parent is not None and parent.actor == span.actor

    # Every network send packs once, so a run that sends over a network
    # has message spans to check; a one-item alltoall keeps its item
    # home and sends nothing.
    sent = runtime.vm.metrics.counter_sum("repro_messages_sent_total")
    assert len(tracer.filter("pack")) == sent
    local = [span for span in tracer if span.category in LOCAL_CATEGORIES]
    for span in local:
        assert _enclosing_step(span, steps.get(span.actor, ())) is not None, span
        assert parented_on_own_track(span), span
    for span in tracer.filter("drain"):
        sender = runtime.topology.machines[runtime.pid_of(span.args["src"])].name
        assert _enclosing_step(span, steps.get(sender, ())) is not None, span
        if _enclosing_step(span, steps.get(span.actor, ())) is not None:
            assert parented_on_own_track(span), span
    for span in tracer:
        assert span.end is not None
        assert 0.0 <= span.start <= span.end <= outcome.time
