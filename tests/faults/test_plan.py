"""Unit tests for declarative fault plans and their serialisation."""

import math

import pytest

from repro.cluster import ucf_testbed
from repro.errors import FaultPlanError
from repro.faults import (
    BackgroundLoad,
    FaultPlan,
    LinkDegradation,
    MachinePause,
    MachineSlowdown,
    MessageFaults,
    congestion_plan,
    flaky_network_plan,
    straggler_plan,
)

ALL_KINDS = [
    MachineSlowdown("m0", factor=4.0, start=1.0, duration=2.0),
    MachinePause("m0", start=0.5, duration=0.25),
    LinkDegradation("lan", gap_factor=3.0, extra_latency=2e-3),
    MessageFaults("lan", drop_prob=0.02, delay_prob=0.05, delay_mean=1e-3),
    BackgroundLoad("m0", intensity=0.5, start=0.0, duration=1.0),
]


class TestSpecs:
    def test_slowdown_validation(self):
        with pytest.raises(FaultPlanError):
            MachineSlowdown("m", factor=0.0)
        with pytest.raises(FaultPlanError):
            MachineSlowdown("m", factor=2.0, start=-1.0)
        with pytest.raises(FaultPlanError):
            MachineSlowdown("m", factor=2.0, duration=0.0)

    def test_pause_requires_finite_duration(self):
        with pytest.raises(TypeError):
            MachinePause("m", start=0.0)  # duration is mandatory
        assert MachinePause("m", start=0.0, duration=1.0).end == 1.0

    def test_link_degradation_validation(self):
        with pytest.raises(FaultPlanError):
            LinkDegradation("lan", gap_factor=0.5)
        with pytest.raises(FaultPlanError):
            LinkDegradation("lan", extra_latency=-1.0)

    def test_message_faults_validation(self):
        with pytest.raises(FaultPlanError):
            MessageFaults(drop_prob=1.5)
        with pytest.raises(FaultPlanError):
            MessageFaults(delay_prob=0.5)  # needs delay_mean > 0
        assert MessageFaults(drop_prob=1.0).end == math.inf

    def test_background_load_validation(self):
        with pytest.raises(FaultPlanError):
            BackgroundLoad("m", intensity=0.0, start=0.0, duration=1.0)
        with pytest.raises(FaultPlanError):
            BackgroundLoad("m", intensity=1.0, start=0.0, duration=1.0)
        with pytest.raises(FaultPlanError):
            BackgroundLoad("m", intensity=0.5, start=0.0, duration=1.0, burst_mean=0)

    def test_open_ended_end_is_inf(self):
        assert MachineSlowdown("m", factor=2.0).end == math.inf
        assert MachineSlowdown("m", factor=2.0, start=1.0, duration=2.0).end == 3.0


class TestFaultPlan:
    def test_empty(self):
        plan = FaultPlan.empty()
        assert plan.is_empty
        assert len(plan) == 0
        assert list(plan) == []

    def test_bare_spec_is_wrapped(self):
        spec = MachineSlowdown("m", factor=2.0)
        assert list(FaultPlan(spec)) == [spec]

    def test_rejects_non_specs(self):
        with pytest.raises(FaultPlanError):
            FaultPlan(["not a fault"])

    def test_extended(self):
        plan = FaultPlan.empty().extended(*ALL_KINDS)
        assert len(plan) == len(ALL_KINDS)
        assert FaultPlan.empty().extended(ALL_KINDS[0]).faults == (ALL_KINDS[0],)

    def test_validate_against_topology(self):
        topology = ucf_testbed(4)
        machine = topology.machines[0].name
        network = topology.clusters[0].network.name
        FaultPlan([
            MachineSlowdown(machine, factor=2.0),
            LinkDegradation(network, gap_factor=2.0),
            MessageFaults(None, drop_prob=0.5),
        ]).validate(topology)
        with pytest.raises(FaultPlanError, match="unknown machine"):
            straggler_plan("nope").validate(topology)
        with pytest.raises(FaultPlanError, match="unknown network"):
            congestion_plan("nope").validate(topology)

    def test_json_roundtrip_all_kinds(self):
        plan = FaultPlan(ALL_KINDS)
        assert FaultPlan.from_json(plan.to_json()) == plan
        assert FaultPlan.from_dict(plan.to_dict()) == plan

    def test_from_file(self, tmp_path):
        path = tmp_path / "plan.json"
        plan = flaky_network_plan(drop_prob=0.1)
        path.write_text(plan.to_json())
        assert FaultPlan.from_file(str(path)) == plan
        with pytest.raises(FaultPlanError, match="cannot read"):
            FaultPlan.from_file(str(tmp_path / "missing.json"))

    def test_bad_documents(self):
        with pytest.raises(FaultPlanError, match="not valid JSON"):
            FaultPlan.from_json("{nope")
        with pytest.raises(FaultPlanError, match='"faults"'):
            FaultPlan.from_dict({})
        with pytest.raises(FaultPlanError, match="unknown fault kind"):
            FaultPlan.from_dict({"faults": [{"kind": "gremlin"}]})
        with pytest.raises(FaultPlanError, match="bad machine_slowdown"):
            FaultPlan.from_dict({"faults": [{"kind": "machine_slowdown"}]})

    @pytest.mark.parametrize(
        ("document", "field"),
        [
            ({"faults": 5}, r'"faults" must be a list'),
            ({"faults": "ab"}, r'"faults" must be a list'),
            ({"faults": [5]}, r"faults\[0\] must be an object"),
            ({"faults": ["ab"]}, r"faults\[0\] must be an object"),
            ({"faults": [{"kind": []}]}, r"faults\[0\]: unknown fault kind"),
            (
                {"faults": [{"kind": "machine_slowdown", "machine": "m", "factor": 2.0}, {}]},
                r"faults\[1\]: unknown fault kind",
            ),
        ],
    )
    def test_malformed_records_raise_typed_errors(self, document, field):
        with pytest.raises(FaultPlanError, match=field):
            FaultPlan.from_dict(document)


class TestBuilders:
    def test_straggler(self):
        (fault,) = straggler_plan("m1", factor=5.0, duration=2.0)
        assert isinstance(fault, MachineSlowdown)
        assert fault.machine == "m1" and fault.factor == 5.0 and fault.end == 2.0

    def test_congestion(self):
        (fault,) = congestion_plan("lan", gap_factor=2.5, extra_latency=1e-3)
        assert isinstance(fault, LinkDegradation)
        assert fault.gap_factor == 2.5 and fault.extra_latency == 1e-3

    def test_flaky(self):
        (fault,) = flaky_network_plan(drop_prob=0.1, delay_prob=0.2, delay_mean=1e-3)
        assert isinstance(fault, MessageFaults)
        assert fault.network is None and fault.drop_prob == 0.1
