"""The memoized request-cost table of StageCostModel."""

from __future__ import annotations

import pytest

import repro.serve.costs as costs_module
from repro.perf import evaluate
from repro.serve import default_config, run_service
from repro.serve.costs import StageCostModel
from repro.serve.service import serve_slices


def _model(config):
    slices, _ = serve_slices(config)
    return StageCostModel(config, slices)


def _request_keys(model):
    return sorted({(k, s, b) for k, _, s, b in model.universe()})


@pytest.fixture
def config():
    return default_config(seed=0, duration=20.0)


def test_prewarmed_session_never_evaluates(config, monkeypatch):
    model = _model(config)
    model.prewarm()

    def refuse(jobs):
        raise AssertionError("evaluate() called after prewarm")

    monkeypatch.setattr(costs_module, "evaluate", refuse)
    report = run_service(config, costs=model)
    assert report.completed > 0
    for key in _request_keys(model):
        model.request_cost(*key)


def test_table_equals_stage_sum_bit_for_bit(config):
    model = _model(config)
    model.prewarm()
    # A model that never prewarmed answers every request inline.
    inline = _model(config)
    for kind_index, slice_index, batch in _request_keys(model):
        stages = range(len(config.workload[kind_index].stages))
        expected = sum(
            model.stage_cost((kind_index, stage, slice_index, batch))
            for stage in stages
        )
        got = model.request_cost(kind_index, slice_index, batch)
        assert got.hex() == expected.hex()
        assert inline.request_cost(kind_index, slice_index, batch).hex() == got.hex()


def test_key_outside_universe_evaluates_inline(config, monkeypatch):
    model = _model(config)
    model.prewarm()
    batch = config.policy.max_batch + 1
    calls = []

    def counting(jobs):
        jobs = list(jobs)
        calls.append(len(jobs))
        return evaluate(jobs)

    monkeypatch.setattr(costs_module, "evaluate", counting)
    cost = model.request_cost(0, 0, batch)
    stages = len(config.workload[0].stages)
    assert calls == [1] * stages
    expected = sum(
        evaluate([model.job((0, stage, 0, batch))])[0].time
        for stage in range(stages)
    )
    assert cost == expected
