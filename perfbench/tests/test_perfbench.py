"""Tests of the benchmark itself, at tiny sizes through the same code path.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
E2E = [m["name"] for m in SPEC["end_to_end"]]
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]
#: Every defined workload, including ones BENCHMARK.json leaves out.
WORKLOADS = list(workloads.WORKLOADS)

#: Per-layer metrics each workload must exercise (non-zero when traced).
ENGAGED = {
    "macro-collectives": [
        "sim.macro.sends", "sim.macro.barrier_rounds", "sim.macro.self_s",
        "sim.engine.events", "hbsplib.supersteps", "hbsplib.self_s",
        "collectives.self_s", "model.self_s", "model.pred_over_sim_min",
        "cluster.generate_s", "sim_makespan_s", "trace_overhead",
    ],
    "serve-knee": [
        "serve.arrivals_s", "serve.loop_s", "serve.request_cost_calls",
        "serve.prewarm_s", "serve.batches", "serve.mean_batch",
        "serve.busy_frac", "sim.engine.events", "sim.engine.self_s",
        "perf.jobs", "perf.evaluate_s", "apps.self_s", "sim_p50_s",
        "sim_p99_s", "sim_goodput_rps",
    ],
    "paper-sweep": [
        "perf.jobs", "perf.evaluate_s", "pvm.messages",
        "pvm.self_s", "model.self_s", "sim.engine.events",
        *(f"experiments.{e}_s" for e in workloads.PaperSweep.TINY),
    ],
}


def bench(workload: str, *, trace: int, seed: int = 1, cwd: Path = ROOT,
          script: Path = BENCH / "run.py") -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False,
    )


def result_line(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def worker(workload: str, seed: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
         "--seed", str(seed), "--size", "tiny"],
        cwd=ROOT, env=run.worker_env(ROOT / ".perfbench"), capture_output=True,
        text=True, timeout=170, check=False,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


# -- BENCHMARK.json ------------------------------------------------------------------
def test_spec_names_match_the_runner():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)
    assert E2E[0] == "setup_s"
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
    from repro.experiments.runner import EXPERIMENTS

    reported = set(layers.layer_metrics(layers.LayerTracer(), tuple(EXPERIMENTS)))
    reported |= set(workloads.SIM_METRICS) | {"fail_frac", "trace_overhead"}
    assert reported == set(PER_LAYER)


def test_layer_map_covers_every_per_layer_metric():
    layer_map = json.loads((BENCH / "layer_map.json").read_text())
    assert list(layer_map) == PER_LAYER
    for entry in layer_map.values():
        for move in entry["moves"]:
            assert move["metric"] in E2E + PER_LAYER
            assert move["workload"] in WORKLOADS


# -- the command -----------------------------------------------------------------------
@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    done = bench(workload, trace=0)
    result = result_line(done)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    assert list(result["metrics"]) == E2E
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    for name, metric in result["metrics"].items():
        assert metric["unit"] == units[name]
        assert metric["value"] > 0, name
        assert name in done.stdout.split("\n", 1)[1]  # in the human-readable table too


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_per_layer_metric(workload):
    result = result_line(bench(workload, trace=1))
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == PER_LAYER
    for name in ENGAGED[workload]:
        assert result["metrics"][name]["value"] > 0, name
    assert result["metrics"]["fail_frac"]["value"] == 0
    record = json.loads(
        (ROOT / ".perfbench" / "results" / f"{workload}-seed1-trace1.json").read_text()
    )
    assert set(record["per_layer"]) <= set(PER_LAYER)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_changes_inputs_and_checks_still_pass(workload):
    first, again, other = worker(workload, 1), worker(workload, 1), worker(workload, 2)
    for record in (first, again, other):
        assert record["failures"] == {}
    assert first["digests"] == again["digests"]
    assert first["digests"] != other["digests"]


def test_no_program_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = bench("serve-knee", trace=0, cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_cli_mismatch_fails_the_experiment():
    group = {"ids": ["table1"], "args": ["table1", "--no-cache"], "sha256": "0" * 64}
    deadline = run._clock() + 60
    assert run.check_cli([group], ROOT / ".perfbench", deadline) == ["table1"]


# -- the tracer ----------------------------------------------------------------------
def test_self_time_excludes_wrapped_children():
    tracer = layers.LayerTracer()
    outer = tracer.enter("outer", "a", True)
    inner = tracer.enter("inner", "b", True)
    tracer.exit(inner)
    tracer.exit(outer)
    (inner_span, outer_span) = tracer.spans
    assert inner_span[1] == outer_span[0]  # parent link
    inner_s = inner_span[4] - inner_span[3]
    outer_s = outer_span[4] - outer_span[3]
    assert tracer.self_time["b"] == pytest.approx(inner_s)
    assert tracer.self_time["a"] == pytest.approx(outer_s - inner_s)


def test_step_timing_is_transparent_to_generators():
    tracer = layers.LayerTracer()

    def program():
        got = yield 1
        try:
            yield got
        except KeyError:
            yield "caught"
        return "done"

    gen = layers._timed_steps(tracer, program(), "p", "x")
    assert next(gen) == 1
    assert gen.send("hello") == "hello"
    assert gen.throw(KeyError()) == "caught"
    with pytest.raises(StopIteration) as stop:
        next(gen)
    assert stop.value.value == "done"
    assert tracer.stack == [] and tracer.self_time["x"] > 0
