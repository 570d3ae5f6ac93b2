"""The bench registry's gates, timing comparisons and writer.

``golden_bench_gates.json`` pins the verdicts of the per-module
``check_*`` functions the registry replaced.  It was captured by
driving the old runner's ``main(["--check", ...])`` with every bench's
run patched to return a synthetic entry in which all gates pass but
one, set exactly at its bound or one float step past it
(``math.nextafter``), in both scopes.  Timing cases add a committed
artifact whose ratio is exactly the regression limit or just past it,
recorded on this host or another, or no artifact at all.  A committed
``machine`` of ``"same"`` stands for this host's machine block;
``"other-cpu"`` and ``"other-python"`` for a different one.

Nothing here runs a benchmark.
"""

from __future__ import annotations

import json
import pathlib
import sys

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

import bench_runner  # noqa: E402
from bench_runner import Bench, Gate  # noqa: E402

FIXTURE = pathlib.Path(__file__).with_name("golden_bench_gates.json")
CASES = json.loads(FIXTURE.read_text())["cases"]
BENCHES = {bench.artifact: bench for bench in bench_runner.registry()}


def _machine(marker: str) -> dict:
    info = bench_runner.machine_info()
    if marker == "other-cpu":
        info["cpu_count"] = (info["cpu_count"] or 1) + 7
    elif marker == "other-python":
        info["python"] = "2.7.18"
    return info


def _case_id(case: dict) -> str:
    return f"{case['scope']}-{case['artifact'][len('BENCH_'):-len('.json')]}-{case['case']}"


@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_verdict_matches_the_replaced_checks(case, tmp_path, capsys):
    bench = BENCHES[case["artifact"]]
    baseline = tmp_path / bench.artifact
    if case["committed"] is not None:
        committed = dict(case["committed"], machine=_machine(case["committed"]["machine"]))
        baseline.write_text(json.dumps(committed))
    regressed = bench_runner.check(bench, case["entry"], case["scope"], baseline)
    assert regressed == case["regressed"], capsys.readouterr().out


def test_registry_covers_every_committed_artifact():
    committed = {path.name for path in REPO_ROOT.glob("BENCH_*.json")}
    assert set(BENCHES) == committed


@pytest.mark.parametrize("artifact", sorted(BENCHES))
def test_committed_artifacts_fit_their_bench(artifact):
    """The registry's gates and timings read the committed entries."""
    bench = BENCHES[artifact]
    doc = json.loads((REPO_ROOT / artifact).read_text())
    assert doc["benchmark"] == bench.benchmark
    for scope in ("quick", "full"):
        if scope not in doc:
            continue
        for gate in bench.gates(doc[scope]):
            assert isinstance(gate.ok, bool)
        timings = bench.timings(doc[scope])
        assert all(seconds > 0 for seconds in timings.values()), timings


def _fake(gate_ok: bool = True, labels: tuple[str, ...] = ()) -> Bench:
    """A bench whose run takes 9 s under each of ``labels``."""
    return Bench(
        artifact="BENCH_fake.json",
        heading="fake bench:",
        benchmark="fake",
        note="a note",
        run=lambda quick: {"quick": quick, **{label: 9.0 for label in labels}},
        gates=lambda entry: [Gate("fake gate", gate_ok)],
        timings=lambda scope: {label: scope.get(label) for label in labels},
    )


def _commit(directory: pathlib.Path, machine: dict, **scopes) -> None:
    doc = {"benchmark": "fake", "machine": machine, **scopes}
    (directory / "BENCH_fake.json").write_text(json.dumps(doc))


def test_quick_write_keeps_the_committed_full_scope(tmp_path, capsys):
    _commit(tmp_path, {"cpu_count": 0}, full={"seconds": 1.0}, quick={"stale": 1})
    rc = bench_runner.run_suite(
        [_fake()], quick=True, check_gates=False, output_dir=tmp_path,
    )
    doc = json.loads((tmp_path / "BENCH_fake.json").read_text())
    assert rc == 0
    assert doc["full"] == {"seconds": 1.0}
    assert doc["quick"] == {"quick": True}
    assert doc["machine"] == bench_runner.machine_info()
    assert list(doc) == ["benchmark", "machine", "note", "quick", "full"]


@pytest.mark.parametrize("gate_ok", [True, False])
def test_missing_artifact_skips_only_the_timings(tmp_path, capsys, gate_ok):
    rc = bench_runner.run_suite(
        [_fake(gate_ok, ("fake",))], quick=True, check_gates=True,
        output_dir=None, baseline_dir=tmp_path,
    )
    out = capsys.readouterr().out
    assert rc == (0 if gate_ok else 1)
    assert f"fake gate: {gate_ok} -> {'ok' if gate_ok else 'REGRESSION'}" in out
    assert "no committed BENCH_fake.json" in out
    assert "vs committed" not in out
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("gate_ok", [True, False])
def test_other_machine_refuses_the_timings_once(tmp_path, capsys, gate_ok):
    other = _machine("other-cpu")
    _commit(tmp_path, other, quick={"a": 1.0, "b": 1.0, "c": 1.0})
    rc = bench_runner.run_suite(
        [_fake(gate_ok, ("a", "b", "c"))], quick=True, check_gates=True,
        output_dir=None, baseline_dir=tmp_path,
    )
    out = capsys.readouterr().out
    assert rc == (0 if gate_ok else 1)
    assert out.count("committed on a different machine") == 1
    assert "fake gate" in out
    assert "vs committed" not in out


def test_same_machine_compares_every_timing(tmp_path, capsys):
    _commit(tmp_path, bench_runner.machine_info(), quick={"a": 8.0, "b": 1.0})
    rc = bench_runner.run_suite(
        [_fake(True, ("a", "b", "c"))], quick=True, check_gates=True,
        output_dir=None, baseline_dir=tmp_path,
    )
    out = capsys.readouterr().out
    assert rc == 1
    assert "a: 9.000s vs committed 8.000s (1.12x, limit 1.25x) -> ok" in out
    assert "b: 9.000s vs committed 1.000s (9.00x, limit 1.25x) -> REGRESSION" in out
    assert "has no quick c; skipping" in out


def test_check_writes_only_with_an_output_dir(tmp_path, capsys):
    fake = _fake()
    assert bench_runner.main(["--quick", "--check"], benches=[fake]) == 0
    assert not (REPO_ROOT / fake.artifact).exists()
    out = tmp_path / "out"
    assert bench_runner.main(
        ["--quick", "--check", "--output-dir", str(out)], benches=[fake]
    ) == 0
    assert json.loads((out / fake.artifact).read_text())["quick"]["quick"] is True


@pytest.mark.parametrize("gate, ok", [
    (Gate("floor", 5.0, ">=", 5.0), True),
    (Gate("strict floor", 5.0, ">", 5.0), False),
    (Gate("ceiling", 0.03, "<=", 0.03), True),
    (Gate("strict ceiling", 0.05, "<", 0.05), False),
    (Gate("boolean", True), True),
    (Gate("boolean", False), False),
])
def test_gate_operators(gate, ok):
    assert gate.ok is ok
