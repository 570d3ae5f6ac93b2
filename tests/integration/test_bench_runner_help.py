"""``benchmarks/bench_runner.py --help`` renders every option's help text."""

import pathlib
import subprocess
import sys

RUNNER = pathlib.Path(__file__).resolve().parents[2] / "benchmarks" / "bench_runner.py"


def test_help_renders_option_text():
    proc = subprocess.run(
        [sys.executable, str(RUNNER), "--help"],
        capture_output=True, text=True, timeout=60, check=True,
    )
    out = proc.stdout
    assert out.startswith("usage: bench_runner.py")
    assert "fail on >25% regression vs the committed JSON" in out
    for option in ("--quick", "--check", "--runs", "--jobs", "--output-dir"):
        assert option in out
    # An unescaped ``%`` in a help string makes argparse print its
    # parameter dict instead of the text.
    assert "'option_strings'" not in out
