"""Smoke test of the benchmark harness at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py

Each workload runs untraced and traced in its own process; the last line
must be a passing result with every metric of its kind.  Wall times are not
asserted.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = HERE / "run.py"
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*argv, cwd=ROOT):
    return subprocess.run([sys.executable, str(RUN), *argv], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["chain", "fields", "verify-all"])
def test_tiny_run_reports_every_metric(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    kind = "per_layer" if trace else "end_to_end"
    want = {m["name"]: m["unit"] for m in BENCH[kind]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want
    for name in want:
        assert name in proc.stdout.split("{")[0]     # printed by name


def test_wrappers_only_while_installed():
    code = (
        "import sys; sys.path.insert(0, %r)\n"
        "import run, spans\n"
        "wl = run.import_weightlab()\n"
        "assert not hasattr(wl.czlab.theorem_chain_check, '__wrapped__')\n"
        "tracer = spans.Tracer()\n"
        "tracer.install()\n"
        "assert hasattr(wl.czlab.theorem_chain_check, '__wrapped__')\n"
        "assert hasattr(wl.suites._SUITES['theorems'], '__wrapped__')\n"
        "assert hasattr(wl.GridFunction.cube_sum, '__wrapped__')\n"
        "tracer.uninstall()\n"
        "assert not hasattr(wl.czlab.theorem_chain_check, '__wrapped__')\n"
        "assert not hasattr(wl.suites._SUITES['theorems'], '__wrapped__')\n"
        "assert not hasattr(wl.GridFunction.cube_sum, '__wrapped__')\n"
    ) % str(HERE)
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_fails_without_the_package_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".tmp-*"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "chain", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
