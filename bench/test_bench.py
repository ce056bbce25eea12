"""Self-checks of the benchmark. Run from the repository root:

    python3 -m pytest -q bench/test_bench.py

They take about a minute: every workload runs one untraced and two traced
passes.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# End-to-end metrics that each workload prints beside the gated ones.
PRINTED = {
    "mc-evaluate": ["trials_per_s.indep", "trials_per_s.prefix"],
    "mc-preselect": ["samples_per_s.indep", "samples_per_s.prefix"],
    "exact": ["oracle_s", "build_s", "exact_eval_s"],
}
PRINTED_ALL = ["error_rate", "op_s.p50", "op_s.tail", "op_s.tail_percentile", "ops", "host.ref_s"]


def bench(workload: str, trace: int, cwd=ROOT, seed: int = 7):
    """Run one workload for a single pass; returns (exit code, printed
    table as {name: unit}, result object or None)."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    table = {f[0]: f[2] for f in (line.split() for line in lines) if len(f) == 3}
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, table, result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_are_emitted_with_units(workload):
    code, table, result = bench(workload, trace=0)
    assert code == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())
    for name in PRINTED_ALL + PRINTED[workload]:
        assert name in table, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    runs = [bench(workload, trace=1) for _ in range(2)]
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    counts = []
    for code, _, result in runs:
        assert code == 0 and result["correct"]
        assert {k: v["unit"] for k, v in result["metrics"].items()} == want
        counts.append({k: v["value"] for k, v in result["metrics"].items() if v["unit"] == "count"})
    assert counts[0] == counts[1]
    assert any(counts[0].values())


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    code, _, result = bench(WORKLOADS[0], trace=0, cwd=tmp_path)
    assert code != 0 and result is None


def test_tail_percentile_leaves_ten_ops_beyond():
    sys.path.insert(0, str(BENCH))
    from run import tail

    assert tail([float(i) for i in range(100)]) == (89.0, 90)
    assert tail([float(i) for i in range(36)]) == (25.0, 72)
    assert tail([1.0, 3.0, 2.0]) == (3.0, 100)
