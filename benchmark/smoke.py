"""Smoke check of the benchmark itself, on tiny windows (about half a minute).

Usage, from the root of a checkout:  python3 benchmark/smoke.py

Asserts that
1. every metric BENCHMARK.json names is emitted with its unit, with tracing
   off (end_to_end) and on (per_layer), and a correct run fails nothing;
2. a run given a deliberately wrong expected index counts every repetition
   as failed, so the correctness gate can fail;
3. without the program's sources next to it the benchmark exits non-zero
   and prints no result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

from run import MIN_REPS, ROOT, measure, result_line
from workloads import WORKLOADS

TINY_WINDOWS = [16, 24, 32]


def tiny(workload: str, seed: int) -> tuple[dict, dict]:
    config, expected = WORKLOADS[workload](seed)
    config["numerics"]["windows"] = TINY_WINDOWS
    return config, expected


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    config, expected = tiny("index_sweep", 1)
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        line = result_line(measure("index_sweep", 1, 0, trace, config, expected, tag="-smoke"))
        want = {m["name"]: m["unit"] for m in spec[section]}
        have = {k: v["unit"] for k, v in line["metrics"].items()}
        assert have == want, f"{section}: emitted {have}, declared {want}"
        assert all(isinstance(v["value"], (int, float)) for v in line["metrics"].values())
        assert line["correct"] and line["failed"] == 0, line
        assert line["attempted"] >= MIN_REPS, line
        print(f"ok: {len(want)} {section} metrics emitted with their units")

    wrong = {k: v + 1 for k, v in expected.items()}
    line = result_line(measure("index_sweep", 1, 0, False, config, wrong, tag="-smoke-wrong"))
    assert not line["correct"] and line["failed"] == line["attempted"] >= 1, line
    print(f"ok: wrong expected index fails {line['failed']}/{line['attempted']} runs")

    bare = ROOT / ".bench_out" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "benchmark", bare / "benchmark",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([*spec["command"], "--workload", "index_sweep", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0 and '"correct"' not in proc.stdout, proc
    print(f"ok: without sources the benchmark exits {proc.returncode}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
