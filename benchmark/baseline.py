"""Summarize finished benchmark runs into benchmark/baseline.json.

Usage, from the root of a checkout, after runs of run.py:

    python3 benchmark/baseline.py

Reads every ``.bench_out/<workload>-seed<N>-trace<T>/result.json`` and
records per workload: its input size, why it was chosen, the end-to-end
medians and quartiles over seeds (tracing off), and from the traced runs
each layer's share of ``lab.run`` (self time), coverage and overhead.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

from run import BENCH_DIR, ROOT
from workloads import WORKLOADS


def group_order(group: dict) -> int:
    m = group.get("m", 1)
    return {"trivial": 1, "cyclic": m, "dihedral": 2 * m}[group["kind"]]


def spread(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": med, "q1": q1, "q3": q3, "iqr_over_median": (q3 - q1) / med,
            "n": len(values)}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    results = [json.loads(p.read_text())
               for p in sorted((ROOT / ".bench_out").glob("*-seed*-trace[01]/result.json"))]
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    out = {"provenance": None, "workloads": {}}
    for name, workload in WORKLOADS.items():
        plain = [r for r in results if r["workload"] == name and "wall_s" in r["metrics"]]
        traced = [r for r in results if r["workload"] == name and "trace.coverage" in r["metrics"]]
        if not plain:
            continue
        config, _ = workload(plain[0]["seed"])
        group = config["group"]
        entry = {
            "why": why[name],
            "input": {"experiment": config["experiment"], "group": group,
                      "group_order": group_order(group),
                      "realization": config["realization"],
                      "windows": config["numerics"]["windows"],
                      "matrix_dims": [2 * w + 1 for w in config["numerics"]["windows"]],
                      # lab's default xi-lattice, used by the algebraic step only
                      "lattice_points": 601 if config["experiment"] == "full_pipeline" else None},
            "seeds": sorted(r["seed"] for r in plain),
            "failed_ratio": sum(r["failed"] for r in plain) / sum(r["attempted"] for r in plain),
            "repetitions_per_run": [r["attempted"] for r in plain],
            "end_to_end": {m["name"]: dict(spread([r["metrics"][m["name"]]["value"] for r in plain]),
                                           unit=m["unit"])
                           for m in spec["end_to_end"]},
        }
        if traced:
            layers = {m["name"]: statistics.median(r["metrics"][m["name"]]["value"] for r in traced)
                      for m in spec["per_layer"]}
            self_s = {k[:-2]: v for k, v in layers.items() if k.endswith(".s")}
            total = sum(self_s.values()) - self_s["lab.parse_config"] - self_s["lab.emit_reports"]
            entry["traced_seeds"] = sorted(r["seed"] for r in traced)
            entry["layer_share_of_run"] = {k: round(v / total, 4) for k, v in
                                           sorted(self_s.items(), key=lambda kv: -kv[1])
                                           if v > 0 and k not in ("lab.parse_config",
                                                                  "lab.emit_reports")}
            entry["per_layer_median"] = layers
        out["workloads"][name] = entry
        out["provenance"] = {k: v for k, v in plain[-1]["provenance"].items()
                             if k not in ("seed", "repetitions")}
    (BENCH_DIR / "baseline.json").write_text(json.dumps(out, indent=1) + "\n")
    print(json.dumps({k: {m: round(v["median"], 4) for m, v in w["end_to_end"].items()}
                      for k, w in out["workloads"].items()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
