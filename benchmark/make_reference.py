"""Store reference payloads for seeded workloads.

Usage, from the root of a checkout:

    python3 benchmark/make_reference.py --seeds 0-20 [--workloads NAME ...]

Runs each workload once per seed, requires the run to pass the correctness
gate on its own (verdicts PASS, expected integers), and records the numbers
``workloads.reference_values`` pins in ``benchmark/reference/<workload>.json``.
Later runs of the same seed must reproduce them within 1e-9.  Regenerate only
at a commit whose numbers are known to be right.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

from run import ROOT, RUN_LIMIT_S, one_rep, provenance
from workloads import REFERENCE_DIR, WORKLOADS, reference_values


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_range, required=True)
    parser.add_argument("--workloads", nargs="+", choices=sorted(WORKLOADS),
                        default=sorted(WORKLOADS))
    args = parser.parse_args(argv)
    REFERENCE_DIR.mkdir(exist_ok=True)
    sha = provenance(0, 1)["git_sha"]
    status = 0
    for name in args.workloads:
        path = REFERENCE_DIR / f"{name}.json"
        store = json.loads(path.read_text()) if path.exists() else {"seeds": {}}
        for seed in args.seeds:
            config, expected = WORKLOADS[name](seed)
            work = ROOT / ".bench_out" / f"reference-{name}-seed{seed}"
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            (work / "config.json").write_text(json.dumps(config))
            result, errors = one_rep(work / "config.json", work / "out", expected, None,
                                     None, RUN_LIMIT_S)
            if errors:
                print(f"{name} seed {seed}: FAILED {errors}", file=sys.stderr)
                status = 1
                continue
            report = json.loads((work / "out" / "report.json").read_text())
            store["seeds"][str(seed)] = reference_values(report)
            print(f"{name} seed {seed}: ok ({result['wall_s']:.2f} s)", flush=True)
        store["produced_at"] = sha
        store["seeds"] = dict(sorted(store["seeds"].items(), key=lambda kv: int(kv[0])))
        path.write_text(json.dumps(store, indent=1, sort_keys=True) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
