"""gindexlab benchmark: run one seeded workload and print its metrics.

Usage, from the root of a checkout:

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmark/run.py --workload all --seed N --seconds S

The seed makes one JSON experiment config (see workloads.py); the program
receives only that file.  Every repetition is a fresh Python process
(worker.py) that imports gindexlab from ``src/``, runs ``calibrate_sign`` and
``parse_config`` (set-up), then ``run`` and ``emit_reports`` (the timed
part).  Repetitions run one at a time with BLAS pinned to one thread: a
closed loop with one caller.  A repetition fails if it raises, if a verdict
is not PASS, or if its report on disk differs from the expected integers or
from the stored reference payload.

--trace 0 reports the end-to-end metrics (medians over repetitions).
The two times are scaled by speed gauges, because this kind of shared host
drifts over minutes, by up to a factor of two in import speed and by about
+-15% in compute speed, while a time divided by a gauge taken next to it
does not.  Each set-up sample is divided by the import time of gauge.py, run
in a fresh process right before it; each ``wall_s`` sample by the worker's
``speed_gauge``, timed in the same process right after the run.  The ratios
are reported in seconds at the gauges' reference times (IMPORT_GAUGE_REF_S,
COMPUTE_GAUGE_REF_S).  The gauges run no gindexlab code, so a change to the
program moves the ratio only.  Unscaled seconds stay in the samples and are
printed as diagnostics.
--trace 1 alternates untraced and traced repetitions and reports the
per-layer metrics of the traced ones (medians), with tracing overhead.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Samples and provenance go to
``.bench_out/<workload>-seed<N>-trace<T>/result.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from workloads import WORKLOADS, check, load_reference

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BLAS_THREADS = 1
SETUP_PER_REP = 2          # set-up-only processes before each repetition, which adds one more
MIN_REPS = 2               # repetitions per run, whatever --seconds says
RUN_LIMIT_S = 170.0        # a run ends within this, even if a worker hangs
# reference times that scale the gauge ratios back to seconds: gauge.py's import
# time and worker.speed_gauge's time, measured in a quiet minute on the machine
# the baseline was recorded on (2-vCPU Intel Xeon VM, Python 3.11, numpy 2.4);
# over the 80 baseline runs their medians were 0.14 s and 0.43 s
IMPORT_GAUGE_REF_S = 0.13
COMPUTE_GAUGE_REF_S = 0.35


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def run_worker(config_path: Path, out_dir: Path, *, setup_only: bool = False,
               trace_id: str | None = None, timeout: float = RUN_LIMIT_S) -> tuple[dict | None, str]:
    """One fresh worker process; returns (its JSON result or None, error text)."""
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), str(config_path), str(out_dir)]
    if setup_only:
        cmd.append("--setup-only")
    if trace_id:
        cmd += ["--trace", trace_id]
    try:
        proc = subprocess.run(cmd, env=worker_env(), capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        return None, f"worker timed out after {timeout:.0f} s"
    if proc.returncode != 0:
        return None, f"worker exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return None, f"worker printed no result: {proc.stdout[-500:]}"
    module = Path(result["module"]).resolve()
    if ROOT / "src" not in module.parents:
        return None, f"gindexlab imported from {module}, not from this checkout"
    return result, ""


def run_gauge(timeout: float) -> float:
    """Seconds gauge.py takes, in a fresh process, to import its fixed module set."""
    proc = subprocess.run([sys.executable, str(BENCH_DIR / "gauge.py")], env=worker_env(),
                          capture_output=True, text=True, timeout=max(timeout, 1.0), check=True)
    return json.loads(proc.stdout)["import_s"]


def one_rep(config_path: Path, out_dir: Path, expected: dict, reference: dict | None,
            trace_id: str | None, timeout: float) -> tuple[dict | None, list[str]]:
    shutil.rmtree(out_dir, ignore_errors=True)
    result, err = run_worker(config_path, out_dir, trace_id=trace_id, timeout=timeout)
    if result is None:
        return None, [err]
    if result["error"]:
        return result, [result["error"].strip().splitlines()[-1]]
    try:
        report = json.loads((out_dir / "report.json").read_text())
    except (OSError, json.JSONDecodeError) as exc:
        return result, [f"report.json unreadable: {exc}"]
    return result, check(report, expected, reference)


def run_dir_for(workload: str, seed: int, trace: bool, tag: str = "") -> Path:
    return ROOT / ".bench_out" / f"{workload}-seed{seed}-trace{int(trace)}{tag}"


def measure(workload: str, seed: int, seconds: float, trace: bool,
            config: dict | None = None, expected: dict | None = None,
            tag: str = "") -> dict:
    """Run the workload for about ``seconds`` and return metrics and samples.

    ``config``/``expected`` default to the seeded generator's; the stored
    reference payload for the seed applies only to the generated config.
    """
    t_begin = time.perf_counter()
    gen_config, gen_expected = WORKLOADS[workload](seed)
    reference = load_reference(workload, seed) if config is None else None
    config = gen_config if config is None else config
    expected = gen_expected if expected is None else expected
    run_dir = run_dir_for(workload, seed, trace, tag)
    run_dir.mkdir(parents=True, exist_ok=True)
    config_path = run_dir / "config.json"
    config_path.write_text(json.dumps(config, indent=1) + "\n")
    out_dir = run_dir / "out"

    def remaining() -> float:
        return RUN_LIMIT_S - (time.perf_counter() - t_begin)

    # warm-up: byte-compiles the sources once, so set-up samples are alike
    run_gauge(remaining())
    run_worker(config_path, out_dir, setup_only=True, timeout=remaining())
    start = time.perf_counter()
    setup, gauge, plain, traced, failures, durations = [], [], [], [], [], []
    attempted = 0
    while True:
        pair = 2 if trace else 1       # --trace 1 alternates untraced and traced
        if attempted >= MIN_REPS and attempted % pair == 0:
            step = statistics.median(durations) * pair
            # stop when the next step would end nearer past the deadline than before it
            if time.perf_counter() - start + step / 2 > seconds or remaining() < step + 5:
                break
        t0 = time.perf_counter()
        for _ in range(0 if trace else SETUP_PER_REP):     # set-up is not reported traced
            g = run_gauge(remaining())
            result, err = run_worker(config_path, out_dir, setup_only=True, timeout=remaining())
            if result is None:
                raise RuntimeError(f"set-up failed: {err}")
            setup.append(result["setup_s"])
            gauge.append(g)
        trace_id = f"{workload}-seed{seed}-rep{attempted}" if trace and attempted % 2 else None
        g = None if trace else run_gauge(remaining())
        result, errors = one_rep(config_path, out_dir, expected, reference, trace_id,
                                 remaining())
        durations.append(time.perf_counter() - t0)
        attempted += 1
        if errors:
            failures.append({"rep": attempted - 1, "errors": errors})
        if result is not None and "wall_s" in result:
            (traced if trace_id else plain).append(result)
            if g is not None:
                setup.append(result["setup_s"])
                gauge.append(g)
        if remaining() < 5:
            break

    metrics = end_to_end(plain, setup, gauge) if not trace else per_layer(plain, traced)
    return {"workload": workload, "seed": seed, "attempted": attempted,
            "failed": len(failures), "failures": failures, "metrics": metrics,
            "samples": {"setup_s": setup, "gauge_import_s": gauge, "untraced": plain,
                        "traced": traced},
            "measured_s": time.perf_counter() - start}


def _median(rows: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in rows)


def end_to_end(plain: list[dict], setup: list[float], gauge: list[float]) -> dict:
    if not plain:
        return {}
    setup_s = statistics.median(s / g for s, g in zip(setup, gauge)) * IMPORT_GAUGE_REF_S
    wall_s = statistics.median(r["wall_s"] / r["gauge_s"] for r in plain) * COMPUTE_GAUGE_REF_S
    return {"wall_s": {"value": wall_s, "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": _median(plain, "peak_rss_mb"), "unit": "MB"}}


def per_layer(plain: list[dict], traced: list[dict]) -> dict:
    if not plain or not traced:
        return {}
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    layers = [t["layers"] for t in traced]
    values = {}
    for m in spec:
        name = m["name"]
        if name == "trace.overhead":
            values[name] = _median(traced, "wall_s") / _median(plain, "wall_s") - 1.0
        elif name == "lab.emit_reports.bytes":
            values[name] = _median(traced, "report_bytes")
        elif name == "lab.run.cpu_s":
            values[name] = _median(traced, "run_cpu_s")
        else:
            values[name] = statistics.median(row.get(name, 0) for row in layers)
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}


def result_line(res: dict) -> dict:
    return {"correct": res["failed"] == 0, "attempted": res["attempted"],
            "failed": res["failed"], "metrics": res["metrics"]}


def provenance(seed: int, reps: int) -> dict:
    sha = "unknown: not a git checkout"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        sha = proc.stdout.strip() or sha
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"git_sha": sha, "seed": seed, "python": platform.python_version(),
            "numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": BLAS_THREADS, "nproc": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "repetitions": reps}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"],
                        help="'all' runs every workload, untraced and traced")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SystemExit unwinds through subprocess.run, which kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "gindexlab" / "__init__.py").is_file():
        print(f"error: no gindexlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    if args.workload == "all":
        runs = [(name, trace) for name in WORKLOADS for trace in (False, True)]
    else:
        runs = [(args.workload, bool(args.trace))]
    lines = []
    for workload, trace in runs:
        res = measure(workload, args.seed, args.seconds, trace)
        res["provenance"] = provenance(args.seed, res["attempted"])
        run_dir = run_dir_for(workload, args.seed, trace)
        (run_dir / "result.json").write_text(json.dumps(res, indent=1) + "\n")
        for f in res["failures"]:
            print(f"FAILED {workload} rep {f['rep']}: " + "; ".join(f["errors"]),
                  file=sys.stderr)
        if not res["metrics"]:
            print(f"error: no repetition of {workload} produced timings", file=sys.stderr)
            return 1
        print(f"== {workload} seed {args.seed} trace {int(trace)}")
        print(json.dumps({"provenance": res["provenance"]}))
        for name, m in res["metrics"].items():
            print(f"{name:44s} {m['value']:.6g} {m['unit']}")
        if not trace:
            print(f"{'wall_s unscaled (diagnostic)':44s} "
                  f"{_median(res['samples']['untraced'], 'wall_s'):.6g} s")
            print(f"{'setup_s unscaled (diagnostic)':44s} "
                  f"{statistics.median(res['samples']['setup_s']):.6g} s")
        print(f"{'failed_ratio':44s} {res['failed'] / res['attempted']:.6g} ratio "
              f"({res['failed']}/{res['attempted']})")
        lines.append((workload, result_line(res)))
    if len(lines) == 1:
        print(json.dumps(lines[0][1]))
    else:
        print(json.dumps({
            "correct": all(line["correct"] for _, line in lines),
            "attempted": sum(line["attempted"] for _, line in lines),
            "failed": sum(line["failed"] for _, line in lines),
            "metrics": {f"{w}.{k}": v for w, line in lines for k, v in line["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
