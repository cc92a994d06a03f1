"""One repetition in a fresh process: set up, run one config, write its reports.

Usage: python3 worker.py CONFIG OUT_DIR [--setup-only] [--trace RUN_ID]

Prints one JSON line: setup_s (imports, ``calibrate_sign`` and
``parse_config``), wall_s (``run`` + ``emit_reports``), cpu_s, peak_rss_mb,
gauge_s (``speed_gauge`` right after the run) and, with --trace, the
per-layer summary.  A run that raises still reports its timings, with the
error.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import gindexlab  # noqa: E402
from gindexlab import lab  # noqa: E402
from gindexlab.index_engine import calibrate_sign  # noqa: E402


def speed_gauge() -> float:
    """Seconds a fixed numpy computation takes here and now.

    It mixes what the workloads spend their time on: dense complex products,
    an SVD and many small array operations in a Python loop.  It uses no
    gindexlab code, so no change to the program moves it, while the host's
    compute speed, which drifts by +-15% over minutes, moves it and the run
    alike; run.py divides ``wall_s`` by it.  It runs after the run and after
    the peak RSS is read: freeing its large arrays raises glibc's dynamic
    mmap threshold, which before the run would change how the program's own
    arrays are allocated, and with it the program's time and peak RSS.  It
    writes into preallocated buffers, so the program's leftover heap barely
    changes what it costs.
    """
    import numpy as np      # already loaded by gindexlab; imported here to keep its import order

    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    a = rng.standard_normal((384, 384)) + 1j * rng.standard_normal((384, 384))
    b = rng.standard_normal((512, 512)) + 1j * rng.standard_normal((512, 512))
    x = np.linspace(0.0, 2.0 * np.pi, 601)
    acc = np.zeros(601, complex)
    c = np.empty_like(a)
    for _ in range(2):
        for _ in range(3):
            np.matmul(a, a, out=c)
        np.linalg.svd(b, compute_uv=False)
        for k in range(800):
            acc += np.exp(1j * (k % 9) * x) * 0.5
    return time.perf_counter() - t0


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("config")
    parser.add_argument("out_dir")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", metavar="RUN_ID")
    args = parser.parse_args()
    raw = json.loads(Path(args.config).read_text())

    calibrate_sign()
    tracer = None
    parse_config, run, emit_reports = lab.parse_config, lab.run, lab.emit_reports
    if args.trace:
        from tracing import Tracer, summarize
        tracer = Tracer(args.trace)
        rebound = tracer.install()
        parse_config = tracer.wrap("lab.parse_config", parse_config)
        run = tracer.wrap("lab.run", run)
        emit_reports = tracer.wrap("lab.emit_reports", emit_reports)
    config = parse_config(raw)
    result = {"setup_s": time.perf_counter() - T_START, "module": gindexlab.__file__}
    if not args.setup_only:
        error = None
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            record = run(config)
            run_cpu = time.process_time() - c0
            written = emit_reports(record, args.out_dir)
        except Exception:  # reported to the parent, which counts the run as failed
            error = traceback.format_exc()
            run_cpu, written = time.process_time() - c0, []
        result.update(
            wall_s=time.perf_counter() - t0,
            cpu_s=time.process_time() - c0,
            run_cpu_s=run_cpu,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            report_bytes=sum(p.stat().st_size for p in written),
            error=error)
        result["gauge_s"] = speed_gauge()
        if tracer is not None:
            result["layers"] = summarize(tracer)
            result["rebound"] = rebound
            Path(args.out_dir).mkdir(parents=True, exist_ok=True)
            Path(args.out_dir, "spans.json").write_text(json.dumps(tracer.dump()))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
