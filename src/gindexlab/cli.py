"""The ``gindex`` command line interface.

    gindex run <config.json> [--out DIR]
    gindex validate <config.json>
    gindex calibrate-sign [--out DIR]

Exit codes: 0 = PASS, 1 = FAIL, 2 = UNDECIDED (worst verdict wins);
validation or runtime errors exit 1 with a message on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import GIndexError
from .index_engine import calibrate_sign
from .lab import TRACE_SLOPE_TOL, emit_reports, load_config, run, write_file


def _cmd_run(args) -> int:
    config = load_config(args.config)
    record = run(config)
    out_dir = args.out or config.out_dir or "gindex_out"
    emit_reports(record, out_dir)
    for step, verdict in record.verdicts.items():
        tol_hint = _tolerance_hint(step, config)
        print(f"{verdict:9s} {step}{tol_hint}")
    print(f"reports written to {Path(out_dir).resolve()}")
    return record.exit_code


def _tolerance_hint(step: str, config) -> str:
    tols = config.numerics["tolerances"]
    hints = {
        "ellipticity": f" (tol {tols['elliptic']:g})",
        "localized": f" (residual < {tols['decomposition']:g})",
        "algebraic": f" (|c0 - ind_g| < {tols['c0_match']:g})",
        "egorov": f" (slope in {tols['egorov_slope']} / defect < {tols['egorov_isometry']:g})",
        "trace_asymptotics": f" (slope within {TRACE_SLOPE_TOL:g})",
    }
    return hints.get(step, "")


def _cmd_validate(args) -> int:
    config = load_config(args.config)
    print(f"OK {args.config}: experiment={config.experiment} "
          f"group={config.problem.group.kind} hash={config.config_hash()[:12]}")
    return 0


def _cmd_calibrate(args) -> int:
    sign = calibrate_sign()
    payload = {"sign_convention": sign,
               "rule": "index = sign * (winding(minus) - winding(plus))"}
    print(json.dumps(payload))
    if args.out:
        write_file(Path(args.out) / "sign_convention.json",
                   json.dumps(payload, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="gindex",
                                     description="G-operator index laboratory")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute an experiment config")
    p_run.add_argument("config")
    p_run.add_argument("--out", default=None, help="output directory")
    p_run.set_defaults(fn=_cmd_run)

    p_val = sub.add_parser("validate", help="check a config file")
    p_val.add_argument("config")
    p_val.set_defaults(fn=_cmd_validate)

    p_cal = sub.add_parser("calibrate-sign", help="run the winding calibration")
    p_cal.add_argument("--out", default=None)
    p_cal.set_defaults(fn=_cmd_calibrate)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except GIndexError as exc:
        print(f"error: {exc}", file=sys.stderr)
    except Exception as exc:        # any other fault: one line, no traceback
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
