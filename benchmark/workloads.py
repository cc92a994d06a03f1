"""Seeded workload generators and the correctness gate.

A workload turns a seed into one JSON experiment config, which is the only
input the program receives, and into the integers the answer must reproduce.
The generators use numpy alone, so the inputs do not change when the
program's own sample library does.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
REFERENCE_TOL = 1e-9

# index = SIGN * (winding(minus) - winding(plus)), as `gindex calibrate-sign` pins it
SIGN = 1


def _disc_trig(rng: np.random.Generator, deg: int, scale: float) -> dict[int, complex]:
    """Trig polynomial with |c_k| <= scale / (1 + |k|): bounded for every seed."""
    out = {}
    for k in range(-deg, deg + 1):
        r = scale * np.sqrt(rng.uniform()) / (1 + abs(k))
        out[k] = r * np.exp(2j * np.pi * rng.uniform())
    return out


def _normal_trig(rng: np.random.Generator, deg: int, scale: float) -> dict[int, complex]:
    return {k: scale * (rng.normal() + 1j * rng.normal()) / (1 + abs(k))
            for k in range(-deg, deg + 1)}


def _plus(base: dict[int, complex], pert: dict[int, complex]) -> dict:
    out = dict(pert)
    for k, c in base.items():
        out[k] = out.get(k, 0.0) + c
    return {str(k): [float(np.real(c)), float(np.imag(c))] for k, c in sorted(out.items())}


def _config(name, group, realization, symbols, experiment, windows) -> dict:
    return {"name": name, "group": group, "realization": realization,
            "symbols": symbols, "experiment": experiment,
            "numerics": {"windows": list(windows)}}


def pipeline_z2(seed: int) -> tuple[dict, dict]:
    """Z/2 reflection operator shaped like the README example, perturbed."""
    rng = np.random.default_rng([seed, 1])
    symbols = {
        "e": {"plus": _plus({0: 2.0}, _disc_trig(rng, 2, 0.15)),
              "minus": _plus({1: 2.0}, _disc_trig(rng, 2, 0.15))},
        "r": {"plus": _plus({0: 1.0}, _disc_trig(rng, 2, 0.1)),
              "minus": _plus({0: 1.0}, _disc_trig(rng, 2, 0.1))},
    }
    config = _config(f"pipeline_z2_seed{seed}", {"kind": "cyclic", "m": 2},
                     {"kind": "reflection"}, symbols, "full_pipeline", (64, 128, 192))
    return config, {"index": 1, "rounded_total": 1}


def localized_dihedral(seed: int) -> tuple[dict, dict]:
    """The coefficients of ``samples.dihedral_sample(seed)`` (same recipe)."""
    rng = np.random.default_rng(seed)
    labels = ["e", "r", "r2", "s", "rs", "r2s"]          # dihedral(3) element order
    symbols = {}
    for label in labels:
        if label == "e":
            symbols[label] = {"plus": _plus({0: 3.0}, {}), "minus": _plus({1: 3.0}, {})}
        else:
            symbols[label] = {"plus": _plus({}, _normal_trig(rng, 2, 0.35)),
                              "minus": _plus({}, _normal_trig(rng, 2, 0.35))}
    config = _config(f"localized_dihedral_seed{seed}", {"kind": "dihedral", "m": 3},
                     {"kind": "dihedral"}, symbols, "localized", (96, 128, 192))
    return config, {"index": 1, "rounded_total": 1}


def localized_curved(seed: int) -> tuple[dict, dict]:
    """cyclic(2) under a curved rotation: 2 + Phi_r, perturbed, index 0."""
    rng = np.random.default_rng([seed, 3])
    symbols = {
        "e": {"plus": _plus({0: 2.0}, _disc_trig(rng, 2, 0.15)),
              "minus": _plus({0: 2.0}, _disc_trig(rng, 2, 0.15))},
        "r": {"plus": _plus({0: 1.0}, _disc_trig(rng, 2, 0.1)),
              "minus": _plus({0: 1.0}, _disc_trig(rng, 2, 0.1))},
    }
    config = _config(f"localized_curved_seed{seed}", {"kind": "cyclic", "m": 2},
                     {"kind": "curved_rotation", "eps": 0.3}, symbols, "localized",
                     (128, 192, 256))
    return config, {"index": 0, "rounded_total": 0}


def index_sweep(seed: int) -> tuple[dict, dict]:
    """Trivial group, plus sheet 1 + trig, minus sheet e^{iwx} + trig."""
    rng = np.random.default_rng([seed, 4])
    w = int(rng.choice([-3, -2, -1, 1, 2, 3]))
    symbols = {"e": {"plus": _plus({0: 1.0}, _disc_trig(rng, 2, 0.1)),
                     "minus": _plus({w: 1.0}, _disc_trig(rng, 2, 0.1))}}
    config = _config(f"index_sweep_seed{seed}", {"kind": "trivial"}, {"kind": "trivial"},
                     symbols, "index", range(64, 513, 64))
    return config, {"index": SIGN * w}


# name -> seed -> (config, expected integers); why each exists is in BENCHMARK.json
WORKLOADS = {f.__name__: f for f in [pipeline_z2, localized_dihedral, localized_curved,
                                     index_sweep]}


# ---------------------------------------------------------------------------
# correctness gate
# ---------------------------------------------------------------------------

def reference_values(report: dict) -> dict[str, list]:
    """The numbers a stored reference pins: per-window indices, per-class
    localized values and totals, and algebraic constant terms."""
    out: dict[str, list] = {}
    for step, payload in sorted(report["payloads"].items()):
        if "stabilization" in payload:
            out[f"{step}.window_index"] = [w["index"] for w in payload["stabilization"]]
        if step == "localized":
            for label, v in sorted(payload["per_class"].items()):
                out[f"localized.per_class.{label}"] = v
            out["localized.total"] = payload["total"]
        if step == "algebraic":
            for label, sub in sorted(payload["per_class"].items()):
                out[f"algebraic.constant_term.{label}"] = sub["constant_term"]
            out["algebraic.total_constant_term"] = payload["total_constant_term"]
    return out


def load_reference(workload: str, seed: int) -> dict | None:
    path = REFERENCE_DIR / f"{workload}.json"
    if not path.exists():
        return None
    return json.loads(path.read_text())["seeds"].get(str(seed))


def check(report: dict, expected: dict, reference: dict | None) -> list[str]:
    """Return the reasons a report is wrong (empty when it is right)."""
    errors = [f"verdict {step}: {v}" for step, v in sorted(report["verdicts"].items())
              if v != "PASS"]
    payloads = report["payloads"]
    indices = []
    if "index" in payloads:
        indices.append(("index.index", payloads["index"]["index"]))
    for step in ("localized", "algebraic"):
        if step in payloads:
            indices.append((f"{step}.fredholm_index", payloads[step]["fredholm_index"]))
            indices.append((f"{step}.rounded_total", payloads[step]["rounded_total"]))
    if not indices:
        errors.append("report holds no index")
    for key, value in indices:
        want = expected["rounded_total" if key.endswith("rounded_total") else "index"]
        if value != want:
            errors.append(f"{key} = {value}, expected {want}")
    if reference is not None:
        got = reference_values(report)
        for key, want in sorted(reference.items()):
            have = got.get(key)
            if have is None or len(have) != len(want):
                errors.append(f"reference {key}: missing or reshaped")
                continue
            dev = max(abs(a - b) for a, b in zip(have, want))
            if dev > REFERENCE_TOL:
                errors.append(f"reference {key}: deviates by {dev:.3e}")
    return errors
