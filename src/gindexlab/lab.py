"""Config-driven experiment runner.

A JSON config describes one G-operator (group, realization, symbol table) and
an experiment kind.  ``parse_config`` checks every field and builds the
config's one ``GOperatorProblem``; ``run`` executes the experiment on it,
grades the result PASS / FAIL / UNDECIDED against the configured tolerances,
and ``emit_reports`` persists the payloads.  All numeric outputs are
deterministic: fixed summation orders, no threading, no random draws.
"""

from __future__ import annotations

import cmath
import hashlib
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__ as VERSION
from .circle import (INNER_FRACTION, MIN_CUTOFF, MIN_GRID_SIZE, PeriodicGrid,
                     grid_for_window, FrequencyWindow)
from .errors import GIndexError, IoError, ParseError, SchemaError
from .groups import build_group
from .index_engine import (CHI_TOL, DEFAULT_ZERO_TOL, DRIFT_TOL, PARAMETRIX_ORDER,
                           calibrate_sign, class_label, decomposition_check,
                           numerical_index, chi_vanishing_check, winding_index_oracle)
from .problems import GOperatorProblem
from .quantize import K_MIN
from .samples import (annulus_term, egorov_curved_term, egorov_isometry_term,
                      reflection_term)
from .semiclass import (DIAG_H_GRID, MIN_H_POINTS, MIN_H_SPAN, MIN_LATTICE_POINTS,
                        NEG_POWER_TOL, StarSeries, XiLattice,
                        algebraic_index, egorov_defect, symbol_parametrix_h,
                        trace_power_law)
from .symbols import ELLIPTIC_TOL, VERDICTS, is_elliptic
from .transforms import RealizationFamily

EXPERIMENTS = ("ellipticity", "index", "localized", "algebraic", "egorov",
               "trace_asymptotics", "full_pipeline")

DEFAULT_NUMERICS = {
    "windows": [64, 128, 192],
    "zero_tol": DEFAULT_ZERO_TOL,
    "inner_fraction": INNER_FRACTION,
    "parametrix_order": PARAMETRIX_ORDER,
    "symbol_grid": 256,
    "lattice_radius": 3.0,
    "lattice_points": 601,
    "eps": 0.5,
    "h_grid": {"hi": 0.05, "lo": 0.005, "n": 8},
    "diag_h_grid": dict(DIAG_H_GRID),
    "tolerances": {
        "elliptic": ELLIPTIC_TOL,
        "decomposition": 1e-2,
        "drift": DRIFT_TOL,
        "chi_vanishing": CHI_TOL,
        "c0_match": 1e-2,
        "neg_power": NEG_POWER_TOL,
        "egorov_isometry": 1e-9,
        "egorov_slope": [0.9, 1.3],
    },
}

PIPELINE = ("ellipticity", "index", "localized", "algebraic")   # the full_pipeline steps
PASS, FAIL, UNDECIDED = "PASS", "FAIL", "UNDECIDED"


@dataclass
class ExperimentConfig:
    raw: dict
    problem: GOperatorProblem    # the config's one problem: every step shares its caches
    experiment: str
    numerics: dict
    out_dir: str | None
    expect: dict

    def config_hash(self) -> str:
        semantic = {k: v for k, v in self.raw.items() if k != "out_dir"}
        blob = json.dumps(semantic, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()


def _is_number(x, types=(int, float)) -> bool:
    """A JSON number of ``types``; a bool is never a number here."""
    return isinstance(x, types) and not isinstance(x, bool)


def _require(ok: bool, field: str, want: str, value):
    """The SchemaError that names ``field``, unless ``ok``."""
    if not ok:
        raise SchemaError(f"{field} must be {want}, got {value!r}")


def _known(obj: dict, keys, prefix: str):
    for key in obj:
        if key not in keys:
            raise SchemaError(f"unknown config field {prefix + key!r}")


def _parse_coeff_table(obj, where: str, max_mode: float) -> dict[int, complex]:
    if not isinstance(obj, dict):
        raise SchemaError(f"{where}: expected a mode -> [re, im] table")
    out = {}
    for key, val in obj.items():
        try:
            mode = int(key)
        except ValueError as exc:
            raise SchemaError(f"{where}: bad mode index {key!r}") from exc
        if abs(mode) > max_mode:
            raise SchemaError(f"{where}: mode {mode} is not resolved (|k| <= {max_mode})")
        parts = val if isinstance(val, list) and len(val) == 2 else [val]
        if not all(_is_number(x) for x in parts):
            raise SchemaError(f"{where}: coefficient of mode {mode} must be a number or "
                              f"[re, im] of numbers, got {val!r}")
        out[mode] = complex(*parts)
        if not cmath.isfinite(out[mode]):
            raise SchemaError(f"{where}: coefficient of mode {mode} is not finite: {val!r}")
    return out


def _max_mode(experiment: str, num: dict) -> float:
    """The largest |mode| resolved on every grid the experiment samples symbols on."""
    sizes = []
    if experiment in ("ellipticity", "algebraic", "full_pipeline"):
        sizes.append(num["symbol_grid"])
    if experiment in ("index", "localized", "algebraic", "full_pipeline"):
        sizes.append(grid_for_window(FrequencyWindow(num["windows"][0])).size)
    return min(sizes) // 2 - 1 if sizes else math.inf


def _check_numerics(num: dict):
    windows = num["windows"]
    _require(isinstance(windows, list) and len(windows) >= 2
             and all(_is_number(w, int) and w >= MIN_CUTOFF for w in windows)
             and all(a < b for a, b in zip(windows, windows[1:])),
             "numerics.windows", f"at least two strictly increasing integers >= {MIN_CUTOFF}",
             windows)
    for key in ("zero_tol", "inner_fraction"):
        _require(_is_number(num[key]) and 0 < num[key] < 1,
                 f"numerics.{key}", "a number in (0, 1)", num[key])
    _require(_is_number(num["parametrix_order"], int) and num["parametrix_order"] >= 2,
             "numerics.parametrix_order", "an integer >= 2", num["parametrix_order"])
    _require(_is_number(num["symbol_grid"], int) and num["symbol_grid"] >= MIN_GRID_SIZE,
             "numerics.symbol_grid", f"an integer >= {MIN_GRID_SIZE}", num["symbol_grid"])
    radius, points = num["lattice_radius"], num["lattice_points"]
    _require(_is_number(radius) and 0 < radius < math.inf,
             "numerics.lattice_radius", "a positive number", radius)
    _require(_is_number(points, int) and points >= MIN_LATTICE_POINTS and points % 2 == 1,
             "numerics.lattice_points", f"an odd integer >= {MIN_LATTICE_POINTS}", points)
    _require(_is_number(num["eps"]) and 0 < 2 * num["eps"] < radius,
             "numerics.eps", "a number with 0 < 2 eps < lattice_radius", num["eps"])
    for key in ("h_grid", "diag_h_grid"):
        h = num[key]
        _require(isinstance(h, dict) and sorted(h) == ["hi", "lo", "n"],
                 f"numerics.{key}", "an object {hi, lo, n}", h)
        _require(_is_number(h["n"], int) and h["n"] >= MIN_H_POINTS,
                 f"numerics.{key}.n", f"an integer >= {MIN_H_POINTS}", h["n"])
        _require(_is_number(h["hi"]) and _is_number(h["lo"]) and 0 < h["lo"] and h["hi"] < math.inf
                 and h["hi"] / h["lo"] >= MIN_H_SPAN, f"numerics.{key}",
                 "numbers 0 < lo, hi spanning a decade (hi >= 10 lo)", h)
    for key, tol in num["tolerances"].items():
        if key == "egorov_slope":
            _require(isinstance(tol, list) and len(tol) == 2 and all(map(_is_number, tol))
                     and tol[0] <= tol[1], "numerics.tolerances.egorov_slope",
                     "a pair [lo, hi] of numbers", tol)
        else:
            _require(_is_number(tol) and 0 < tol < math.inf,
                     f"numerics.tolerances.{key}", "a positive number", tol)


def _parse_expect(expect, group) -> dict:
    """``expect`` with ``element`` parsed; by default the first non-identity element."""
    _require(isinstance(expect, dict), "expect", "an object", expect)
    _known(expect, ("index", "verdict", "element"), "expect.")
    index, label = expect.get("index"), expect.get("element")
    _require(index is None or _is_number(index, int), "expect.index", "an integer", index)
    verdict = expect.get("verdict")
    _require(verdict is None or verdict in VERDICTS, "expect.verdict", f"one of {VERDICTS}",
             verdict)
    _require(label is None or isinstance(label, str), "expect.element", "a string", label)
    if label is None:
        others = [g for g in group.elements() if g != group.identity] if group.is_finite else [1]
        return {**expect, "element": next(iter(others), group.identity)}
    try:
        return {**expect, "element": group.parse(label)}
    except GIndexError as exc:
        raise SchemaError(f"expect.element: {exc}") from exc


def load_config(path: str | Path) -> ExperimentConfig:
    """Parse and validate an experiment config file, filling defaults."""
    try:
        raw = json.loads(Path(path).read_text())
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    return parse_config(raw)


def parse_config(raw: dict) -> ExperimentConfig:
    """Check every field of a config and build its one ``GOperatorProblem``."""
    if not isinstance(raw, dict):
        raise SchemaError("top level must be an object")
    _known(raw, ("name", "seed", "group", "realization", "symbols", "k_min",
                 "unit_fill", "experiment", "numerics", "out_dir", "expect"), "")
    experiment = raw.get("experiment")
    if experiment not in EXPERIMENTS:
        raise SchemaError(f"experiment must be one of {EXPERIMENTS}, got {experiment!r}")
    group_desc = raw.get("group", {"kind": "trivial"})
    if not isinstance(group_desc, dict) or "kind" not in group_desc:
        raise SchemaError("group descriptor needs 'kind'")
    for key, types, want in (("m", int, "an integer"), ("theta", (int, float), "a number")):
        if key in group_desc:
            _require(_is_number(group_desc[key], types), f"group.{key}", want, group_desc[key])
    try:
        group = build_group(group_desc)
    except GIndexError as exc:
        raise SchemaError(f"group: {exc}") from exc
    realization = raw.get("realization", {})
    _require(isinstance(realization, dict), "realization", "an object", realization)
    natural = {"trivial": "trivial", "cyclic": "rotation",
               "dihedral": "dihedral", "integer_shift": "rotation"}[group.kind]
    kind, eps = realization.get("kind", natural), realization.get("eps", 0.0)
    _require(isinstance(kind, str), "realization.kind", "a string", kind)
    _require(_is_number(eps), "realization.eps", "a number", eps)
    try:
        family = RealizationFamily(group, kind, eps=float(eps))
    except GIndexError as exc:
        raise SchemaError(f"realization: {exc}") from exc
    if experiment in ("algebraic", "full_pipeline") and not family.is_isometric:
        raise SchemaError(f"the {experiment} experiment needs an isometric realization")
    k_min = raw.get("k_min", K_MIN)
    _require(_is_number(k_min, int) and k_min >= 1, "k_min", "an integer >= 1", k_min)
    unit_fill = raw.get("unit_fill", False)
    _require(isinstance(unit_fill, bool), "unit_fill", "true or false", unit_fill)
    raw_numerics = raw.get("numerics", {})
    _require(isinstance(raw_numerics, dict), "numerics", "an object", raw_numerics)
    _known(raw_numerics, DEFAULT_NUMERICS, "numerics.")
    tolerances = raw_numerics.get("tolerances", {})
    _require(isinstance(tolerances, dict), "numerics.tolerances", "an object", tolerances)
    _known(tolerances, DEFAULT_NUMERICS["tolerances"], "numerics.tolerances.")
    defaults = json.loads(json.dumps(DEFAULT_NUMERICS))
    numerics = {**defaults, **raw_numerics,
                "tolerances": {**defaults["tolerances"], **tolerances}}
    _check_numerics(numerics)
    raw_symbols = raw.get("symbols", {})
    _require(isinstance(raw_symbols, dict), "symbols", "an object of element -> sheet tables",
             raw_symbols)
    max_mode = _max_mode(experiment, numerics)
    coeffs = {}
    for label, sheets in raw_symbols.items():
        try:
            g = group.parse(label)
        except GIndexError as exc:
            raise SchemaError(f"symbols: {exc}") from exc
        if not isinstance(sheets, dict) or not {"plus", "minus"} <= set(sheets):
            raise SchemaError(f"symbols[{label!r}] needs 'plus' and 'minus' tables")
        _known(sheets, ("plus", "minus"), f"symbols[{label!r}].")
        coeffs[g] = tuple(_parse_coeff_table(sheets[s], f"symbols[{label!r}].{s}", max_mode)
                          for s in ("plus", "minus"))
    expect = _parse_expect(raw.get("expect", {}), group)
    problem = GOperatorProblem(family, coeffs, k_min=k_min, unit_fill=unit_fill,
                               name=raw.get("name", experiment))
    return ExperimentConfig(raw=raw, problem=problem, experiment=experiment,
                            numerics=numerics, out_dir=raw.get("out_dir"), expect=expect)


# ---------------------------------------------------------------------------
# experiment execution
# ---------------------------------------------------------------------------

@dataclass
class RunRecord:
    config_hash: str
    experiment: str
    payloads: dict
    verdicts: dict
    timings: dict
    version: str = VERSION

    @property
    def exit_code(self) -> int:
        """The worst verdict's code: 1 on any FAIL, else 2 on any UNDECIDED, else 0."""
        verdicts = set(self.verdicts.values())
        return 1 if FAIL in verdicts else 2 if UNDECIDED in verdicts else 0


def _h_grid_from(desc: dict) -> np.ndarray:
    return np.geomspace(desc["hi"], desc["lo"], desc["n"])


def _cx(z: complex) -> list:
    return [float(np.real(z)), float(np.imag(z))]


def run(config: ExperimentConfig) -> RunRecord:
    """Execute the configured experiment(s) and grade them."""
    payloads: dict = {}
    verdicts: dict = {}
    timings: dict = {}
    steps = PIPELINE if config.experiment == "full_pipeline" else (config.experiment,)
    for step in steps:
        t0 = time.perf_counter()
        fn = _EXPERIMENT_TABLE[step]
        payload, verdict = fn(config)
        payloads[step] = payload
        verdicts[step] = verdict
        timings[step] = time.perf_counter() - t0
    return RunRecord(config.config_hash(), config.experiment, payloads, verdicts, timings)


def _exp_ellipticity(config: ExperimentConfig):
    grid = PeriodicGrid(config.numerics["symbol_grid"])
    verdict = is_elliptic(config.problem.symbol(grid),
                          tol=config.numerics["tolerances"]["elliptic"])
    payload = {
        "verdict": verdict.verdict,
        "min_singular_value": verdict.min_singular_value,
        "witness": {"sheet": verdict.witness_sheet, "point": verdict.witness_point},
        "method": verdict.method,
    }
    expected = config.expect.get("verdict")
    if expected is not None:
        grade = PASS if verdict.verdict == expected else FAIL
    else:
        grade = {"elliptic": PASS, "not_elliptic": PASS, "undecided": UNDECIDED}[verdict.verdict]
    return payload, grade


def _sweep(config: ExperimentConfig) -> dict:
    """The analytic sweep's numerics, read here only: the index, localized,
    chi-vanishing and algebraic steps all pass on these same values."""
    num = config.numerics
    return {"windows": tuple(num["windows"]), "N": num["parametrix_order"],
            "zero_tol": num["zero_tol"], "inner_fraction": num["inner_fraction"],
            "drift_tol": num["tolerances"]["drift"]}


def _exp_index(config: ExperimentConfig):
    problem = config.problem
    sweep = _sweep(config)
    report = numerical_index(problem, sweep["windows"], sweep["zero_tol"],
                             sweep["inner_fraction"])
    payload = report.as_dict()
    payload["sign_convention"] = calibrate_sign()
    grade = PASS
    if problem.group.kind == "trivial":
        grid = grid_for_window(FrequencyWindow(max(sweep["windows"])))
        oracle = winding_index_oracle(problem.symbol(grid), calibrate_sign())
        payload["winding_oracle"] = oracle
        grade = PASS if oracle == report.index else FAIL
    expected = config.expect.get("index")
    if expected is not None and report.index != expected:
        grade = FAIL
    return payload, grade


def _exp_localized(config: ExperimentConfig):
    problem = config.problem
    sweep = _sweep(config)
    tol = config.numerics["tolerances"]["decomposition"]
    report = decomposition_check(problem, **sweep)
    payload = report.as_dict()
    rounded = int(np.rint(report.total.real))
    payload["rounded_total"] = rounded
    grade = PASS if (report.residual < tol and rounded == report.fredholm_index) else FAIL
    if problem.group.has_nonzero_chi:
        vanish = {}
        for g0 in (1, 2):      # chi(g0) = g0 on integer_shift, the one group with chi
            rep = chi_vanishing_check(
                problem, g0, sweep["windows"], sweep["N"], sweep["inner_fraction"],
                sweep["drift_tol"], tol=config.numerics["tolerances"]["chi_vanishing"])
            vanish[problem.group.label(g0)] = {"value": _cx(rep.value), "ok": rep.ok}
            if not rep.ok:
                grade = FAIL
        payload["chi_vanishing"] = vanish
    return payload, grade


def _exp_algebraic(config: ExperimentConfig):
    problem = config.problem
    fam = problem.family
    num = config.numerics
    grid = PeriodicGrid(num["symbol_grid"])
    lattice = XiLattice(num["lattice_radius"], num["lattice_points"])
    sweep = _sweep(config)
    h_grid = _h_grid_from(num["h_grid"])
    tols = num["tolerances"]
    series = StarSeries.from_crossed(problem.symbol(grid), lattice, num["eps"], unit_fill=True)
    r = symbol_parametrix_h(series, sweep["N"])
    analytic = decomposition_check(problem, **sweep)
    per_class = {}
    total_c0 = 0.0 + 0.0j
    grade = PASS
    for cls in fam.group.conjugacy_classes(support=fam.group.torsion_elements()):
        label = class_label(problem, cls)
        result = algebraic_index(series, cls, sweep["N"], h_grid, r=r, neg_tol=tols["neg_power"])
        ind_g = analytic.per_class.get(label, 0.0 + 0.0j)
        match = abs(result.constant_term - ind_g) < tols["c0_match"]
        per_class[label] = {
            "fit": result.fit.as_dict(),
            "constant_term": _cx(result.constant_term),
            "negative_power": _cx(result.negative_power),
            "negative_power_ok": result.negative_power_ok,
            "analytic_index": _cx(ind_g),
            "series_h": list(map(float, result.series.h_grid)),
            "series_values": [_cx(v) for v in result.series.values],
            "c0_matches_analytic": match,
        }
        total_c0 += result.constant_term
        if not (match and result.negative_power_ok):
            grade = FAIL
    rounded = int(np.rint(total_c0.real))
    payload = {
        "per_class": per_class,
        "total_constant_term": _cx(total_c0),
        "rounded_total": rounded,
        "fredholm_index": analytic.fredholm_index,
    }
    if rounded != analytic.fredholm_index:
        grade = FAIL
    return payload, grade


def _exp_egorov(config: ExperimentConfig):
    fam = config.problem.family
    grid = PeriodicGrid(config.numerics["symbol_grid"])
    h_grid = _h_grid_from(config.numerics["diag_h_grid"])
    tols = config.numerics["tolerances"]
    g = config.expect["element"]
    if fam.is_isometric:
        term = egorov_isometry_term(grid)
        rep = egorov_defect(fam, g, term, h_grid)
        ok = rep.max_defect < tols["egorov_isometry"]
    else:
        term = egorov_curved_term(grid)
        rep = egorov_defect(fam, g, term, h_grid, window_factor=2.0)
        lo, hi = tols["egorov_slope"]
        ok = rep.slope is not None and lo <= rep.slope <= hi
    payload = rep.as_dict()
    payload["element"] = fam.group.label(g)
    payload["isometric"] = fam.is_isometric
    return payload, PASS if ok else FAIL


def _exp_trace_asymptotics(config: ExperimentConfig):
    fam = config.problem.family
    grid = PeriodicGrid(config.numerics["symbol_grid"])
    lattice = XiLattice(3.5, 701)
    h_grid = _h_grid_from(config.numerics["diag_h_grid"])
    g = config.expect["element"]
    C = fam.canonical(g)
    e = fam.group.identity
    if g == e:
        term = annulus_term(grid, lattice)
        expected = -1.0
    elif C.sheet_swap:
        term = reflection_term(grid, lattice)
        expected = 0.0
    else:
        term = annulus_term(grid, lattice)
        expected = None            # fixed-point free: rapid decay
    series = StarSeries(fam, grid, lattice, 0.25, {(g, 0): term})
    rep = trace_power_law(series, fam.group.conjugacy_class(g), h_grid)
    payload = rep.as_dict()
    payload["element"] = fam.group.label(g)
    if expected is None:
        idx = int(np.argmin(np.abs(h_grid - 0.05)))
        value = float(np.abs(rep.values[idx]))
        payload["value_at_h05"] = value
        ok = value < 1e-6
        payload["expected"] = "decay"
    else:
        payload["expected"] = expected
        ok = rep.slope is not None and abs(rep.slope - expected) < 0.05
    return payload, PASS if ok else FAIL


_EXPERIMENT_TABLE = {
    "ellipticity": _exp_ellipticity,
    "index": _exp_index,
    "localized": _exp_localized,
    "algebraic": _exp_algebraic,
    "egorov": _exp_egorov,
    "trace_asymptotics": _exp_trace_asymptotics,
}


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def _json_dump(path: Path, obj):
    try:
        path.write_text(json.dumps(obj, sort_keys=True, indent=1) + "\n")
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def emit_reports(record: RunRecord, out_dir: str | Path) -> list[Path]:
    """Write report.json, CSV sweeps, meta.json (and timings.json, which is
    excluded from the byte-for-byte determinism contract)."""
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoError(f"cannot create {out}: {exc}") from exc
    written = []
    meta = {"config_hash": record.config_hash, "version": record.version,
            "experiment": record.experiment}
    _json_dump(out / "meta.json", meta)
    written.append(out / "meta.json")
    if record.payloads:
        report = {"config_hash": record.config_hash,
                  "verdicts": record.verdicts,
                  "payloads": record.payloads}
        _json_dump(out / "report.json", report)
        written.append(out / "report.json")
    for step, payload in record.payloads.items():
        if "stabilization" in payload:
            rows = ["cutoff,index,kernel_dim,cokernel_dim,sv_gap,rounding_residual"]
            for w in payload["stabilization"]:
                rows.append(f"{w['cutoff']},{w['index']},{w['kernel_dim']},"
                            f"{w['cokernel_dim']},{w['sv_gap']!r},{w['rounding_residual']!r}")
            p = out / f"index_{step}.csv"
            p.write_text("\n".join(rows) + "\n")
            written.append(p)
        series_blocks = []
        if "h" in payload and ("abs_values" in payload or "defects" in payload):
            col = payload.get("abs_values", payload.get("defects"))
            series_blocks.append((step, payload["h"], [(v, 0.0) for v in col]))
        if "per_class" in payload and isinstance(payload["per_class"], dict):
            for label, sub in payload["per_class"].items():
                if isinstance(sub, dict) and "series_h" in sub:
                    series_blocks.append((f"{step}_{label.strip('<>')}", sub["series_h"],
                                          [(v[0], v[1]) for v in sub["series_values"]]))
        for name, hcol, vals in series_blocks:
            rows = ["h,re,im"]
            for h, (re, im) in zip(hcol, vals):
                rows.append(f"{h!r},{re!r},{im!r}")
            p = out / f"series_{name}.csv"
            p.write_text("\n".join(rows) + "\n")
            written.append(p)
    _json_dump(out / "timings.json", {"seconds": record.timings})
    return written
