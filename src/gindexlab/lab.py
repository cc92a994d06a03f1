"""Config-driven experiment runner.

A JSON config describes one G-operator (group, realization, symbol table) and
an experiment kind.  ``parse_config`` checks it against ``FIELDS`` (one row per
field: path, what its value must be, check, default, the steps that read it) and
the rules the table cannot state, and builds its one ``GOperatorProblem``; ``run``
executes the experiment on it, grades the result PASS / FAIL / UNDECIDED against
the configured tolerances, and ``emit_reports`` persists the payloads.  This module
owns the report format: each step builds its payload here from its result's fields,
and every file the lab writes goes through ``write_file``.  All numeric outputs are
deterministic: fixed summation orders, no threading, no random draws.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
import time
from dataclasses import asdict, dataclass
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
                        algebraic_index, egorov_defect, trace_power_law)
from .symbols import ELLIPTIC_TOL, VERDICTS, is_elliptic
from .transforms import RealizationFamily

EXPERIMENTS = ("ellipticity", "index", "localized", "algebraic", "egorov",
               "trace_asymptotics", "full_pipeline")


def _is_number(x, types=(int, float)) -> bool:
    """A finite JSON number of ``types`` (a float holds it); never a bool."""
    return isinstance(x, types) and not isinstance(x, bool) and abs(x) <= sys.float_info.max


def _at_least(lo: int) -> tuple:
    return f"an integer >= {lo}", lambda x: _is_number(x, int) and x >= lo


# value kinds: (what the value must be, as its SchemaError says; the check)
_STRING = ("a string", lambda x: isinstance(x, str))
_OBJECT = ("an object", lambda x: isinstance(x, dict))
_NUMBER = ("a number", _is_number)
_INTEGER = ("an integer", lambda x: _is_number(x, int))
_POSITIVE = ("a positive number", lambda x: _is_number(x) and x > 0)
_UNIT = ("a number in (0, 1)", lambda x: _is_number(x) and 0 < x < 1)
_H_GRID = ("an object {hi, lo, n} with hi >= 10 lo", _OBJECT[1])
OPTIONAL, REQUIRED = object(), object()   # defaults: absent stays absent / must be given

# One row per config field: dotted path -> (value kind, default, *the steps that
# read it; none: every step that reads the object holding it).  An object with
# rows below it is walked key by key; any other value is checked whole.
_SWEEP, _DIAG = ("index", "localized", "algebraic"), ("egorov", "trace_asymptotics")
FIELDS = {
    "name": (_STRING, OPTIONAL),
    "seed": (_INTEGER, OPTIONAL),
    "out_dir": (_STRING, OPTIONAL),
    "experiment": ((f"one of {EXPERIMENTS}", lambda x: x in EXPERIMENTS), REQUIRED),
    "group": (_OBJECT, {"kind": "trivial"}),
    "group.kind": (_STRING, REQUIRED),
    "group.m": (_at_least(1), OPTIONAL),
    "group.theta": (_NUMBER, OPTIONAL),
    "realization": (_OBJECT, {}),
    "realization.kind": (_STRING, OPTIONAL),
    "realization.eps": (_NUMBER, OPTIONAL),
    "symbols": (("an object of element -> sheet tables", _OBJECT[1]), {}),
    "k_min": (_at_least(1), K_MIN),
    "unit_fill": (("true or false", lambda x: isinstance(x, bool)), False),
    "numerics": (_OBJECT, {}),
    "numerics.windows": ((f"at least two strictly increasing integers >= {MIN_CUTOFF}",
                          lambda w: isinstance(w, list) and len(w) >= 2
                          and all(_is_number(k, int) and k >= MIN_CUTOFF for k in w)
                          and all(a < b for a, b in zip(w, w[1:]))), [64, 128, 192], *_SWEEP),
    "numerics.zero_tol": (_UNIT, DEFAULT_ZERO_TOL, *_SWEEP),
    "numerics.inner_fraction": (_UNIT, INNER_FRACTION, *_SWEEP),
    "numerics.parametrix_order": (_at_least(2), PARAMETRIX_ORDER, "localized", "algebraic"),
    "numerics.symbol_grid": (_at_least(MIN_GRID_SIZE), 256, "ellipticity", "algebraic", *_DIAG),
    "numerics.lattice_radius": (_POSITIVE, 3.0, "algebraic"),
    "numerics.lattice_points": ((f"an odd integer >= {MIN_LATTICE_POINTS}",
                                 lambda n: _is_number(n, int) and n >= MIN_LATTICE_POINTS
                                 and n % 2 == 1), 601, "algebraic"),
    "numerics.eps": (("a number with 0 < 2 eps < lattice_radius", _POSITIVE[1]), 0.5, "algebraic"),
    "numerics.h_grid": (_H_GRID, {"hi": 0.05, "lo": 0.005, "n": 8}, "algebraic"),
    "numerics.h_grid.hi": (_POSITIVE, REQUIRED),
    "numerics.h_grid.lo": (_POSITIVE, REQUIRED),
    "numerics.h_grid.n": (_at_least(MIN_H_POINTS), REQUIRED),
    "numerics.diag_h_grid": (_H_GRID, dict(DIAG_H_GRID), *_DIAG),
    "numerics.diag_h_grid.hi": (_POSITIVE, REQUIRED),
    "numerics.diag_h_grid.lo": (_POSITIVE, REQUIRED),
    "numerics.diag_h_grid.n": (_at_least(MIN_H_POINTS), REQUIRED),
    "numerics.tolerances": (_OBJECT, {}),
    "numerics.tolerances.elliptic": (_POSITIVE, ELLIPTIC_TOL, "ellipticity"),
    "numerics.tolerances.decomposition": (_POSITIVE, 1e-2, "localized"),
    "numerics.tolerances.drift": (_POSITIVE, DRIFT_TOL, "localized", "algebraic"),
    "numerics.tolerances.chi_vanishing": (_POSITIVE, CHI_TOL, "localized"),
    "numerics.tolerances.c0_match": (_POSITIVE, 1e-2, "algebraic"),
    "numerics.tolerances.neg_power": (_POSITIVE, NEG_POWER_TOL, "algebraic"),
    "numerics.tolerances.egorov_isometry": (_POSITIVE, 1e-9, "egorov"),
    "numerics.tolerances.egorov_slope": (("a pair [lo, hi] of numbers with lo <= hi",
                                          lambda t: isinstance(t, list) and len(t) == 2
                                          and all(map(_is_number, t)) and t[0] <= t[1]),
                                         [0.9, 1.3], "egorov"),
    "expect": (_OBJECT, {}),
    "expect.index": (_INTEGER, OPTIONAL, "index"),
    "expect.verdict": ((f"one of {VERDICTS}", lambda x: x in VERDICTS), OPTIONAL, "ellipticity"),
    "expect.element": (_STRING, OPTIONAL, *_DIAG),
}
_LEVELS = {path.rpartition(".")[0] for path in FIELDS}   # the objects the walk enters


def _fail(path: str, value):
    raise SchemaError(f"{path} must be {FIELDS[path][0][0]}, got {value!r}")


def _known(obj: dict, keys, prefix: str):
    for key in obj:
        if key not in keys:
            raise SchemaError(f"unknown config field {f'{prefix}{key}'!r}")


def _walk(obj: dict, path: str) -> dict:
    """A copy of the object at ``path`` ("" on top), checked and with defaults filled."""
    prefix = f"{path}." if path else ""
    rows = {field[len(prefix):]: field for field in FIELDS if field.rpartition(".")[0] == path}
    _known(obj, rows, prefix)
    out = {}
    for key, field in rows.items():
        (want, check), default, *_ = FIELDS[field]
        if key not in obj and default is REQUIRED:
            raise SchemaError(f"missing config field {field!r}, which must be {want}")
        if key in obj or default is not OPTIONAL:
            value = obj[key] if key in obj else json.loads(json.dumps(default))
            if not check(value):
                _fail(field, value)
            out[key] = _walk(value, field) if field in _LEVELS else value
    return out


def _given(obj: dict, prefix: str):
    """The dotted path of every field ``obj`` sets, the objects the walk enters included."""
    for key, value in obj.items():
        yield prefix + key
        if prefix + key in _LEVELS:
            yield from _given(value, f"{prefix}{key}.")


DEFAULT_NUMERICS = _walk({}, "numerics")

PIPELINE = ("ellipticity", "index", "localized", "algebraic")   # the full_pipeline steps
PASS, FAIL, UNDECIDED = "PASS", "FAIL", "UNDECIDED"

# trace_asymptotics probes a fixed term: its xi-lattice and cutoff eps, the bound
# |tau_g| of a fixed-point-free element must fall below at h = TRACE_DECAY_H, and
# how far the log-log slope of any other element may miss its expected value
TRACE_LATTICE = XiLattice(3.5, 701)
TRACE_EPS = 0.25
TRACE_DECAY_H, TRACE_DECAY_BOUND = 0.05, 1e-6
TRACE_SLOPE_TOL = 0.05


@dataclass
class ExperimentConfig:
    raw: dict
    problem: GOperatorProblem    # the config's one problem: every step shares its caches
    experiment: str
    steps: tuple                 # the steps ``run`` takes: PIPELINE for full_pipeline
    numerics: dict
    out_dir: str | None
    expect: dict

    def config_hash(self) -> str:
        semantic = {k: v for k, v in self.raw.items() if k != "out_dir"}
        blob = json.dumps(semantic, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()


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
            raise SchemaError(f"{where}: coefficient of mode {mode} must be a finite number or "
                              f"[re, im] of finite numbers, got {val!r}")
        out[mode] = complex(*parts)
    return out


def _max_mode(experiment: str, num: dict) -> float:
    """The largest |mode| resolved on every grid the experiment samples symbols on."""
    sizes = []
    if experiment in ("ellipticity", "algebraic", "full_pipeline"):
        sizes.append(num["symbol_grid"])
    if experiment in ("index", "localized", "algebraic", "full_pipeline"):
        sizes.append(grid_for_window(FrequencyWindow(num["windows"][0])).size)
    return min(sizes) // 2 - 1 if sizes else math.inf


def _parse_expect(expect: dict, group) -> dict:
    """``expect`` with ``element`` parsed; by default the first element other than
    the identity (r, s on dihedral(1), 1 on integer_shift) if there is one."""
    label = expect.get("element")
    if label is None:
        first = {"trivial": (), "cyclic": 1 % group.m, "integer_shift": 1,
                 "dihedral": (1, 0) if group.m > 1 else (0, 1)}[group.kind]
        return {**expect, "element": first}
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
    """Check a config against ``FIELDS`` and the rules that span fields, fill
    its defaults, and build its one ``GOperatorProblem``."""
    if not isinstance(raw, dict):
        raise SchemaError("top level must be an object")
    cfg = _walk(raw, "")
    experiment, numerics = cfg["experiment"], cfg["numerics"]
    realization, expect = cfg["realization"], cfg["expect"]
    steps = PIPELINE if experiment == "full_pipeline" else (experiment,)
    unread = [path for path in _given(raw, "") if set(steps).isdisjoint(FIELDS[path][2:] or steps)]
    if unread:
        raise SchemaError(f"no step of the {experiment} experiment reads {', '.join(unread)}")
    if "eps" in realization and realization.get("kind") != "curved_rotation":
        raise SchemaError("realization.eps is read only by the curved_rotation realization")
    if not 2 * numerics["eps"] < numerics["lattice_radius"]:
        _fail("numerics.eps", numerics["eps"])
    for key in ("h_grid", "diag_h_grid"):
        if numerics[key]["hi"] / numerics[key]["lo"] < MIN_H_SPAN:
            _fail(f"numerics.{key}", numerics[key])
    try:
        group = build_group(**cfg["group"])
    except GIndexError as exc:
        raise SchemaError(f"group: {exc}") from exc
    natural = {"trivial": "trivial", "cyclic": "rotation",
               "dihedral": "dihedral", "integer_shift": "rotation"}[group.kind]
    try:
        family = RealizationFamily(group, realization.get("kind", natural),
                                   eps=float(realization.get("eps", 0.0)))
    except GIndexError as exc:
        raise SchemaError(f"realization: {exc}") from exc
    if experiment in ("algebraic", "full_pipeline") and not family.is_isometric:
        raise SchemaError(f"the {experiment} experiment needs an isometric realization")
    max_mode = _max_mode(experiment, numerics)
    coeffs = {}
    for label, sheets in cfg["symbols"].items():
        try:
            g = group.parse(label)
        except GIndexError as exc:
            raise SchemaError(f"symbols: {exc}") from exc
        if not isinstance(sheets, dict) or not {"plus", "minus"} <= set(sheets):
            raise SchemaError(f"symbols[{label!r}] needs 'plus' and 'minus' tables")
        _known(sheets, ("plus", "minus"), f"symbols[{label!r}].")
        coeffs[g] = tuple(_parse_coeff_table(sheets[s], f"symbols[{label!r}].{s}", max_mode)
                          for s in ("plus", "minus"))
    problem = GOperatorProblem(family, coeffs, k_min=cfg["k_min"], unit_fill=cfg["unit_fill"],
                               name=cfg.get("name", experiment))
    return ExperimentConfig(raw=raw, problem=problem, experiment=experiment, steps=steps,
                            numerics=numerics, out_dir=cfg.get("out_dir"),
                            expect=_parse_expect(expect, group))


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
    for step in config.steps:
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
    """The analytic sweep's numerics, read here only: the localized,
    chi-vanishing and algebraic steps all pass on these same values."""
    num = config.numerics
    return {"windows": tuple(num["windows"]), "N": num["parametrix_order"],
            "zero_tol": num["zero_tol"], "inner_fraction": num["inner_fraction"],
            "drift_tol": num["tolerances"]["drift"]}


def _exp_index(config: ExperimentConfig):
    problem = config.problem
    num = config.numerics
    report = numerical_index(problem, tuple(num["windows"]), num["zero_tol"],
                             num["inner_fraction"])
    payload = asdict(report) | {"sign_convention": calibrate_sign()}
    grade = PASS
    if problem.group.kind == "trivial":
        grid = grid_for_window(FrequencyWindow(max(num["windows"])))
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
    rounded = int(np.rint(report.total.real))
    payload = {"per_class": {label: _cx(v) for label, v in report.per_class.items()},
               "total": _cx(report.total), "fredholm_index": report.fredholm_index,
               "residual": report.residual, "drifts": report.drifts, "rounded_total": rounded}
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
    num = config.numerics
    grid = PeriodicGrid(num["symbol_grid"])
    lattice = XiLattice(num["lattice_radius"], num["lattice_points"])
    sweep = _sweep(config)
    h_grid = _h_grid_from(num["h_grid"])
    tols = num["tolerances"]
    series = StarSeries.from_crossed(problem.symbol(grid), lattice, num["eps"])
    results = algebraic_index(series, sweep["N"], h_grid, neg_tol=tols["neg_power"])
    analytic = decomposition_check(problem, **sweep)
    per_class = {}
    total_c0 = 0.0 + 0.0j
    grade = PASS
    for cls, result in results.items():
        label = class_label(problem, cls)
        ind_g = analytic.per_class.get(label, 0.0 + 0.0j)
        match = abs(result.constant_term - ind_g) < tols["c0_match"]
        fit = result.fit
        per_class[label] = {
            "fit": {"powers": list(fit.powers), "coeffs": [_cx(c) for c in fit.coeffs],
                    "residual": fit.residual, "cond": fit.cond},
            "constant_term": _cx(result.constant_term),
            "negative_power": _cx(result.negative_power),
            "negative_power_ok": result.negative_power_ok,
            "series_h": result.series.h_grid.tolist(),
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
    payload = {"h": rep.h_grid.tolist(), "defects": rep.defects.tolist(), "slope": rep.slope,
               "max_defect": rep.max_defect, "element": fam.group.label(g),
               "isometric": fam.is_isometric}
    return payload, PASS if ok else FAIL


def _exp_trace_asymptotics(config: ExperimentConfig):
    fam = config.problem.family
    grid = PeriodicGrid(config.numerics["symbol_grid"])
    h_grid = _h_grid_from(config.numerics["diag_h_grid"])
    g = config.expect["element"]
    C = fam.canonical(g)
    e = fam.group.identity
    if g == e:
        term = annulus_term(grid, TRACE_LATTICE)
        expected = -1.0
    elif C.sheet_swap:
        term = reflection_term(grid, TRACE_LATTICE)
        expected = 0.0
    else:
        term = annulus_term(grid, TRACE_LATTICE)
        expected = None            # fixed-point free: rapid decay
    series = StarSeries(fam, grid, TRACE_LATTICE, TRACE_EPS, {(g, 0): term})
    rep = trace_power_law(series, fam.group.conjugacy_class(g), h_grid)
    payload = {"slope": rep.slope, "max_value": rep.max_value, "h": rep.h_grid.tolist(),
               "abs_values": np.abs(rep.values).tolist(), "element": fam.group.label(g)}
    if expected is None:
        idx = int(np.argmin(np.abs(h_grid - TRACE_DECAY_H)))
        value = float(np.abs(rep.values[idx]))
        payload["value_at_h05"] = value
        ok = value < TRACE_DECAY_BOUND
        payload["expected"] = "decay"
    else:
        payload["expected"] = expected
        ok = rep.slope is not None and abs(rep.slope - expected) < TRACE_SLOPE_TOL
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

# the CSV files emit_reports writes, chosen by step; every cell is the repr of the
# report.json value it repeats, and a series step has no imaginary part
INDEX_COLUMNS = ("cutoff", "index", "kernel_dim", "cokernel_dim", "sv_gap", "rounding_residual")
SERIES_COLUMN = {"egorov": "defects", "trace_asymptotics": "abs_values"}


def write_file(path: Path, text: str) -> Path:
    """Write ``text`` to ``path``, creating its directory: every file the lab writes
    goes through here, and a file that cannot be written raises ``IoError``."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc
    return path


def _json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=1) + "\n"


def _csv_tables(step: str, payload: dict) -> dict:
    """File name -> (header, rows) of the CSV files of one step's payload."""
    if step == "index":
        return {f"index_{step}.csv": (INDEX_COLUMNS, [[w[c] for c in INDEX_COLUMNS]
                                                      for w in payload["stabilization"]])}
    if step in SERIES_COLUMN:
        values = payload[SERIES_COLUMN[step]]
        return {f"series_{step}.csv": (("h", "re", "im"),
                                       [[h, v, 0.0] for h, v in zip(payload["h"], values)])}
    if step == "algebraic":
        return {f"series_{step}_{label.strip('<>')}.csv": (
            ("h", "re", "im"), [[h, *v] for h, v in zip(sub["series_h"], sub["series_values"])])
            for label, sub in payload["per_class"].items()}
    return {}


def emit_reports(record: RunRecord, out_dir: str | Path) -> list[Path]:
    """Write meta.json, report.json and each step's CSV files, and return their
    paths; timings.json is written too but not listed, as it is excluded from the
    byte-for-byte determinism contract."""
    out = Path(out_dir)
    meta = {"config_hash": record.config_hash, "version": record.version,
            "experiment": record.experiment}
    written = [write_file(out / "meta.json", _json(meta))]
    if record.payloads:
        report = {"config_hash": record.config_hash,
                  "verdicts": record.verdicts,
                  "payloads": record.payloads}
        written.append(write_file(out / "report.json", _json(report)))
    for step, payload in record.payloads.items():
        for name, (header, rows) in _csv_tables(step, payload).items():
            lines = [",".join(header), *(",".join(map(repr, row)) for row in rows)]
            written.append(write_file(out / name, "\n".join(lines) + "\n"))
    write_file(out / "timings.json", _json({"seconds": record.timings}))
    return written
