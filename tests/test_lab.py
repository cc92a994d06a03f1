import json
import os
import re
import subprocess
import sys
from collections.abc import Mapping
from pathlib import Path

import pytest

from gindexlab import circle, cli, groups, index_engine, lab, semiclass, symbols
from gindexlab.cli import main
from gindexlab.errors import ParseError, SchemaError
from gindexlab.lab import (DEFAULT_NUMERICS, FIELDS, RunRecord, emit_reports,
                           load_config, parse_config, run)
from gindexlab.samples import dihedral_sample

ROOT = Path(__file__).resolve().parents[1]

MINIMAL = {
    "group": {"kind": "trivial"},
    "symbols": {"e": {"plus": {"0": 1.0}, "minus": {"0": 1.0}}},
    "unit_fill": True,
    "experiment": "index",
    "numerics": {"windows": [32, 48, 64]},
}

WINDING = {
    "group": {"kind": "trivial"},
    "symbols": {"e": {"plus": {"0": 1.0}, "minus": {"1": 1.0}}},
    "experiment": "index",
    "expect": {"index": 1},
    "numerics": {"windows": [32, 48, 64]},
}

Z2_PIPELINE = {
    "group": {"kind": "cyclic", "m": 2},
    "realization": {"kind": "reflection"},
    "symbols": {"e": {"plus": {"0": 2.0}, "minus": {"1": 2.0}},
                "r": {"plus": {"0": 1.0}, "minus": {"0": 1.0}}},
    "experiment": "full_pipeline",
}

Z2_LOCALIZED = {**Z2_PIPELINE, "experiment": "localized"}
# well-formed fields that parse_config refuses on an experiment that never reads them
REFUSED_ON = {f"numerics.{key}": "trace_asymptotics"
              for key in ("lattice_points", "lattice_radius", "eps", "h_grid")}
# small algebraic numerics: two classes of Z/2 in well under a second
SMALL_ALGEBRAIC = {"windows": [32, 48], "parametrix_order": 3, "symbol_grid": 64,
                   "lattice_points": 201}
INDEX_COLUMNS = ("cutoff", "index", "kernel_dim", "cokernel_dim", "sv_gap", "rounding_residual")


def dihedral_localized_config() -> dict:
    """The localized experiment on ``dihedral_sample(0)``'s coefficients."""
    p = dihedral_sample(0)

    def table(coeffs):
        return {str(k): [complex(c).real, complex(c).imag] for k, c in coeffs.items()}

    return {"group": {"kind": "dihedral", "m": 3}, "realization": {"kind": "dihedral"},
            "symbols": {p.group.label(g): {"plus": table(plus), "minus": table(minus)}
                        for g, (plus, minus) in p.symbol_coeffs.items()},
            "experiment": "localized", "numerics": {"windows": [48, 64, 96]}}


def write(tmp_path, obj, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return p


class TestConfig:
    def test_minimal(self, tmp_path):
        cfg = load_config(write(tmp_path, MINIMAL))
        assert cfg.experiment == "index"
        assert cfg.numerics["zero_tol"] == DEFAULT_NUMERICS["zero_tol"]
        assert cfg.numerics["windows"] == [32, 48, 64]

    def test_parse_error_has_location(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text('{"experiment": "index",\n  "group": }')
        with pytest.raises(ParseError, match=r":2:"):
            load_config(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError):
            load_config(tmp_path / "nope.json")

    def test_unreadable_file(self, tmp_path):
        (tmp_path / "binary.json").write_bytes(b"\xff\xfe{")
        for path in (tmp_path, tmp_path / "binary.json"):
            with pytest.raises(ParseError, match="cannot read config file"):
                load_config(path)

    def test_unknown_element(self):
        bad = dict(MINIMAL)
        bad["symbols"] = {"q": {"plus": {}, "minus": {}}}
        with pytest.raises(SchemaError, match="unknown element"):
            parse_config(bad)

    def test_unknown_field(self):
        bad = dict(MINIMAL)
        bad["mystery"] = 1
        with pytest.raises(SchemaError, match="mystery"):
            parse_config(bad)

    def test_unknown_experiment(self):
        bad = dict(MINIMAL)
        bad["experiment"] = "astrology"
        with pytest.raises(SchemaError):
            parse_config(bad)

    @pytest.mark.parametrize("windows", [[], "abc", [4, 64], [64.0, 128], [True, 64],
                                         [64, None], [64], [64, 64], [128, 64]])
    def test_bad_windows_rejected(self, windows):
        bad = {**MINIMAL, "numerics": {"windows": windows}}
        with pytest.raises(SchemaError, match="numerics.windows"):
            parse_config(bad)

    @pytest.mark.parametrize("sheet, value, shown", [("plus", float("nan"), "nan"),
                                                     ("minus", [0.0, float("inf")], "inf")])
    def test_non_finite_coefficient_rejected(self, tmp_path, sheet, value, shown):
        symbols = {"e": {"plus": {"0": 1.0}, "minus": {"0": 1.0}}}
        symbols["e"][sheet] = {"0": 1.0, "-2": value}
        path = write(tmp_path, {**MINIMAL, "symbols": symbols})   # JSON NaN / Infinity
        with pytest.raises(SchemaError,
                           match=rf"symbols\['e'\]\.{sheet}: coefficient of mode -2 .*{shown}"):
            load_config(path)

    @pytest.mark.parametrize("value", [["x", 1], [1, "y"], [None, 1], True, [True, 0],
                                       "2", [1, 2, 3]])
    def test_bad_coefficient_rejected(self, value):
        symbols = {"e": {"plus": {"0": 1.0}, "minus": {"0": 1.0, "3": value}}}
        with pytest.raises(SchemaError, match=r"symbols\['e'\]\.minus: coefficient of mode 3"):
            parse_config({**MINIMAL, "symbols": symbols})

    @pytest.mark.parametrize("field, value", [
        ("zero_tol", "x"), ("zero_tol", 0.0), ("zero_tol", 1.5), ("zero_tol", float("nan")),
        ("zero_tol", True), ("inner_fraction", 2.0), ("inner_fraction", 0),
        ("parametrix_order", 1), ("parametrix_order", 2.5), ("parametrix_order", True),
        ("parametrix_order", "4"), ("symbol_grid", 3), ("symbol_grid", 256.0),
        ("tolerances", {"drfit": 1e-3}),
        ("tolerances", {"egorov_slope": [1.3, 0.9]}), ("tolerances", []),
        ("lattice_points", "x"), ("lattice_points", 600), ("lattice_points", 601.7),
        ("lattice_points", 15), ("lattice_radius", -1), ("eps", "x"), ("eps", 2.0),
        ("eps", 0), ("h_grid", []), ("h_grid", {"hi": 0.05, "lo": 0.005, "n": "x"}),
        ("h_grid", {"hi": 0.05, "lo": 0.01, "n": 8}), ("h_grid", {"hi": 0.05, "lo": 0.005}),
        ("h_grid", {"hi": 0.05, "lo": 0, "n": 8}),
        ("diag_h_grid", {"hi": 0.2, "lo": 0.02, "n": 4.5}),
        ("diag_h_grid", {"hi": 0.2, "lo": 0.02, "n": 5}),
        ("tolerances", {"egorov_slope": [0.9, float("inf")]})])
    def test_bad_numerics_rejected(self, field, value):
        # full_pipeline reads every numerics field but diag_h_grid and egorov_slope, whose
        # cases fail in the table walk, so no case stops at the unread-field refusal
        bad = {**Z2_PIPELINE, "numerics": {"windows": [32, 48], field: value}}
        with pytest.raises(SchemaError, match=f"numerics.{field}"):
            parse_config(bad)

    @pytest.mark.parametrize("path, value", [
        ("k_min", "x"), ("k_min", 0), ("k_min", 2.0), ("unit_fill", "no"), ("unit_fill", 1),
        ("realization", []), ("realization.eps", "x"), ("realization.kind", []),
        ("symbols", []), ("group", 5), ("group.m", "x"), ("group.theta", "x"),
        ("numerics", []), ("numerics.tolerances.drift", "x"), ("expect", []),
        ("expect.index", "1"), ("expect.index", 1.5), ("expect.index", True),
        ("expect.element", "q"), ("expect.element", 1), ("expect.indx", 1),
        ("symbols['e'].minsu", {"1": 1.0}), ("expect.verdict", "eliptic"),
        ("realization.esp", 0.3), ("group.mm", 5), ("out_dir", 5), ("name", 5), ("seed", "x"),
        ("realization.eps", float("inf")), ("group.theta", float("nan")),
        ("realization.eps", 0.7), ("expect.index", 3), ("expect.verdict", "elliptic"),
        ("numerics.lattice_points", 17), ("numerics.lattice_radius", 0.5),
        ("numerics.eps", 0.2), ("numerics.h_grid", {"hi": 0.9, "lo": 0.01, "n": 6})])
    def test_bad_field_rejected(self, path, value):
        bad = json.loads(json.dumps(Z2_LOCALIZED))
        bad["experiment"] = REFUSED_ON.get(path, bad["experiment"])
        *parents, leaf = path.replace("['", ".").replace("']", "").split(".")
        node = bad
        for key in parents:
            node = node.setdefault(key, {})
        node[leaf] = value
        with pytest.raises(SchemaError, match=re.escape(path)):
            parse_config(bad)

    @pytest.mark.parametrize("experiment, fields", [
        *((experiment, {"numerics.lattice_points": 17})
          for experiment in ("egorov", "ellipticity", "index", "localized")),
        ("egorov", {"numerics.windows": [32, 48]}),
        ("trace_asymptotics", {"numerics.windows": [32, 48]}),
        ("index", {"numerics.parametrix_order": 3}), ("localized", {"numerics.symbol_grid": 64}),
        ("localized", {"expect.element": "r"}),
        ("egorov", {"numerics.windows": [32, 48], "numerics.lattice_points": 17})],
        ids=lambda p: p if isinstance(p, str) else "+".join(p))
    def test_unread_field_refused(self, experiment, fields):
        """A well-formed field that no step of the experiment reads stops the config,
        and one message names every such field."""
        bad = {**Z2_PIPELINE, "experiment": experiment, "numerics": {}, "expect": {}}
        for path, value in fields.items():
            obj, key = path.split(".")
            bad[obj][key] = value
        message = f"no step of the {experiment} experiment reads {', '.join(fields)}"
        with pytest.raises(SchemaError, match=f"^{re.escape(message)}$"):
            parse_config(bad)

    @pytest.mark.parametrize("experiment, sheet, mode, windows", [
        ("ellipticity", "plus", 200, [64, 128]), ("index", "minus", 1000, [32, 48]),
        ("full_pipeline", "plus", 130, [64, 128]), ("localized", "minus", -128, [32, 48])])
    def test_mode_beyond_sampled_grid_rejected(self, experiment, sheet, mode, windows):
        # symbol_grid 256 and grid_for_window(32) = 256 both resolve |k| <= 127
        symbols = json.loads(json.dumps(Z2_PIPELINE["symbols"]))
        symbols["r"][sheet][str(mode)] = 0.5
        numerics = {} if experiment == "ellipticity" else {"windows": windows}   # read or refused
        bad = {**Z2_PIPELINE, "experiment": experiment, "symbols": symbols, "numerics": numerics}
        with pytest.raises(SchemaError, match=rf"symbols\['r'\]\.{sheet}: mode {mode} "):
            parse_config(bad)

    @pytest.mark.parametrize("experiment, mode", [("egorov", 1000), ("trace_asymptotics", 1000),
                                                  ("ellipticity", 127), ("localized", -127)])
    def test_mode_on_sampled_grid_accepted(self, experiment, mode):
        symbols = {"e": {"plus": {str(mode): 1.0}, "minus": {"0": 1.0}}}
        numerics = {"windows": [32, 48]} if experiment == "localized" else {}   # read or refused
        cfg = parse_config({**Z2_PIPELINE, "experiment": experiment, "symbols": symbols,
                            "numerics": numerics})
        if abs(mode) < 128:      # the 256-point grid both steps sample on resolves it
            cfg.problem.symbol(circle.PeriodicGrid(256))

    def test_algebraic_needs_isometric_realization(self):
        bad = {**Z2_PIPELINE, "realization": {"kind": "curved_rotation", "eps": 0.3}}
        with pytest.raises(SchemaError, match="isometric"):
            parse_config(bad)

    def test_expect_element_parsed_once(self):
        cfg = parse_config({**Z2_PIPELINE, "experiment": "egorov"})
        assert cfg.expect == {"element": 1}
        dihedral = {"group": {"kind": "dihedral", "m": 3}, "experiment": "egorov",
                    "expect": {"element": "rs"}}
        cfg = parse_config(dihedral)
        assert cfg.problem.group.label(cfg.expect["element"]) == "rs"
        shift = {"group": {"kind": "integer_shift", "theta": 1.0}, "experiment": "egorov"}
        assert parse_config(shift).expect == {"element": 1}
        for group, first in (({"kind": "trivial"}, ()), ({"kind": "cyclic", "m": 1}, 0),
                             ({"kind": "dihedral", "m": 1}, (0, 1))):    # order one: s or e
            assert parse_config({"group": group, "experiment": "egorov"}).expect == {
                "element": first}

    def test_huge_group_parses(self):
        cfg = parse_config({"group": {"kind": "cyclic", "m": 10**300}, "experiment": "egorov",
                            "symbols": {"r" + "9" * 299: {"plus": {"0": 1.0}, "minus": {}}}})
        assert cfg.expect["element"] == 1
        assert list(cfg.problem.symbol_coeffs) == [10**299 - 1]

    @pytest.mark.parametrize("kind, labels, first", [
        ("cyclic", ["e", "r", "r4"], 1), ("dihedral", ["e", "r3", "s", "r4s"], (1, 0))])
    def test_parse_never_lists_the_group(self, monkeypatch, kind, labels, first):
        def refuse(self):
            raise AssertionError("GroupSpec.elements called while parsing")

        monkeypatch.setattr(groups.GroupSpec, "elements", refuse)
        table = {label: {"plus": {"0": 1.0}, "minus": {"0": 1.0}} for label in labels}
        base = {"group": {"kind": kind, "m": 5}, "symbols": table, "experiment": "egorov"}
        assert parse_config(base).expect["element"] == first
        cfg = parse_config({**base, "expect": {"element": labels[-1]}})
        assert cfg.problem.group.label(cfg.expect["element"]) == labels[-1]

    def test_default_numerics_are_engine_constants(self):
        tols = DEFAULT_NUMERICS["tolerances"]
        assert DEFAULT_NUMERICS["zero_tol"] == index_engine.DEFAULT_ZERO_TOL
        assert DEFAULT_NUMERICS["inner_fraction"] == circle.INNER_FRACTION
        assert DEFAULT_NUMERICS["parametrix_order"] == index_engine.PARAMETRIX_ORDER
        assert DEFAULT_NUMERICS["diag_h_grid"] == semiclass.DIAG_H_GRID
        assert tols["elliptic"] == symbols.ELLIPTIC_TOL
        assert tols["drift"] == index_engine.DRIFT_TOL
        assert tols["chi_vanishing"] == index_engine.CHI_TOL
        assert tols["neg_power"] == semiclass.NEG_POWER_TOL
        assert json.loads(json.dumps(DEFAULT_NUMERICS)) == DEFAULT_NUMERICS

    def test_one_problem_per_config(self):
        cfg = parse_config(dict(MINIMAL))
        assert cfg.problem is cfg.problem
        assert cfg.problem.symbol_coeffs == {(): ({0: 1.0}, {0: 1.0})}   # element-keyed

    def test_hash_semantic_only(self):
        a = parse_config(dict(MINIMAL))
        b = parse_config({**MINIMAL, "out_dir": "elsewhere"})
        c = parse_config({**MINIMAL, "k_min": 5})
        assert a.config_hash() == b.config_hash()
        assert a.config_hash() != c.config_hash()


class Recording(Mapping):
    """A config object that adds the dotted path of every field read through it to
    ``reads``; the objects below it are recorded the same way."""

    def __init__(self, data: dict, path: str, reads: set):
        self.data, self.path, self.reads = data, path, reads

    def __getitem__(self, key):
        path = f"{self.path}.{key}"
        self.reads.add(path)
        value = self.data[key]
        return Recording(value, path, self.reads) if isinstance(value, dict) else value

    def __iter__(self):
        return iter(self.data)

    def __len__(self):
        return len(self.data)


def readers(path: str) -> tuple:
    """The steps that read a field: its row's, else those of the object holding it."""
    parent = path.rpartition(".")[0]
    return FIELDS[path][2:] or (readers(parent) if parent else tuple(lab._EXPERIMENT_TABLE))


def test_steps_read_the_fields_that_name_them():
    """Each step reads exactly the ``numerics`` and ``expect`` values whose rows name
    it as a reader (rows that name none: those of the object holding them), so the
    fields parse_config refuses on an experiment are the ones its steps never read.
    Bare objects such as ``numerics.tolerances`` hold no value and are left out."""
    shift = {"group": {"kind": "integer_shift", "theta": 1.0},
             "symbols": {"0": {"plus": {"0": 2.0}, "minus": {"1": 2.0}},
                         "1": {"plus": {"0": 0.5}, "minus": {"0": 0.5}}},
             "experiment": "localized", "numerics": {"windows": [32, 48]}}
    curved = {**Z2_PIPELINE, "realization": {"kind": "curved_rotation", "eps": 0.3}}
    configs = [{**Z2_PIPELINE, "numerics": {"windows": [32, 48], "parametrix_order": 3,
                                            "symbol_grid": 64, "lattice_points": 201}},
               {**Z2_PIPELINE, "experiment": "egorov"}, {**curved, "experiment": "egorov"},
               {**Z2_PIPELINE, "experiment": "trace_asymptotics"}, shift]
    reads = {step: set() for step in lab._EXPERIMENT_TABLE}
    for raw in configs:
        config = parse_config(raw)
        numerics, expect = config.numerics, config.expect
        for step in config.steps:
            config.numerics = Recording(numerics, "numerics", reads[step])
            config.expect = Recording(expect, "expect", reads[step])
            lab._EXPERIMENT_TABLE[step](config)
    objects = {path for path, row in FIELDS.items() if row[0] is lab._OBJECT}
    values = {path for path in FIELDS if path.startswith(("numerics.", "expect."))} - objects
    assert {step: paths - objects for step, paths in reads.items()} == {
        step: {path for path in values if step in readers(path)} for step in reads}


class TestRun:
    def test_identity_index(self):
        record = run(parse_config(MINIMAL))
        assert record.verdicts["index"] == "PASS"
        assert record.payloads["index"]["index"] == 0
        assert record.exit_code == 0

    def test_winding_calibration_run(self):
        record = run(parse_config(WINDING))
        assert record.payloads["index"]["index"] == record.payloads["index"]["winding_oracle"]
        assert record.payloads["index"]["sign_convention"] in (1, -1)

    def test_expected_index_mismatch_fails(self):
        bad = dict(WINDING)
        bad["expect"] = {"index": -7}
        record = run(parse_config(bad))
        assert record.verdicts["index"] == "FAIL"
        assert record.exit_code == 1

    def test_algebraic_step_uses_configured_decomposition(self, monkeypatch):
        # the algebraic step judges each constant term against the localized
        # payload's value of its class, from the same configured sweep; a
        # c0_match between the two classes' distances (4e-5 and 3e-13) gives
        # one verdict of each kind
        sweeps = []
        check = lab.decomposition_check
        monkeypatch.setattr(lab, "decomposition_check",
                            lambda problem, **sweep: sweeps.append(sweep) or check(problem, **sweep))
        cfg = {**Z2_PIPELINE, "numerics": {"windows": [32, 48], "inner_fraction": 0.4,
                                           "tolerances": {"c0_match": 1e-8}}}
        payloads = run(parse_config(cfg)).payloads
        assert len(sweeps) == 2 and sweeps[0] == sweeps[1]
        assert sweeps[0]["windows"] == (32, 48) and sweeps[0]["inner_fraction"] == 0.4
        localized = payloads["localized"]["per_class"]
        verdicts = []
        for label, entry in payloads["algebraic"]["per_class"].items():
            assert "analytic_index" not in entry
            distance = abs(complex(*entry["constant_term"]) - complex(*localized[label]))
            assert entry["c0_matches_analytic"] == (distance < 1e-8)
            verdicts.append(entry["c0_matches_analytic"])
        assert sorted(verdicts) == [False, True]

    def test_one_svd_per_window_at_configured_numerics(self, monkeypatch):
        index_engine.calibrate_sign()    # the sign calibration sweeps its own problem
        calls = []
        svd_index = index_engine.index_of_matrix

        def spy(mat, window, zero_tol=index_engine.DEFAULT_ZERO_TOL, inner_fraction=0.5):
            calls.append((window.cutoff, zero_tol, inner_fraction))
            return svd_index(mat, window, zero_tol, inner_fraction)

        monkeypatch.setattr(index_engine, "index_of_matrix", spy)
        cfg = {**Z2_PIPELINE,
               "numerics": {"windows": [32, 48], "zero_tol": 1e-7, "inner_fraction": 0.4}}
        run(parse_config(cfg))
        assert calls == [(32, 1e-7, 0.4), (48, 1e-7, 0.4)]

    def test_one_residual_pair_per_algebraic_run(self, monkeypatch):
        star = semiclass.StarSeries.star
        calls = []

        def spy(self, other, N):
            calls.append(N)
            return star(self, other, N)

        monkeypatch.setattr(semiclass.StarSeries, "star", spy)
        numerics = {"windows": [32, 48], "parametrix_order": 3, "symbol_grid": 64,
                    "lattice_points": 201}
        counts = []
        for base, classes in ((WINDING, 1), (Z2_PIPELINE, 2)):
            calls.clear()
            record = run(parse_config({**base, "expect": {}, "experiment": "algebraic",
                                       "numerics": numerics}))
            assert len(record.payloads["algebraic"]["per_class"]) == classes
            counts.append(len(calls))
        # symbol_parametrix_h makes N + 2 star products, the residual pair 2 more
        assert counts == [3 + 2 + 2] * 2

    @pytest.mark.parametrize("group, realization, element, expected", [
        ({"kind": "cyclic", "m": 2}, "reflection", "e", -1.0),
        ({"kind": "cyclic", "m": 4}, "rotation", "r", "decay")], ids=["identity", "rotation"])
    def test_trace_asymptotics_grading(self, group, realization, element, expected):
        """The identity's trace grows like 1/h; a fixed-point-free rotation's decays
        below the bound by h = 0.05."""
        record = run(parse_config({"group": group, "realization": {"kind": realization},
                                   "experiment": "trace_asymptotics",
                                   "expect": {"element": element}}))
        payload = record.payloads["trace_asymptotics"]
        assert record.verdicts == {"trace_asymptotics": "PASS"}
        assert payload["expected"] == expected
        if expected == "decay":
            assert 1e-10 < payload["value_at_h05"] < 1e-9
        else:
            assert abs(payload["slope"] - expected) < lab.TRACE_SLOPE_TOL

    @pytest.mark.parametrize("verdict, grade", [("elliptic", "PASS"), ("not_elliptic", "FAIL")])
    def test_ellipticity_graded_against_expected_verdict(self, verdict, grade):
        record = run(parse_config({**Z2_PIPELINE, "experiment": "ellipticity",
                                   "expect": {"verdict": verdict}}))
        assert record.payloads["ellipticity"]["verdict"] == "elliptic"
        assert record.verdicts == {"ellipticity": grade}

    def test_undecided_ellipticity(self):
        cfg = {
            "group": {"kind": "integer_shift", "theta": 1.0},
            "symbols": {"0": {"plus": {"0": 1.0}, "minus": {"0": 1.0}},
                        "1": {"plus": {"0": 2.0}, "minus": {"0": 2.0}}},
            "experiment": "ellipticity",
        }
        record = run(parse_config(cfg))
        assert record.verdicts["ellipticity"] == "UNDECIDED"
        assert record.exit_code == 2


def csv_rows(step: str, payload: dict) -> dict:
    """The CSV files README documents for a step, as header + rows of report.json values."""
    if step == "index":
        return {"index_index.csv": (",".join(INDEX_COLUMNS), [
            [w[c] for c in INDEX_COLUMNS] for w in payload["stabilization"]])}
    if step in ("egorov", "trace_asymptotics"):
        values = payload["defects" if step == "egorov" else "abs_values"]
        return {f"series_{step}.csv": ("h,re,im", [[h, v, 0.0]
                                                   for h, v in zip(payload["h"], values)])}
    return {f"series_{step}_{label.strip('<>')}.csv": (
        "h,re,im", [[h, *v] for h, v in zip(entry["series_h"], entry["series_values"])])
        for label, entry in payload["per_class"].items()}


class TestReports:
    def test_empty_record_meta_only(self, tmp_path):
        record = RunRecord("deadbeef", "index", {}, {}, {})
        files = emit_reports(record, tmp_path / "out")
        names = {f.name for f in files}
        assert "meta.json" in names
        assert "report.json" not in names

    def test_index_csv_rows(self, tmp_path):
        record = run(parse_config(MINIMAL))
        emit_reports(record, tmp_path / "out")
        csv = (tmp_path / "out" / "index_index.csv").read_text().strip().splitlines()
        assert csv[0].startswith("cutoff,")
        assert len(csv) == 1 + 3   # header + one row per window

    def test_index_rows_name_their_solver(self, tmp_path):
        """report.json's stabilization rows say which path counted each window;
        index_index.csv keeps its columns."""
        emit_reports(run(parse_config(WINDING)), tmp_path)
        payload = json.loads((tmp_path / "report.json").read_text())["payloads"]["index"]
        assert [w["solver"] for w in payload["stabilization"]] == ["banded"] * 3
        header = (tmp_path / "index_index.csv").read_text().splitlines()[0]
        assert header == ",".join(INDEX_COLUMNS)

    @pytest.mark.parametrize("raw", [
        MINIMAL, {**Z2_PIPELINE, "experiment": "egorov"},
        {**Z2_PIPELINE, "experiment": "trace_asymptotics"},
        {**Z2_PIPELINE, "experiment": "algebraic", "numerics": SMALL_ALGEBRAIC}],
        ids=lambda raw: raw["experiment"])
    def test_report_files(self, tmp_path, raw):
        """A run writes meta.json, report.json and the CSVs of its step, and timings.json,
        which emit_reports does not list; each CSV cell is the repr of the report.json
        value it repeats."""
        written = emit_reports(run(parse_config(raw)), tmp_path)
        (step, payload), = json.loads((tmp_path / "report.json").read_text())["payloads"].items()
        tables = csv_rows(step, payload)
        assert len(tables) == (2 if step == "algebraic" else 1)
        assert sorted(p.name for p in written) == sorted(["meta.json", "report.json", *tables])
        assert {p.name for p in tmp_path.iterdir()} == {p.name for p in written} | {"timings.json"}
        for name, (header, rows) in tables.items():
            assert (tmp_path / name).read_text().splitlines() == [
                header, *(",".join(map(repr, row)) for row in rows)]

    def test_determinism_byte_for_byte(self, tmp_path):
        cfg = parse_config(WINDING)
        for d in ("a", "b"):
            emit_reports(run(cfg), tmp_path / d)
        for name in ("report.json", "meta.json", "index_index.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


    def test_report_independent_of_blas_threads(self, tmp_path):
        """The localized block path, at even and odd parametrix order, and the
        star calculus of a small Z/2 algebraic run write the same report under
        one and two BLAS threads."""
        order3 = dihedral_localized_config()
        order3["numerics"] = {**order3["numerics"], "parametrix_order": 3}
        configs = {"localized": dihedral_localized_config(), "localized_order3": order3,
                   "algebraic": {**Z2_PIPELINE, "experiment": "algebraic",
                                 "numerics": SMALL_ALGEBRAIC}}
        for name, raw in configs.items():
            (tmp_path / name).mkdir()
            cfg = write(tmp_path / name, raw)
            reports = []
            for threads in ("1", "2"):
                env = {**os.environ, "PYTHONPATH": str(ROOT / "src"),
                       "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
                       "MKL_NUM_THREADS": threads}
                out = tmp_path / name / f"threads{threads}"
                proc = subprocess.run([sys.executable, "-m", "gindexlab.cli", "run", str(cfg),
                                       "--out", str(out)], env=env, capture_output=True,
                                      text=True, timeout=300)
                assert proc.returncode == 0, proc.stdout + proc.stderr
                reports.append((out / "report.json").read_bytes())
            assert reports[0] == reports[1], name


class TestCLI:
    def test_validate(self, tmp_path, capsys):
        p = write(tmp_path, MINIMAL)
        assert main(["validate", str(p)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_validate_bad(self, tmp_path, capsys):
        p = write(tmp_path, {**MINIMAL, "experiment": "nope"})
        assert main(["validate", str(p)]) == 1
        assert "error" in capsys.readouterr().err

    def test_run_bad_out_dir_is_one_error_line(self, tmp_path, capsys):
        p = write(tmp_path, {**MINIMAL, "out_dir": 5})
        assert main(["run", str(p)]) == 1
        assert capsys.readouterr().err.splitlines() == ["error: out_dir must be a string, got 5"]

    def test_calibrate_sign_bad_out_is_one_error_line(self, tmp_path, capsys):
        (tmp_path / "file").write_text("")
        assert main(["calibrate-sign", "--out", str(tmp_path / "file" / "x")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: cannot write ")

    @pytest.mark.parametrize("blocked", ["csv", "parent"])
    def test_run_unwritable_out_is_one_error_line(self, tmp_path, capsys, blocked):
        """A report file that is a directory, or an --out below a regular file."""
        (tmp_path / "file").write_text("")
        out = tmp_path / "file" / "x"
        if blocked == "csv":
            out = tmp_path / "out"
            (out / "index_index.csv").mkdir(parents=True)
        assert main(["run", str(write(tmp_path, MINIMAL)), "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: cannot write ")

    def test_unexpected_fault_is_one_error_line(self, tmp_path, capsys, monkeypatch):
        """An exception that is not a GIndexError exits 1 with its type and
        message on one stderr line, and no traceback."""
        def fault(config):
            raise RuntimeError("solver state lost")
        monkeypatch.setattr(cli, "run", fault)
        assert main(["run", str(write(tmp_path, MINIMAL))]) == 1
        assert capsys.readouterr().err.splitlines() == ["error: RuntimeError: solver state lost"]

    def test_run_writes_reports(self, tmp_path, capsys):
        p = write(tmp_path, WINDING)
        out = tmp_path / "results"
        assert main(["run", str(p), "--out", str(out)]) == 0
        assert (out / "report.json").exists()
        assert "PASS" in capsys.readouterr().out

    def test_calibrate_sign(self, tmp_path, capsys):
        out = tmp_path / "cal"
        assert main(["calibrate-sign", "--out", str(out)]) == 0
        payload = json.loads((out / "sign_convention.json").read_text())
        assert payload["sign_convention"] in (1, -1)
