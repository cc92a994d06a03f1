"""The benchmark's span recorder (benchmark/tracing.py) wraps program functions
by module, class and attribute name, and its workloads (benchmark/workloads.py)
feed generated configs to ``parse_config``.  A renamed or deleted target, or a
schema check that refuses a workload config, would only show up as a failed
benchmark run; these tests name it first.  Both files are loaded read-only.
The README and the docstrings name program objects the same way; a stale
name there is caught by ``test_doc_references_resolve``, and a config field
the README does not list by ``test_readme_lists_every_config_field``.
Every file the program writes goes through ``lab.write_file``, which
``test_one_writer`` keeps so; ``test_one_quantizer`` keeps every crossed
symbol quantized by ``GOperatorProblem``, ``test_one_prune_rule`` keeps the
part-prune threshold in ``LabeledOperator.prune``, ``test_one_trim_rule``
keeps the star calculus's rounding threshold in ``semiclass._data_columns``,
``test_one_layout_reader`` keeps the storage of sampled terms inside
``semiclass``, ``test_one_sum_rule`` keeps their sums in
``SampledTerm._accumulate``, ``test_one_power_caller`` keeps
``LabeledOperator.power`` out of the trace paths, ``test_one_resolved_mode_rule``
keeps the largest resolved mode in ``PeriodicGrid.max_mode``,
``test_operators_are_read_and_one_sweep`` keeps the index engine from
clearing an operator and keeps its window order in ``index_engine._sweep``, and
``test_no_scipy`` keeps the package on numpy alone."""

import ast
import importlib
import importlib.util
import json
import re
from pathlib import Path

import pytest

import gindexlab
from gindexlab.index_engine import numerical_index
from gindexlab.lab import _EXPERIMENT_TABLE, FIELDS, OPTIONAL, REQUIRED, parse_config

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = ROOT / "benchmark"
PACKAGE = ROOT / "src" / "gindexlab"
# a backticked dotted name, optionally called: `RealizationFamily.mode_map(g, ks)`
DOTTED = re.compile(r"`+([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)(?:\([^`]*\))?`+")


def _benchmark_module(name: str):
    spec = importlib.util.spec_from_file_location(f"benchmark_{name}", BENCHMARK / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACING_MODULE = _benchmark_module("tracing")
WORKLOADS = _benchmark_module("workloads").WORKLOADS


@pytest.mark.parametrize("prefix, modname, clsname, attr", TRACING_MODULE.TRACED,
                         ids=[row[0] for row in TRACING_MODULE.TRACED])
def test_traced_target_resolves(prefix, modname, clsname, attr):
    module = importlib.import_module(f"gindexlab.{modname}")
    owner = getattr(module, clsname) if clsname else module
    assert attr in vars(owner), f"{prefix}: gindexlab.{modname} has no {clsname or ''}.{attr}"


@pytest.mark.parametrize("name", TRACING_MODULE.LAB)
def test_lab_span_resolves(name):
    modname, attr = name.split(".")
    assert callable(getattr(importlib.import_module(f"gindexlab.{modname}"), attr, None))


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_configs_parse(workload):
    for seed in range(21):
        config, _ = WORKLOADS[workload](seed)
        assert parse_config(config).experiment == config["experiment"]


def test_workload_index_windows_keep_their_path():
    """Each workload's seed-0 index windows take one counting path: the band
    under mode maps, the dense SVD under the curved rotation.  A silent fall
    back to dense windows would bring back the peak of a realized window."""
    for workload, solver in (("pipeline_z2", "banded"), ("localized_dihedral", "banded"),
                             ("localized_curved", "dense"), ("index_sweep", "banded")):
        config, _ = WORKLOADS[workload](0)
        windows = config["numerics"]["windows"]
        rows = numerical_index(parse_config(config).problem, windows).stabilization
        assert len(rows) == len(windows) and {row.solver for row in rows} == {solver}, workload


def _documents():
    yield "README.md", (ROOT / "README.md").read_text()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)):
                doc = ast.get_docstring(node)
                if doc:
                    yield f"{path.name}:{getattr(node, 'name', 'module')}", doc


def _resolves(name: str) -> bool:
    """False only for a name rooted at a gindexlab module or export that is missing."""
    head, *rest = name.split(".")
    if head == "gindexlab":
        obj = gindexlab
    elif (PACKAGE / f"{head}.py").exists():
        obj = importlib.import_module(f"gindexlab.{head}")
    elif head in vars(gindexlab):
        obj = vars(gindexlab)[head]
    else:
        return True
    for attr in rest:
        if attr in getattr(obj, "__dataclass_fields__", {}):
            return True
        if obj is gindexlab and (PACKAGE / f"{attr}.py").exists():
            obj = importlib.import_module(f"gindexlab.{attr}")
        elif hasattr(obj, attr):
            obj = getattr(obj, attr)
        else:
            return False
    return True


def test_doc_references_resolve():
    stale = [f"{where}: {m.group(1)}" for where, text in _documents()
             for m in DOTTED.finditer(text) if not _resolves(m.group(1))]
    assert not stale, "stale references:\n" + "\n".join(stale)


def test_readme_lists_every_config_field():
    """README has one line per ``lab.FIELDS`` row, in the form
    ``  - `path`: what it must be[; required | ; default `json`]...[; read by `step`, ...]``,
    the last part exactly when the row names its readers."""
    listed = re.findall(r"^  - `([\w.]+)`: (.*)$", (ROOT / "README.md").read_text(), re.M)
    assert sorted(path for path, _ in listed) == sorted(FIELDS)
    for path, text in listed:
        (want, _), default, *readers = FIELDS[path]
        if default is REQUIRED:
            assert text == f"{want}; required", path
        elif default is not OPTIONAL:
            assert text.startswith(f"{want}; default `{json.dumps(default)}`"), path
        else:
            assert text.startswith(want), path
        read_by = "; read by " + ", ".join(f"`{step}`" for step in readers)
        assert (re.search(re.escape(read_by) + r"( \(.*\))?$", text) if readers
                else "read by" not in text), path


def test_field_readers_are_steps():
    for path, (_, _, *readers) in FIELDS.items():
        assert set(readers) <= set(_EXPERIMENT_TABLE), path


def _scoped(node, scope: str):
    """(enclosing module.class.function, node) of every node below ``node``."""
    for child in ast.iter_child_nodes(node):
        yield scope, child
        named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        yield from _scoped(child, f"{scope}.{child.name}" if named else scope)


def _calls(node, scope: str):
    """(enclosing module.class.function, called name) of every call below ``node``."""
    for scope, child in _scoped(node, scope):
        if isinstance(child, ast.Call):
            func = child.func
            yield scope, func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


def test_one_writer():
    """No program function but ``lab.write_file`` creates a directory or writes a file."""
    writers = {scope for path in sorted(PACKAGE.glob("*.py"))
               for scope, name in _calls(ast.parse(path.read_text()), path.stem)
               if name in ("write_text", "write_bytes", "mkdir", "open")}
    assert writers == {"lab.write_file"}


def test_one_quantizer():
    """Only ``GOperatorProblem.operator`` and ``GOperatorProblem.inverse_operator``
    quantize a crossed symbol, so the zero-section convention (``k_min``,
    ``unit_fill``) is applied in one place and the index engine never names it."""
    callers = {scope for path in sorted(PACKAGE.glob("*.py"))
               for scope, name in _calls(ast.parse(path.read_text()), path.stem)
               if name == "quantize_crossed"}
    assert callers == {"problems.GOperatorProblem.operator",
                       "problems.GOperatorProblem.inverse_operator"}
    assert not re.search(r"\b(k_min|unit_fill)\b", (PACKAGE / "index_engine.py").read_text())


def test_one_prune_rule():
    """Only ``LabeledOperator.prune`` reads ``PRUNE_TOL``, and the index engine
    does not name it: a finite group prunes no part, so the block path reports
    the product supports without taking a norm."""
    readers = {scope for path in sorted(PACKAGE.glob("*.py"))
               for scope, node in _scoped(ast.parse(path.read_text()), path.stem)
               if isinstance(node, ast.Name) and node.id == "PRUNE_TOL"
               and isinstance(node.ctx, ast.Load)}
    assert readers == {"quantize.LabeledOperator.prune"}
    assert "PRUNE_TOL" not in (PACKAGE / "index_engine.py").read_text()


def test_one_trim_rule():
    """Only ``semiclass._data_columns`` reads ``PLATEAU_TRIM_TOL``, and only
    ``semiclass._one_minus`` (1 - a * b, for the parametrix's w and the two
    residuals) and ``SampledTerm.xi_support_radius`` call it.  ``StarSeries.star``
    and ``__add__`` trim nothing: their spans come from exact zeros and exact
    plateaus, so the pairwise recursion stays their oracle."""
    readers = {scope for path in sorted(PACKAGE.glob("*.py"))
               for scope, node in _scoped(ast.parse(path.read_text()), path.stem)
               if isinstance(node, ast.Name) and node.id == "PLATEAU_TRIM_TOL"
               and isinstance(node.ctx, ast.Load)}
    assert readers == {"semiclass._data_columns"}
    calls = list(_calls(ast.parse((PACKAGE / "semiclass.py").read_text()), "semiclass"))
    assert {scope for scope, name in calls if name == "_data_columns"} == \
        {"semiclass._one_minus", "semiclass.SampledTerm.xi_support_radius"}
    assert {scope for scope, name in calls if name == "_one_minus"} == \
        {"semiclass.symbol_parametrix_h", "semiclass.algebraic_index.traces"}


def test_one_layout_reader():
    """No module but ``semiclass`` reads a sampled term's storage, its
    ``block`` or its first column ``lo``: a clamp block stops at its plateaus
    and a zero one at its support, and elsewhere a term is read through
    ``values``, ``sample`` or ``cols``, which extend it past its block."""
    readers = {path.name for path in sorted(PACKAGE.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.Attribute) and node.attr in ("block", "lo")}
    assert readers == {"semiclass.py"}


def test_one_sum_rule():
    """Only ``SampledTerm.__init__`` and ``SampledTerm._accumulate`` assign a
    term's ``block`` or ``lo``, so ``_accumulate`` is the one code that grows
    a term.  ``StarSeries.star`` reaches its output only through it: it
    calls ``_accumulate``, writes through an index only into its lists of
    scratch buffers and of spans, and builds no term but the empty start of
    an output key."""
    writers = {scope for path in sorted(PACKAGE.glob("*.py"))
               for scope, node in _scoped(ast.parse(path.read_text()), path.stem)
               if isinstance(node, ast.Attribute) and node.attr in ("block", "lo")
               and isinstance(node.ctx, ast.Store)}
    assert writers == {"semiclass.SampledTerm.__init__", "semiclass.SampledTerm._accumulate"}
    module = ast.parse((PACKAGE / "semiclass.py").read_text())
    star = [node for scope, node in _scoped(module, "semiclass")
            if scope == "semiclass.StarSeries" and getattr(node, "name", None) == "star"]
    assert len(star) == 1
    nodes = [node for _, node in _scoped(star[0], "star")]
    assert "_accumulate" in {name for _, name in _calls(star[0], "star")}
    targets = [target for node in nodes if isinstance(node, (ast.Assign, ast.AugAssign))
               for target in (node.targets if isinstance(node, ast.Assign) else [node.target])]
    indexed = {ast.unparse(t.value) for target in targets for t in ast.walk(target)
               if isinstance(t, ast.Subscript)}
    assert indexed <= {"scratch", "reach"}
    built = [node for node in nodes if isinstance(node, ast.Call)
             and getattr(node.func, "id", None) == "SampledTerm"]
    assert all(len(call.args) == 3 and not call.keywords and call.args[2].func.attr == "empty"
               for call in built)


def test_one_power_caller():
    """Only ``index_engine.parametrix`` forms a remainder power with
    ``LabeledOperator.power``: the trace paths run their powers on the traced
    rows and trace the last product without forming it."""
    callers = {scope for path in sorted(PACKAGE.glob("*.py"))
               for scope, name in _calls(ast.parse(path.read_text()), path.stem)
               if name == "power"}
    assert callers == {"index_engine.parametrix"}


def test_one_resolved_mode_rule():
    """Only ``PeriodicGrid.max_mode`` writes the largest resolved mode M // 2 - 1;
    the symbol grid's mode check, both quantizers' alias guards, the star
    calculus's coefficient rows and the config's mode bound read it there."""
    nodes = [(scope, node) for path in sorted(PACKAGE.glob("*.py"))
             for scope, node in _scoped(ast.parse(path.read_text()), path.stem)]
    writers = {scope for scope, node in nodes
               if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub)
               and isinstance(node.left, ast.BinOp) and isinstance(node.left.op, ast.FloorDiv)
               and ast.unparse(node.left.right) == "2" and ast.unparse(node.right) == "1"}
    assert writers == {"circle.PeriodicGrid.max_mode"}
    readers = {scope for scope, node in nodes
               if isinstance(node, ast.Attribute) and node.attr == "max_mode"}
    assert readers == {"circle.PeriodicFunction.from_coeff_dict", "quantize.TransferBand.__init__",
                       "quantize.op_h_term", "semiclass.SampledTerm.coeff_rows", "lab._max_mode"}


def test_operators_are_read_and_one_sweep():
    """No ``index_engine`` function calls ``clear``: the trace paths read A
    and E0 and leave their held parts to the caller.  Only
    ``index_engine._sweep`` iterates ``reversed(windows)``, so one code
    orders a window sweep."""
    module = ast.parse((PACKAGE / "index_engine.py").read_text())
    assert "clear" not in {name for _, name in _calls(module, "index_engine")}
    sweepers = {scope for scope, node in _scoped(module, "index_engine")
                if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "reversed"
                and [ast.unparse(arg) for arg in node.args] == ["windows"]}
    assert sweepers == {"index_engine._sweep"}


def test_no_scipy():
    """No module under src/gindexlab imports scipy.  ``import scipy.linalg``
    alone took 0.22-0.29 s in a fresh Python 3.11 process with numpy already
    imported (scipy 1.17, 2-vCPU Xeon VM), more than the benchmark's whole
    set-up (about 0.21 s), and set-up runs the index engine through
    ``calibrate_sign``; pyproject.toml declares numpy as the one dependency."""
    imports = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imports |= {(path.name, alias.name) for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imports.add((path.name, node.module))
    assert not {(name, module) for name, module in imports
                if module.split(".")[0] == "scipy"}
