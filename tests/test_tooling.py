"""The benchmark's span recorder (benchmark/tracing.py) wraps program functions
by module, class and attribute name.  A renamed or deleted target would only
show up as a KeyError in a traced benchmark run; these tests name it first."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "benchmark" / "tracing.py"


def _tracing_module():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACING_MODULE = _tracing_module()


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
