"""The benchmark's span recorder (benchmark/tracing.py) wraps program functions
by module, class and attribute name, and its workloads (benchmark/workloads.py)
feed generated configs to ``parse_config``.  A renamed or deleted target, or a
schema check that refuses a workload config, would only show up as a failed
benchmark run; these tests name it first.  Both files are loaded read-only."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from gindexlab.lab import parse_config

BENCHMARK = Path(__file__).resolve().parents[1] / "benchmark"


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
