"""The benchmark's tracer wraps `sclrec` functions by name, so a rename or a
deletion in `src/` breaks `benchmarks/run.py --trace 1`. These checks read the
name lists in `benchmarks/` (without writing bytecode there) and fail on such a
break in the test suite already."""

import importlib
import sys
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


@pytest.fixture(scope="module")
def bench():
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sys, "dont_write_bytecode", True)
        mp.syspath_prepend(str(BENCHMARKS))
        yield importlib.import_module("tracer"), importlib.import_module("child")


def test_every_traced_name_resolves_on_its_sclrec_module(bench):
    tracer, _child = bench
    missing = [f"sclrec.{module}.{attr}" for module, attr in tracer.TRACED
               if (module, attr) not in tracer.OPTIONAL
               and not hasattr(importlib.import_module(f"sclrec.{module}"), attr)]
    assert missing == []


def test_every_probe_name_is_traced(bench):
    tracer, child = bench
    traced = {f"{module}.{attr}" for module, attr in tracer.TRACED}
    probed = {name for names in child.PROBE_METHODS.values() for name in names}
    assert probed and probed <= traced, sorted(probed - traced)
