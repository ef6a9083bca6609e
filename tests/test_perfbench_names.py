"""The benchmark rebinds package attributes by name.

``perfbench/spans.py`` (the span tracer) and the step clocks of
``perfbench/workloads.py`` look each patched name up in its owner's
``__dict__``; a rename or deletion in the package would make a benchmark
run crash with a KeyError. These tests import the benchmark modules
read-only and fail instead.
"""

import ast
import pathlib
import sys

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def _import(name):
    sys.path.insert(0, str(PERFBENCH))
    try:
        return __import__(name)
    finally:
        sys.path.remove(str(PERFBENCH))


@pytest.fixture(scope="module")
def spans():
    return _import("spans")


def test_every_wrapped_name_exists(spans):
    missing = [f"{owner.__name__}.{attr}"
               for owner, attr, _ in spans.WRAPPED if attr not in owner.__dict__]
    assert not missing


def test_every_step_clock_target_exists():
    workloads = _import("workloads")
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    targets = {(call.args[0].id, call.args[1].value) for call in ast.walk(tree)
               if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "patch"}
    assert targets >= {("model", "variant_loss"), ("model", "horizon_errors_np"),
                       ("training", "adam_step"), ("sbd", "adam_step")}
    missing = [f"{owner}.{attr}" for owner, attr in sorted(targets)
               if attr not in vars(getattr(workloads, owner))]
    assert not missing
