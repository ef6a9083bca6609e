"""The benchmark's span tracer rebinds package attributes by name.

``perfbench/spans.py`` looks each wrapped name up in its owner's
``__dict__``; a rename or deletion in the package would make a traced
benchmark run crash with a KeyError. This test imports the tracer module
read-only and fails instead.
"""

import pathlib
import sys

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def spans():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import spans as module
    finally:
        sys.path.remove(str(PERFBENCH))
    return module


def test_every_wrapped_name_exists(spans):
    missing = [f"{owner.__name__}.{attr}"
               for owner, attr, _ in spans.WRAPPED if attr not in owner.__dict__]
    assert not missing
