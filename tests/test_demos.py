"""Smoke test: the quick demos run to completion.

Demos 01 and 06 exercise the 2-D ``estimate_transition`` / ``rollout`` /
``estimate_second_order`` calls; 02 and 05 cover data generation and block
structure, 04 the equivariance error of self and cross predictions
(each pair's fitted transition applied to its partner), and 07 the whole
command-line pipeline, including ``mspred sbd`` with two restarts. Each
runs in a fresh interpreter, with the package that this test imported
first on its path.
"""

import os
import pathlib
import subprocess
import sys

import pytest

import mspred

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"
PACKAGE_ROOT = pathlib.Path(mspred.__file__).resolve().parent.parent


@pytest.mark.parametrize("prefix", ["01", "02", "04", "05", "06", "07"])
def test_demo_exits_cleanly(prefix):
    (script,) = DEMOS.glob(f"{prefix}_*.py")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(PACKAGE_ROOT), env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, str(script)], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
