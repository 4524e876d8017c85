"""The scripts in ``tools/`` run from any working directory."""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

import pytest

TOOLS = pathlib.Path(__file__).resolve().parents[1] / "tools"


@pytest.mark.parametrize(
    "script", ["check_trace_schema.py", "check_metrics_schema.py"]
)
def test_describe_runs_outside_the_checkout(script, tmp_path):
    """``--describe`` needs ``repro``; the script finds it from its own
    location, not from the working directory or ``PYTHONPATH``."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, str(TOOLS / script), "--describe"],
        cwd=tmp_path, env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("{")
