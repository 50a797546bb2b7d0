"""Smoke test: the demos run to completion against the source tree."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "name",
    [
        "exact_polynomials.py",
        "pretzel_components.py",
        "trace_polynomials.py",
        "two_bridge_families.py",
    ],
)
def test_demo_runs(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    if name == "trace_polynomials.py":
        assert "engine == oracle on a longer word: True" in proc.stdout.splitlines()
    if name == "pretzel_components.py":
        assert "every entry matched the published table" in proc.stdout
