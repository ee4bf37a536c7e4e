"""Each demo script runs to completion in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import kerrswitch as ks

SRC = Path(ks.__file__).resolve().parents[1]
DEMOS = sorted((SRC.parent / "demos").glob("*.py"))


def test_every_demo_is_found():
    assert DEMOS, "no demo script found"


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    out = subprocess.run(
        [sys.executable, str(demo)],
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0, out.stderr
