"""Every demo under ``demos/`` runs to completion against the package."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import stvsim

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("0[1-5]_*.py"))


def test_all_five_demos_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    src = str(Path(stvsim.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
