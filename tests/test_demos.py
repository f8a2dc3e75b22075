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


def test_readme_quick_start_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library quick start", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    src = str(Path(stvsim.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", block], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[0] == "0.0 {'b1': 1.0} 1.0"  # the clean count: b1 wins every run
