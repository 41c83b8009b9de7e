"""Each script in demos/ runs, exits 0 and prints the text pinned in tests/data/demos/."""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_demo_has_pinned_output():
    pinned = sorted((ROOT / "tests" / "data" / "demos").glob("*.out"))
    assert [p.stem for p in pinned] == [d.stem for d in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_output(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, env=env, timeout=60
    )
    assert done.returncode == 0, done.stderr
    expected = (ROOT / "tests" / "data" / "demos" / f"{demo.stem}.out").read_text()
    assert done.stdout == expected
