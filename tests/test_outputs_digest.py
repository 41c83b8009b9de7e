"""`tests/outputs_digest.py` prints the pinned line: every observable output
is unchanged.  A change that moves an output must re-pin the line and name
the inputs that moved it."""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PINNED = (
    "34534 results sha256 "
    "485c23de5f9d4da3f048cb66ec48ae7042df3952cdf12a076f8b5b55fbc6aa28"
)


def test_outputs_digest_is_pinned():
    env = dict(os.environ, PYTHONPATH="src")
    done = subprocess.run(
        [sys.executable, "tests/outputs_digest.py"],
        cwd=ROOT, capture_output=True, text=True, env=env, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == PINNED
