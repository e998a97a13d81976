"""The benchmark harness's self-test, run as a tier-1 test.

bench/selftest.py drives small instances of every workload through the
traced CLI and requires, among other things, that each workload's spans
reach the layers it is meant to time (the dense oracle's eigensolve on
rot12-verify, the block solves, the quotients). A library change that
moves a call out of a traced span fails here, not only when the
benchmark next runs.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_selftest_passes():
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "selftest.py")],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
