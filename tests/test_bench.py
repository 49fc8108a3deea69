"""The benchmark harness must keep running against the current source."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_selfcheck_passes():
    # reduced shapes on every workload path; writes only under .bench_out/
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--selfcheck"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
