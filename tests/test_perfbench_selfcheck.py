"""The benchmark harness still finds and wraps every name it times."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_selfcheck_passes():
    proc = subprocess.run([sys.executable, "perfbench/selfcheck.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "selfcheck: ok" in proc.stdout
