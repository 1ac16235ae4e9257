"""The benchmark's planted-fault checks run clean against the library.

`zdbench/selftest.py` plants one fault at a time in correct job outputs and
requires the benchmark's output checks to reject each; it imports the
library from this checkout's `src`.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_zdbench_selftest_exits_clean():
    result = subprocess.run(
        [sys.executable, str(ROOT / "zdbench" / "selftest.py")],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stdout + result.stderr
