"""The test settings report a failing property test instead of aborting.

Core claim:
    - under this repository's pytest settings, a failing hypothesis test is
      reported as one failure with its assertion, and the tests after it run
"""

import shutil
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

PROJECT_TESTS = '''
from hypothesis import Phase, given, settings, strategies as st


@settings(database=None, derandomize=True, phases=[Phase.generate])
@given(st.integers())
def test_fails(x):
    assert x < 0


def test_runs_after_the_failure():
    pass
'''


def test_failing_hypothesis_test_is_reported(tmp_path):
    shutil.copy(PYPROJECT, tmp_path / "pyproject.toml")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_project.py").write_text(PROJECT_TESTS)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 1, run.stdout + run.stderr
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
    assert "assert 0 < 0" in run.stdout
