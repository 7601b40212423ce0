"""The test configuration itself: a failing property test is reported like any other."""

import shutil
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

TWO_TESTS = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 0


def test_passes():
    pass
"""


def test_failing_hypothesis_test_does_not_abort_the_run(tmp_path):
    # hypothesis reports a failing example through modules that warn on import; under
    # filterwarnings = ["error"] that warning would stop pytest with INTERNALERROR
    shutil.copy(PYPROJECT, tmp_path)
    (tmp_path / "test_two.py").write_text(TWO_TESTS)
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "test_two.py"], cwd=tmp_path, capture_output=True, text=True)
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert proc.returncode == 1 and "1 failed, 1 passed" in proc.stdout
