"""The repository's pytest settings let a failing hypothesis test report its example.

hypothesis prints a failure through libcst, whose import warns with a
``DeprecationWarning``; ``pyproject.toml`` turns other deprecation warnings
into errors, which would abort the session with INTERNALERROR instead.
"""

import os
import subprocess
import sys

PYPROJECT = os.path.join(os.path.dirname(__file__), "..", "pyproject.toml")

FALSIFIABLE = '''
from hypothesis import given, strategies as st


@given(st.integers(0, 10))
def test_falsifiable(n):
    assert n < 5
'''


def test_failing_hypothesis_test_reports_its_example(tmp_path):
    (tmp_path / "test_falsifiable.py").write_text(FALSIFIABLE)
    argv = [sys.executable, "-m", "pytest", "-c", os.path.abspath(PYPROJECT),
            "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "test_falsifiable.py"]
    result = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    output = result.stdout + result.stderr
    assert result.returncode == 1, output
    assert "Falsifying example" in output
    assert "INTERNALERROR" not in output
