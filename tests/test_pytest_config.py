"""The warning filters of ``pyproject.toml`` still let pytest report a failing hypothesis test."""
from __future__ import annotations

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

TINY_TESTS = '''
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_fails(x):
    assert x < 10


def test_passes():
    pass
'''


def test_failing_hypothesis_test_is_reported(tmp_path):
    # hypothesis reports the failing example through libcst, whose import of a deprecated
    # alias must not become an INTERNALERROR that ends the session
    (tmp_path / "test_tiny.py").write_text(TINY_TESTS)
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_tiny.py"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert "1 failed, 1 passed" in done.stdout
    assert "Falsifying example: test_fails(" in done.stdout
