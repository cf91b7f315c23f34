"""The suite's pytest settings report a falsified hypothesis property as an
ordinary failure: the run goes on, prints the falsifying example and exits 1."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

TESTS = '''
from hypothesis import given, strategies as st

@given(st.integers())
def test_falsified(x):
    assert x < 5

def test_after():
    pass
'''


def test_failing_property_does_not_stop_the_run(tmp_path):
    (tmp_path / "test_probe.py").write_text(TESTS)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = done.stdout + done.stderr
    assert done.returncode == 1, out
    assert "INTERNALERROR" not in out
    assert "Falsifying example" in out
    assert "1 failed, 1 passed" in out
