import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

PROBE = """
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
"""


def test_a_failing_hypothesis_test_is_one_failure_and_the_session_goes_on(tmp_path):
    # on a failure hypothesis's plugin imports libcst, whose DeprecationWarning the
    # "error" filter alone turns into an INTERNALERROR that ends the session
    (tmp_path / "test_probe.py").write_text(PROBE)
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_probe.py"],
                          capture_output=True, text=True, cwd=tmp_path, timeout=120)
    assert "INTERNALERROR" not in proc.stdout + proc.stderr, proc.stdout
    assert proc.returncode == 1
    assert proc.stdout.splitlines()[-1].startswith("1 failed, 1 passed"), proc.stdout
