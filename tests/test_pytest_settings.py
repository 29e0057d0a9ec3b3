"""The test settings in ``pyproject.toml`` let a session outlive a failing property test.

Every ``DeprecationWarning`` is an error, but when a ``@given`` test fails,
hypothesis may import ``libcst`` to print a patch, and that import warns.  As an
error it would stop the session with INTERNALERROR and hide every later test.
"""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_a_failing_property_test_does_not_stop_the_session(tmp_path):
    (tmp_path / "test_a_fails.py").write_text(
        "from hypothesis import given, strategies as st\n\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert x < 0\n"
    )
    (tmp_path / "test_b_passes.py").write_text("def test_passes():\n    pass\n")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "test_a_fails.py", "test_b_passes.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert run.stdout.splitlines()[-1].startswith("1 failed, 1 passed"), run.stdout
