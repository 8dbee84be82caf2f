"""Tests of the test harness itself: pyproject's pytest settings together
with ``tests/conftest.py``."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import trirefine

TESTS = Path(__file__).resolve().parent

PROBE = '''\
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5


def test_passes():
    pass
'''


def test_failing_property_test_does_not_end_the_session(tmp_path):
    # Under `filterwarnings = ["error"]`, a failing @given test must be
    # reported with its falsifying example, and the tests after it must
    # still run, rather than the session ending in an INTERNALERROR.
    shutil.copy(TESTS / "conftest.py", tmp_path / "conftest.py")
    (tmp_path / "test_probe.py").write_text(PROBE)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(trirefine.__file__).parents[1]),
                      env.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(TESTS.parent / "pyproject.toml"), "--rootdir",
         str(tmp_path), "test_probe.py"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    out = run.stdout + run.stderr
    assert "INTERNALERROR" not in out, out
    assert "Falsifying example: test_fails(" in out, out
    assert "1 failed, 1 passed" in out, out
    assert run.returncode == 1, out
