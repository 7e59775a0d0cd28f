"""Tests of the shared pytest configuration in conftest.py."""

import os
import subprocess
import sys
from pathlib import Path

import atlh

SAMPLE = """\
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
"""


def test_failing_given_test_reports_under_warnings_as_errors(tmp_path):
    # with warnings as errors, as in pyproject.toml, hypothesis's report of a
    # failing example must not end the session: the later test still runs.
    # The run's .hypothesis/ directory lands in tmp_path.
    (tmp_path / "pytest.ini").write_text("[pytest]\nfilterwarnings =\n    error\n")
    (tmp_path / "test_sample.py").write_text(SAMPLE)
    paths = [Path(__file__).resolve().parent, Path(atlh.__file__).resolve().parents[1]]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(map(str, paths)))
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-p", "conftest", "-p", "no:cacheprovider", "-q", "test_sample.py"],
        cwd=tmp_path, capture_output=True, text=True, env=env, timeout=120,
    )
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
    assert run.returncode == 1
