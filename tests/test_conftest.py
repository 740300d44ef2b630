"""The test set-up keeps a failing property from stopping the whole run.

Under ``filterwarnings = error``, hypothesis's report of a failing example
used to end the run with INTERNALERROR, so one failing property hid every
other result.  conftest.py imports the module behind that warning up front;
this test runs a child pytest with the same conftest and the same
warning filter on one failing property and one passing test.
"""

import os
import subprocess
import sys
from pathlib import Path

import wachkit

CHILD_TESTS = '''
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers(min_value=0))
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_a_failing_property_does_not_stop_the_run(tmp_path):
    (tmp_path / "pytest.ini").write_text("[pytest]\nfilterwarnings = error\n")
    (tmp_path / "conftest.py").write_text((Path(__file__).parent / "conftest.py").read_text())
    (tmp_path / "test_pair.py").write_text(CHILD_TESTS)
    src = str(Path(wachkit.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    # cwd: hypothesis writes its patch files under .hypothesis/ in the working directory
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "test_pair.py"],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert "INTERNALERROR" not in run.stdout + run.stderr, run.stdout[-2000:]
    assert run.returncode == 1
    assert "1 failed, 1 passed" in run.stdout
