"""Every demo runs to completion as its own process."""

import glob
import os
import subprocess
import sys

import pytest

import heckelab

PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(heckelab.__file__)))
DEMO_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "demos")
DEMOS = sorted(glob.glob(os.path.join(DEMO_DIR, "0*.py")))


def test_demos_are_found():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("path", DEMOS, ids=os.path.basename)
def test_demo_runs(path, tmp_path):
    # the demos import heckelab from the source tree, whatever the cwd
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [PACKAGE_ROOT, os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, path], capture_output=True, text=True,
                            env=env, cwd=tmp_path, timeout=300)
    assert result.returncode == 0, result.stderr
    assert "Traceback" not in result.stderr
