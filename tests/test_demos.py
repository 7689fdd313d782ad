"""Every demo runs to completion as its own process, and the demos that
print no floats print exactly their pinned output in `tests/data/`."""

import glob
import os
import subprocess
import sys

import pytest

import heckelab

PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(heckelab.__file__)))
DEMO_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "demos")
DATA_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
DEMOS = sorted(glob.glob(os.path.join(DEMO_DIR, "0*.py")))
#: demos whose stdout has no floats, so it is the same on every machine
EXACT = ("01_double_cosets", "02_tree_groups", "04_wreath_embeddings",
         "06_almost_automorphisms")


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
    name = os.path.basename(path)[:-3]
    if name in EXACT:
        with open(os.path.join(DATA_DIR, name + ".out")) as fh:
            assert result.stdout == fh.read()
