"""Importing the package pins BLAS to one thread, and warns when numpy
was imported first with nothing pinned, since the pin is then too late;
importing the CLI loads no process pool."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.parametrize("code,pinned,warns", [
    ("import numpy, flowdistill", False, True),
    ("import flowdistill", False, False),
    ("import numpy, flowdistill", True, False),
], ids=["numpy-first-unpinned", "package-first", "numpy-first-pinned"])
def test_late_blas_pin_warns(code, pinned, warns):
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env["PYTHONPATH"] = str(SRC)
    if pinned:
        env.update(dict.fromkeys(BLAS_VARS, "1"))
    res = subprocess.run([sys.executable, "-W", "always", "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    if warns:
        assert "RuntimeWarning" in res.stderr and all(v in res.stderr for v in BLAS_VARS)
    else:
        assert res.stderr == ""


def test_cli_import_leaves_the_process_pool_unloaded():
    # only parallel_map imports them, so a command that maps nothing skips their import time
    code = ("import sys, flowdistill.cli; "
            "print(sorted({'concurrent.futures.process', 'multiprocessing'} & {*sys.modules}))")
    res = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(SRC)),
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout == "[]\n"
