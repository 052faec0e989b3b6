"""The product loads no numpy.

numpy is installed for the benchmark and the tier tests only.  Nothing the
solver, the store or the server imports may pull it in: importing numpy
would grow the server's resident set and start-up time while no code path
uses it.  The check runs in a fresh interpreter, because this test process
may already have imported numpy through another test.
"""

from __future__ import annotations

import os
import subprocess
import sys

import repro

PRODUCT_MODULES = (
    "repro.cli",
    "repro.serve",
    "repro.store",
    "repro.core.msrp",
    "repro.multisource.pipeline",
)


def test_product_modules_import_no_numpy():
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    code = (
        "import importlib, sys\n"
        f"for name in {PRODUCT_MODULES!r}:\n"
        "    importlib.import_module(name)\n"
        "    assert 'numpy' not in sys.modules, f'{name} imported numpy'\n"
    )
    run = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert run.returncode == 0, run.stderr
