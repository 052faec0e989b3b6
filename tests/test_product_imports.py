"""The product's import surface.

* **No numpy.**  numpy is installed for the benchmark only.  No module
  under ``src/repro`` may pull it in: importing numpy would grow every
  process's resident set and start-up time while no code path uses it.
  This is the run-time twin of the lint rule REPRO006, and it also
  catches a dynamic import the rule cannot see.  The check imports
  every module in a fresh interpreter, because this test process may
  already have imported numpy through another test.
* **Every re-export resolves.**  Each package's ``__all__`` names only
  attributes the package has, so ``from repro.graph import *`` cannot
  fail on a name whose definition was deleted.
"""

from __future__ import annotations

import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

import repro


def test_product_modules_import_no_numpy():
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    code = (
        "import importlib, pkgutil, sys\n"
        "import repro\n"
        "names = [info.name for info in pkgutil.walk_packages(\n"
        "    repro.__path__, prefix='repro.')]\n"
        "assert 'repro.core.msrp' in names, names\n"
        "for name in names:\n"
        "    importlib.import_module(name)\n"
        "    assert 'numpy' not in sys.modules, f'{name} imported numpy'\n"
    )
    run = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert run.returncode == 0, run.stderr


PACKAGES = ["repro"] + [
    info.name
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
    if info.ispkg
]


@pytest.mark.parametrize("name", PACKAGES)
def test_every_reexport_resolves(name):
    package = importlib.import_module(name)
    missing = [n for n in getattr(package, "__all__", ()) if not hasattr(package, n)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
