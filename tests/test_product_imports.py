"""The product's import surface.

* **No numpy.**  numpy is installed for the benchmark and the tier tests
  only.  Nothing the solver, the store or the server imports may pull it
  in: importing numpy would grow the server's resident set and start-up
  time while no code path uses it.  The check runs in a fresh
  interpreter, because this test process may already have imported numpy
  through another test.
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
