"""The ``REPRO_NUMPY`` flag that the benchmark reports; no kernel reads it.

Every kernel is pure Python, and no module under ``src/repro`` imports
numpy (``repro-lint`` REPRO006 bans it).  This module stays only because
``perfbench/bench.py`` imports :func:`numpy_enabled`; it goes with the
next benchmark change.  It asks the import system whether numpy could be
imported and never imports it.
"""

from __future__ import annotations

import importlib.util
import os

#: Environment variable that switches the flag off: unset or any value
#: outside ``_OFF_VALUES`` means "on when numpy is installed".
NUMPY_ENV_VAR = "REPRO_NUMPY"

_OFF_VALUES = {"0", "off", "false", "no"}


def numpy_enabled() -> bool:
    """``True`` when numpy is installed and ``REPRO_NUMPY`` is not off.

    Reads the environment on every call, so a test can toggle it.
    """
    if importlib.util.find_spec("numpy") is None:
        return False
    return os.environ.get(NUMPY_ENV_VAR, "").strip().lower() not in _OFF_VALUES
