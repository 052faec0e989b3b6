"""Optional numpy gating, which no kernel consults any more.

Every kernel is pure Python: no product module imports numpy or this
module, and the whole pipeline gives the same output whether numpy is
installed or not.

The module stays for two readers outside the product: the benchmark
(``perfbench/bench.py`` imports :func:`numpy_enabled`) and the tier tests
(``tests/test_numpy_tier.py`` imports :data:`NUMPY_ENV_VAR` and
:func:`numpy_available`).  Deleting it is therefore a benchmark change.
``repro-lint`` REPRO006 still treats a call to :func:`numpy_enabled` or
:func:`require_numpy` as a numpy fast path that needs a registered
pure-Python twin, should one ever come back.

* ``np`` is the imported module, or ``None`` when numpy is not installed.
* :func:`numpy_enabled` is the per-call gate.  It reads the ``REPRO_NUMPY``
  environment variable on every call: ``0``/``off``/``false`` disables the
  tier even when numpy is importable.
"""

from __future__ import annotations

import os

try:  # pragma: no cover - exercised indirectly by both CI tiers
    import numpy as np
except ImportError:  # pragma: no cover - the no-numpy CI job takes this path
    np = None

#: Environment variable controlling the vectorized tier.  Unset or any
#: value outside ``_OFF_VALUES`` means "use numpy when importable".
NUMPY_ENV_VAR = "REPRO_NUMPY"

_OFF_VALUES = {"0", "off", "false", "no"}


def numpy_available() -> bool:
    """``True`` when the numpy module imported successfully."""
    return np is not None


def numpy_enabled() -> bool:
    """Whether the vectorized kernel tier should be used for this call.

    Requires numpy to be importable *and* ``REPRO_NUMPY`` to not be set to
    an off value.  Read per call (not cached at import) so the tier can be
    toggled mid-process — the differential tests run both tiers in one
    interpreter and diff their outputs.
    """
    if np is None:
        return False
    return os.environ.get(NUMPY_ENV_VAR, "").strip().lower() not in _OFF_VALUES


def require_numpy(feature: str):
    """Return ``np`` or raise a loud error naming the missing ``feature``.

    For opt-in features where silently falling back would contradict an
    explicit request.
    """
    if np is None:
        from repro.exceptions import InvalidParameterError

        raise InvalidParameterError(
            f"{feature} requires numpy, which is not installed; "
            "install numpy or drop the explicit request to use the "
            "pure-Python fallback"
        )
    return np
