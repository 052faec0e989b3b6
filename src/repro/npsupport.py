"""Optional numpy gating for the vectorized kernel tier.

numpy is an *optional* accelerator for this repository, and it backs two
kernels only: the CSR compile of the interned auxiliary graph
(``InternedAuxiliaryGraph._compile_np`` in :mod:`repro.rp.dijkstra`) and
the memory-mapped store load (:mod:`repro.store.format`).  Each keeps a
pure-Python twin (the established dual-substrate pattern), and the whole
pipeline must produce byte-identical output with and without numpy.  The
graph kernels (CSR BFS, subtree repair) and the Section 8 table builders
are pure Python on every tier, because vectorized twins of them did not
beat the pure code.  This module centralises the import guard and the
runtime switch so call sites never touch ``import numpy`` directly:

* ``np`` is the imported module, or ``None`` when numpy is not installed.
* :func:`numpy_enabled` is the per-call gate the kernels consult.  It is a
  function, not a constant, so tests (and operators) can flip the tier at
  runtime through the ``REPRO_NUMPY`` environment variable: ``0``/``off``/
  ``false`` forces the pure-Python tier even when numpy is importable.
  Because it reads the environment on every call, worker processes spawned
  by :mod:`repro.parallel` inherit the parent's choice automatically (the
  environment ships with the process), keeping sharded runs on one tier.

Vectorized kernels must never let numpy scalar types escape: distances,
table values and fingerprinted payloads re-enter identity-sensitive code
(``value is math.inf`` checks, pickled forms), so every kernel converts
results back to Python objects via ``.tolist()`` and re-canonicalises
infinities against the ``math.inf`` singleton before returning.
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

    For opt-in features (``--mmap on``) where silently falling back would
    contradict an explicit request.
    """
    if np is None:
        from repro.exceptions import InvalidParameterError

        raise InvalidParameterError(
            f"{feature} requires numpy, which is not installed; "
            "install numpy or drop the explicit request to use the "
            "pure-Python fallback"
        )
    return np
