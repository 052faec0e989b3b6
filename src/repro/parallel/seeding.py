"""Deterministic, decorrelated child seeds for the sampling RNGs.

The MSRP algorithm consumes randomness in exactly one place — sampling the
landmark and center hierarchies — but its correctness lemmas (4, 9, 12, 18,
19 of the paper) assume those hierarchies are drawn *independently*.
Deriving both from ``random.Random(params.seed)`` therefore has to be done
carefully: two generators constructed from the **same** seed emit the same
stream, so sampling centers from a fresh ``Random(seed)`` after the
landmarks were sampled from another ``Random(seed)`` yields perfectly
correlated draws (the hierarchies come out identical), silently violating
the independence the analysis relies on.

:func:`derive_child_seed` gives every consumer its own stream: the child
seed is a tagged SHA-256 hash of the parent seed, so

* distinct tags produce statistically unrelated streams,
* the derivation is reproducible across runs, platforms and processes
  (``PYTHONHASHSEED`` does not affect it — no use of built-in ``hash``),
* ``None`` (fresh OS randomness) stays ``None``.

The same helper would seed per-source randomness in a task: a task that
needed randomness for source ``s`` would use
``child_rng(seed, "source", s)``, which does not depend on how the keys
are chunked.
"""

from __future__ import annotations

import hashlib
import random
from typing import Optional, Union

Tag = Union[str, int]


def derive_child_seed(seed: Optional[int], *tags: Tag) -> Optional[int]:
    """Derive a decorrelated child seed from ``seed`` via a tagged hash.

    Parameters
    ----------
    seed:
        The parent seed.  ``None`` means "fresh randomness" and is passed
        through unchanged (a child of a fresh stream is a fresh stream).
    tags:
        One or more strings/integers naming the consumer (e.g.
        ``("multisource", "centers")`` or ``("source", 17)``).  Different
        tags give independent streams; the same tags always give the same
        child seed.

    Returns
    -------
    Optional[int]
        A 63-bit non-negative integer seed, or ``None`` when ``seed`` is
        ``None``.
    """
    if seed is None:
        return None
    material = repr((int(seed), tags)).encode("utf-8")
    digest = hashlib.sha256(material).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def child_rng(seed: Optional[int], *tags: Tag) -> random.Random:
    """A ``random.Random`` seeded with :func:`derive_child_seed`."""
    return random.Random(derive_child_seed(seed, *tags))
