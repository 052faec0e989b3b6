"""The ``REPRO_NUMPY`` flag that ``perfbench/bench.py`` reports.

No kernel reads the flag: REPRO006 bans numpy imports under
``src/repro`` and ``tests/test_product_imports.py`` checks at run time
that no ``repro`` module loads numpy.  What stays to pin is the flag
itself, which the benchmark still records.  The module skips itself
where numpy is not installed, because the flag is off there.
"""

from __future__ import annotations

import importlib.util

import pytest

from repro.graph import generators
from repro.graph.csr import bfs_distances_csr, ensure_csr
from repro.npsupport import NUMPY_ENV_VAR, numpy_enabled

pytestmark = pytest.mark.skipif(
    importlib.util.find_spec("numpy") is None, reason="numpy not installed"
)


def _force_tier(monkeypatch, enabled: bool) -> None:
    monkeypatch.setenv(NUMPY_ENV_VAR, "1" if enabled else "0")


class TestBfsTierEquality:
    def test_dispatch_honours_env_toggle(self, monkeypatch):
        """The tier gate re-reads the env var on every call; BFS ignores it."""
        graph = generators.gnp_random_graph(10, 0.3, seed=3)
        csr = ensure_csr(graph)
        _force_tier(monkeypatch, False)
        assert not numpy_enabled()
        off = bfs_distances_csr(csr, 0)
        _force_tier(monkeypatch, True)
        assert numpy_enabled()
        on = bfs_distances_csr(csr, 0)
        assert off == on
