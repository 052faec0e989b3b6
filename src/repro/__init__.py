"""repro — reference implementation of the Multiple Source Replacement Path
algorithm of Gupta, Jain and Modi (PODC 2020, arXiv:2005.09262).

The package is organised in layers:

* :mod:`repro.graph` — graph container, BFS, shortest-path trees with
  preorder-span tree queries, subtree repair and workload generators
  (the substrates the paper assumes).
* :mod:`repro.rp` — classical single-pair replacement paths and brute-force
  oracles.
* :mod:`repro.core` — the paper's SSRP/MSRP pipeline (Sections 5-7).
* :mod:`repro.multisource` — the Section 8 machinery that computes
  source-to-landmark replacement paths in ``O~(m sqrt(n sigma) + sigma n^2)``.
* :mod:`repro.parallel` — keyed execution of the per-source phases on
  one in-process executor, with a checkpoint journal for resumable
  solves (``AlgorithmParams.checkpoint``).
* :mod:`repro.store`, :mod:`repro.serve` — the on-disk result store and the
  HTTP server that answers the paper's ``QUERY(x, y, e)`` from it
  (in process, :meth:`ReplacementPathResult.replacement_length`).
* :mod:`repro.lowerbound` — the Section 9 reduction from Boolean matrix
  multiplication.
* :mod:`repro.baselines`, :mod:`repro.analysis` — baselines and runtime
  model fitting used by the benchmark harness.

The top-level namespace re-exports the public API most users need.
"""

from repro.core.msrp import multiple_source_replacement_paths
from repro.core.params import AlgorithmParams
from repro.core.result import ReplacementPathResult
from repro.core.ssrp import single_source_replacement_paths
from repro.graph.graph import Graph
from repro.graph import generators
from repro.rp.single_pair import replacement_paths

__all__ = [
    "Graph",
    "generators",
    "AlgorithmParams",
    "ReplacementPathResult",
    "replacement_paths",
    "single_source_replacement_paths",
    "multiple_source_replacement_paths",
]

__version__ = "1.0.0"
