"""Near / far edge classification (paper Section 5).

For a fixed source ``s`` and target ``t`` the edges of the canonical
``s``-``t`` path are partitioned by their distance to ``t`` along the path:

* **near edges** are closer than ``2 sqrt(n / sigma) log n`` to ``t``;
* **k-far edges** lie in the window
  ``[2^{k+1} sqrt(n/sigma) log n, 2^{k+2} sqrt(n/sigma) log n]``.

The distance of an edge ``e = (p_i, p_{i+1})`` to ``t`` is the length of the
``p_{i+1} .. t`` sub-path (the paper's ``|et|``).  The classification drives
which candidate generator is responsible for producing the exact
replacement length: Section 7 (near) or Section 6 / Algorithm 3 (far).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.core.params import ProblemScale
from repro.graph.graph import Edge, normalize_edge

#: Marker for near edges.
NEAR = "near"
#: Marker for far edges.
FAR = "far"


@dataclass(frozen=True)
class ClassifiedEdge:
    """One edge of a canonical ``s``-``t`` path together with its class.

    Attributes
    ----------
    edge:
        The normalised edge ``(p_i, p_{i+1})``.
    index:
        Position ``i`` of the edge along the path (0 is incident to ``s``).
    distance_to_target:
        ``|e t|`` — number of path edges strictly between the edge and ``t``.
    kind:
        Either :data:`NEAR` or :data:`FAR`.
    far_level:
        The ``k`` for which the edge is ``k``-far; ``-1`` for near edges.
    """

    edge: Edge
    index: int
    distance_to_target: int
    kind: str
    far_level: int

    @property
    def is_near(self) -> bool:
        return self.kind == NEAR

    @property
    def is_far(self) -> bool:
        return self.kind == FAR


def classify_path_edges(
    path: Sequence[int], scale: ProblemScale
) -> List[ClassifiedEdge]:
    """Classify every edge of a canonical path as near or ``k``-far.

    Parameters
    ----------
    path:
        The canonical ``s``-``t`` path as a vertex list (``path[0] = s``).
    scale:
        Problem-scale quantities providing the thresholds.

    Returns
    -------
    list of ClassifiedEdge
        In path order (the edge incident to ``s`` first).
    """
    length = len(path) - 1
    classified: List[ClassifiedEdge] = []
    for i in range(length):
        edge = normalize_edge(path[i], path[i + 1])
        distance_to_target = length - (i + 1)
        if distance_to_target < scale.near_threshold:
            classified.append(
                ClassifiedEdge(edge, i, distance_to_target, NEAR, -1)
            )
        else:
            level = scale.far_level(distance_to_target)
            classified.append(
                ClassifiedEdge(edge, i, distance_to_target, FAR, level)
            )
    return classified
