"""Exception hierarchy for the :mod:`repro` package.

All library-specific errors derive from :class:`ReproError` so callers can
catch a single base class.  The hierarchy is intentionally shallow: graph
construction problems, invalid algorithm inputs, and internal invariant
violations are the only failure classes the library distinguishes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the :mod:`repro` package."""


class GraphError(ReproError):
    """Raised when a graph is malformed (bad vertex ids, self loops, ...)."""


class InvalidParameterError(ReproError, ValueError):
    """Raised when an algorithm is called with invalid parameters.

    Examples include an empty source set, a source id outside the vertex
    range, or a non-positive sampling constant.
    """


class NotOnPathError(ReproError, KeyError):
    """Raised when a replacement-path query names an edge that is not on the
    canonical shortest path between the queried endpoints."""


class InternalInvariantError(ReproError, AssertionError):
    """Raised when an internal consistency check fails.

    The randomised algorithm is correct with high probability; when the
    optional self-verification mode detects a violation it raises this error
    instead of silently returning a wrong distance.
    """


class ServerStartupError(ReproError, RuntimeError):
    """Raised when an embedded query server fails to come up in time.

    :class:`~repro.serve.server.ServerThread` bounds how long it waits
    for the asyncio loop to bind its socket; a hang past that deadline
    surfaces as this typed error rather than a generic ``RuntimeError``.
    """


class ServerOverloadedError(ReproError):
    """Raised when the query server sheds a request due to load.

    The serving layer answers with HTTP 503 plus a ``Retry-After`` hint
    instead of queueing unboundedly; the client retries with backoff and
    raises this type once its retry budget is exhausted.
    """
