"""HTTP client for the oracle query server (``repro-msrp query``/``status``).

A thin ``APIClient``-style wrapper (modelled on the PrimeIntellect client
pattern) over :mod:`http.client`: one persistent keep-alive connection,
JSON in/out, and server-side :class:`~repro.exceptions.ReproError`
subclasses re-raised locally as the same exception types — a client that
asks for a non-edge gets the same :class:`InvalidParameterError` it would
get from an in-process :class:`~repro.core.result.ReplacementPathResult`.

Every returned length is re-canonicalised onto the ``math.inf`` singleton,
so values fetched over the wire are ``is math.inf``-indistinguishable from
an in-process solve — the same invariant the parallel layer maintains for
pickled results.

Retries
-------
Transient failures are retried with seeded exponential backoff + jitter
(``retries`` attempts, delays derived from ``retry_seed`` via
:func:`repro.parallel.seeding.child_rng`, so a chaos run replays the exact
same schedule).  The policy is deliberately asymmetric:

* network errors (refused, reset, dropped mid-flight) are retried for
  **GET only** — a broken POST may already have been processed, and
  replaying it is not the client's call to make;
* HTTP 503 (load shed / draining) is retried for **every** method,
  honouring the server's ``Retry-After`` hint — shedding happens before
  the request is read, so nothing was processed;
* a stale keep-alive connection gets one free immediate reconnect for any
  method: the server reaped the idle connection *between* requests, so the
  new request never reached it.
"""

from __future__ import annotations

import http.client
import json
import math
import operator
import time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple
from urllib.parse import urlencode

from repro.exceptions import (
    InvalidParameterError,
    NotOnPathError,
    ReproError,
    ServerOverloadedError,
)
from repro.parallel.seeding import child_rng

#: Server-reported exception type -> local class, so remote validation
#: errors raise identically to in-process ones.
_REMOTE_TYPES = {
    "InvalidParameterError": InvalidParameterError,
    "NotOnPathError": NotOnPathError,
    "ServerOverloadedError": ServerOverloadedError,
}

#: Transport-level failures eligible for reconnect/retry.  JSON decode
#: errors belong here: a half-written response body is a truncated
#: connection, not a server answer.
_NETWORK_ERRORS = (
    OSError,
    http.client.HTTPException,
    json.JSONDecodeError,
    UnicodeDecodeError,
)


class RemoteQueryError(ReproError):
    """An error reported by the query server that has no local mapping."""


def _decode_length(payload: Dict[str, object]) -> float:
    if payload.get("infinite"):
        return math.inf
    value = payload.get("length")
    # Re-canonicalise: json produces fresh float objects, and a value that
    # happens to equal inf must become *the* singleton.
    return math.inf if value == math.inf else float(value)


def _vertex_id(value: object) -> int:
    """``value`` as a plain ``int`` id, refused the way the server refuses it.

    ``True`` is not vertex 1 and ``3.7`` is not vertex 3: a ``bool`` or
    anything ``operator.index`` rejects raises
    :class:`InvalidParameterError` before a request is sent.
    """
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise InvalidParameterError(f"vertex ids must be integers, got {value!r}")


def _raise_remote(payload: Dict[str, object], status: int) -> None:
    message = payload.get("error", f"server returned HTTP {status}")
    cls = _REMOTE_TYPES.get(payload.get("type"), RemoteQueryError)
    raise cls(message)


class QueryClient:
    """Persistent-connection client for one query server.

    Parameters
    ----------
    host, port:
        The serving endpoint (``repro-msrp serve`` prints both).
    timeout:
        Per-request socket timeout in seconds.
    retries:
        How many failed attempts to retry (0 disables retries; the first
        attempt is always made).  Applies to GET network errors and to 503
        responses on any method — see the module docstring for the policy.
    backoff, backoff_max:
        Exponential backoff base and ceiling (seconds): attempt ``k``
        sleeps ``min(backoff_max, backoff * 2**k)`` scaled by jitter in
        ``[0.5, 1.0)``.
    retry_seed:
        Seed for the jitter stream (``None`` = fresh OS randomness).  A
        fixed seed makes the retry schedule byte-reproducible, which is
        what lets the chaos battery assert on it.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8351,
        timeout: float = 10.0,
        retries: int = 3,
        backoff: float = 0.05,
        backoff_max: float = 2.0,
        retry_seed: Optional[int] = None,
    ):
        if retries < 0:
            raise InvalidParameterError(
                f"retries must be non-negative, got {retries}"
            )
        if backoff <= 0 or backoff_max <= 0:
            raise InvalidParameterError(
                "backoff and backoff_max must be positive, got "
                f"{backoff} and {backoff_max}"
            )
        self.host = host
        self.port = port
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.backoff_max = backoff_max
        self._rng = child_rng(retry_seed, "serve", "client-backoff", host, port)
        self.retries_performed = 0
        self.reconnects = 0
        self._conn: Optional[http.client.HTTPConnection] = None

    # -- plumbing ----------------------------------------------------------

    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
        return self._conn

    def _backoff_delay(self, attempt: int) -> float:
        """Jittered exponential delay before retry number ``attempt``."""
        base = min(self.backoff_max, self.backoff * (2 ** attempt))
        return base * (0.5 + 0.5 * self._rng.random())

    def _request(
        self, method: str, path: str, body: Optional[bytes] = None
    ) -> Dict[str, object]:
        headers = {"Connection": "keep-alive"}
        if body is not None:
            headers["Content-Type"] = "application/json"
        attempts = 0
        reconnected = False
        while True:
            had_connection = self._conn is not None
            try:
                conn = self._connection()
                conn.request(method, path, body=body, headers=headers)
                response = conn.getresponse()
                raw = response.read()
                status = response.status
                retry_after = response.getheader("Retry-After")
                payload = json.loads(raw.decode("utf-8"))
            except _NETWORK_ERRORS as exc:
                self.close()
                if had_connection and not reconnected:
                    # The server reaped an idle keep-alive connection
                    # between requests; the fresh request never reached
                    # it, so one immediate reconnect is safe for any
                    # method.
                    reconnected = True
                    self.reconnects += 1
                    continue
                if method == "GET" and attempts < self.retries:
                    self.retries_performed += 1
                    time.sleep(self._backoff_delay(attempts))
                    attempts += 1
                    continue
                raise RemoteQueryError(
                    f"query server at {self.host}:{self.port} unreachable "
                    f"after {attempts + 1} attempt(s): {exc}"
                ) from exc
            if status == 503 and attempts < self.retries:
                # Load shed / draining: the server answered before reading
                # the request, so nothing was processed — safe to retry
                # even for POST.  The server also closed the connection.
                self.close()
                delay = self._backoff_delay(attempts)
                if retry_after is not None:
                    try:
                        delay = max(delay, min(float(retry_after), self.backoff_max))
                    except ValueError:
                        pass
                self.retries_performed += 1
                time.sleep(delay)
                attempts += 1
                continue
            if status != 200:
                _raise_remote(payload, status)
            return payload

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "QueryClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- API ---------------------------------------------------------------

    def status(self) -> Dict[str, object]:
        """The server's ``/status`` block (store header, uptime, hit rate)."""
        return self._request("GET", "/status")

    def query(self, source: int, target: int, edge: Sequence[int]) -> float:
        """``d(source, target, avoiding=edge)`` from the served store."""
        params = urlencode(
            {"source": _vertex_id(source), "target": _vertex_id(target),
             "u": _vertex_id(edge[0]), "v": _vertex_id(edge[1])}
        )
        return _decode_length(self._request("GET", f"/query?{params}"))

    def query_batch(
        self, queries: Iterable[Tuple[int, int, Sequence[int]]]
    ) -> List[float]:
        """Batched point queries; raises on the first failed item."""
        body = json.dumps(
            {
                "queries": [
                    {"source": _vertex_id(s), "target": _vertex_id(t),
                     "edge": [_vertex_id(e[0]), _vertex_id(e[1])]}
                    for s, t, e in queries
                ]
            }
        ).encode("utf-8")
        payload = self._request("POST", "/query", body=body)
        answers: List[float] = []
        for item in payload["results"]:
            if "error" in item:
                _raise_remote(item, 400)
            answers.append(_decode_length(item))
        return answers

    def sweep(self, source: int, edge: Sequence[int]) -> Dict[int, float]:
        """All targets' replacement lengths for one ``(source, edge)``."""
        params = urlencode(
            {"source": _vertex_id(source), "u": _vertex_id(edge[0]),
             "v": _vertex_id(edge[1])}
        )
        payload = self._request("GET", f"/sweep?{params}")
        return {
            int(target): (math.inf if value is None else float(value))
            for target, value in payload["lengths"]
        }
