"""Long-lived asyncio query server over a loaded oracle store.

The *query often* half of the serving split: ``repro-msrp serve --store
DIR`` loads a store once and then answers ``d(s, t, avoiding=e)`` point
queries, batched sweeps and status probes over HTTP for as long as the
process lives.  The implementation is stdlib-only (``asyncio.start_server``
plus a minimal HTTP/1.1 layer with keep-alive), so the serving tier adds no
dependencies to the container.

Endpoints
---------
``GET /status``
    Store header summary, uptime, query counters, LRU hit rate and two
    queries/sec figures: ``qps`` (lifetime average) and ``qps_recent``
    (sliding window over the last ``qps_window_seconds`` seconds — the
    lifetime average decays toward zero on a long-lived server, so the
    window is the honest load signal).
``GET /query?source=S&target=T&u=U&v=V``
    One replacement length.  The response encodes infinite lengths as
    ``{"length": null, "infinite": true}`` so the body stays strict JSON.
``POST /query``
    Batched sweep: body ``{"queries": [{"source", "target", "edge"}, ...]}``;
    each item resolves independently to an answer or an error object, so
    one bad query does not fail the batch.  Ids must be JSON integers.
``GET /sweep?source=S&u=U&v=V``
    The full ``(source, edge)`` slice: replacement lengths for every
    vertex, served straight from the LRU.

Caching
-------
Answers are grouped by ``(source, edge)`` *slice*: the per-target lengths
for one failed edge seen from one source.  A point query materialises its
slice once (:meth:`~repro.core.result.ReplacementPathResult.sweep`) and
the LRU keeps the hottest slices resident, so repeated traffic against a hot
``(source, edge)`` pair — the access pattern of an incident analysis, where
one failure is probed against many destinations — degenerates to a dict
lookup per query.  ``/status`` reports the cache's hits, misses and hit
rate, which the benchmark (``perfbench/``) reads as its hit-rate and
slice-build rows.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import math
import signal
import time
from collections import OrderedDict
from operator import index as _vertex_id
from typing import Dict, List, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.core.result import ReplacementPathResult
from repro.exceptions import (
    InvalidParameterError,
    ReproError,
    ServerStartupError,
)
from repro.faults.harness import connection_action
from repro.graph.graph import Edge, normalize_edge
from repro.store.format import (
    FORMAT_VERSION,
    StoreHeader,
    graph_fingerprint,
    load_store,
)

#: Default LRU capacity (hot (source, edge) slices kept resident).
DEFAULT_LRU_SLICES = 256
#: Largest request body the server will read (1 MiB).
MAX_BODY_BYTES = 1 << 20
#: Default ceiling on concurrently served connections; past it the server
#: sheds load with 503 + ``Retry-After`` instead of queueing unboundedly.
DEFAULT_MAX_CONNECTIONS = 64
#: Default bound on reading one request's headers+body (seconds); a
#: client that stalls mid-request gets 408 and the connection closed.
DEFAULT_READ_TIMEOUT = 30.0
#: ``Retry-After`` hint (seconds) attached to shed responses.
DEFAULT_RETRY_AFTER = 1.0

_JSON_HEADERS = "Content-Type: application/json\r\n"

#: Default span of the sliding-window query rate reported by ``/status``.
DEFAULT_RATE_WINDOW_SECONDS = 30


class RateWindow:
    """Sliding-window event rate: queries/sec over the last ``window`` s.

    The lifetime average (``total / uptime``) decays toward zero on a
    long-lived server no matter how busy it is *right now*; this ring of
    per-second buckets answers "how busy in the last N seconds" instead.
    ``note()`` is O(1); ``rate()`` sums at most ``window`` buckets.  The
    clock is injectable so tests can drive time deterministically.
    """

    def __init__(
        self,
        window: int = DEFAULT_RATE_WINDOW_SECONDS,
        clock=time.monotonic,
    ):
        if window < 1:
            raise InvalidParameterError(
                f"rate window must be at least 1 second, got {window}"
            )
        self.window = window
        self._clock = clock
        self._counts = [0] * window
        #: absolute second each ring slot currently describes; a slot is
        #: lazily reset when ``note`` revisits it in a later second, and
        #: ``rate`` ignores slots outside the window, so no timer is needed.
        self._seconds: List[Optional[int]] = [None] * window

    def note(self, count: int = 1) -> None:
        """Record ``count`` events at the current clock second."""
        now = int(self._clock())
        slot = now % self.window
        if self._seconds[slot] != now:
            self._seconds[slot] = now
            self._counts[slot] = 0
        self._counts[slot] += count

    def rate(self) -> float:
        """Events per second over the trailing window (inclusive of now)."""
        now = int(self._clock())
        total = 0
        for second, count in zip(self._seconds, self._counts):
            if second is not None and now - self.window < second <= now:
                total += count
        return total / self.window


class SliceCache:
    """LRU over ``(source, edge) -> lengths by target`` slices."""

    def __init__(self, capacity: int = DEFAULT_LRU_SLICES):
        if capacity < 0:
            raise InvalidParameterError("LRU capacity must be non-negative")
        self.capacity = capacity
        self._slices: "OrderedDict[Tuple[int, Edge], List[float]]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._slices)

    def get(self, key: Tuple[int, Edge]) -> Optional[List[float]]:
        entry = self._slices.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._slices.move_to_end(key)
        self.hits += 1
        return entry

    def put(self, key: Tuple[int, Edge], value: List[float]) -> None:
        if self.capacity == 0:
            return
        self._slices[key] = value
        self._slices.move_to_end(key)
        while len(self._slices) > self.capacity:
            self._slices.popitem(last=False)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class OracleService:
    """Query façade over a loaded result: validation, slices, counters.

    Transport-agnostic on purpose — the asyncio HTTP server below, the
    test-suite and the QPS benchmark all drive the same object.
    """

    def __init__(
        self,
        result: ReplacementPathResult,
        header: Optional[StoreHeader] = None,
        lru_slices: int = DEFAULT_LRU_SLICES,
        rate_window: Optional[RateWindow] = None,
    ):
        self.result = result
        self.header = header
        self.cache = SliceCache(lru_slices)
        self.rate_window = rate_window if rate_window is not None else RateWindow()
        self.started_at = time.time()
        self.point_queries = 0
        self.sweep_queries = 0
        self._sources = frozenset(result.sources)
        # Identity block for /status: clients assert they are talking to
        # the intended oracle (fingerprint + format version) before
        # trusting answers.  Without a store header the fingerprint is
        # recomputed from the attached graph and the version is this
        # build's writer version.
        if header is not None and header.fingerprint:
            self.graph_fingerprint: Optional[str] = header.fingerprint
        elif result.graph is not None:
            self.graph_fingerprint = graph_fingerprint(result.graph)
        else:
            self.graph_fingerprint = None
        self.format_version = (
            header.format_version if header is not None else FORMAT_VERSION
        )

    # -- query surface -----------------------------------------------------

    def _slice(self, source: int, edge: Edge) -> List[float]:
        """The per-target lengths of one ``(source, edge)`` pair, cached."""
        key = (source, edge)
        lengths = self.cache.get(key)
        if lengths is None:
            lengths = self.result.sweep(source, edge)
            self.cache.put(key, lengths)
        return lengths

    def _require_source(self, source: int) -> int:
        s = _vertex_id(source)
        if s not in self._sources:
            raise InvalidParameterError(
                f"{s} is not one of the served sources {sorted(self._sources)}"
            )
        return s

    def _require_vertex(self, value: int, role: str) -> int:
        v = _vertex_id(value)
        graph = self.result.graph
        if graph is None:
            # Without the graph there is no vertex range to check against;
            # say that, instead of the nonsense "range 0..-1" a zero
            # default used to produce.
            raise InvalidParameterError(
                f"cannot validate {role} {v}: the served result "
                "carries no graph, so vertex ids cannot be checked; "
                "rebuild the store from a result with its graph attached"
            )
        n = graph.num_vertices
        if not 0 <= v < n:
            raise InvalidParameterError(
                f"{role} {v} is outside the vertex range 0..{n - 1}"
            )
        return v

    def point_query(self, source: int, target: int, edge) -> float:
        """``d(source, target, avoiding=edge)`` via the slice cache."""
        source = self._require_source(source)
        target = self._require_vertex(target, "target")
        # Full edge validation first (the store always carries the graph),
        # so a cached slice can never mask a non-edge query.
        e = self.result.require_edge(edge)
        self.point_queries += 1
        self.rate_window.note()
        return self._slice(source, e)[target]

    def sweep(self, source: int, edge) -> List[float]:
        """All targets' replacement lengths for one ``(source, edge)``."""
        source = self._require_source(source)
        e = self.result.require_edge(edge)
        self.sweep_queries += 1
        self.rate_window.note()
        return self._slice(source, e)

    # -- status ------------------------------------------------------------

    def status(self) -> Dict[str, object]:
        uptime = time.time() - self.started_at
        total = self.point_queries + self.sweep_queries
        return {
            "store": self.header.summary() if self.header else None,
            "graph_fingerprint": self.graph_fingerprint,
            "format_version": self.format_version,
            "sources": list(self.result.sources),
            "output_entries": self.result.output_size,
            "uptime_seconds": uptime,
            "point_queries": self.point_queries,
            "sweep_queries": self.sweep_queries,
            # Lifetime average (kept for continuity) decays toward zero on
            # a long-lived server; qps_recent is the honest load signal.
            "qps": total / uptime if uptime > 0 else 0.0,
            "qps_recent": self.rate_window.rate(),
            "qps_window_seconds": self.rate_window.window,
            "cache": {
                "slices": len(self.cache),
                "capacity": self.cache.capacity,
                "hits": self.cache.hits,
                "misses": self.cache.misses,
                "hit_rate": self.cache.hit_rate,
            },
        }


def _encode_length(value: float) -> Dict[str, object]:
    """Strict-JSON encoding of one answer (``inf`` -> null + flag)."""
    if value == math.inf:
        return {"length": None, "infinite": True}
    return {"length": value, "infinite": False}


class QueryServer:
    """Minimal asyncio HTTP/1.1 server around an :class:`OracleService`.

    Robustness posture (see ``docs/robustness.md``):

    * **Load shedding** — at most ``max_connections`` connections are
      served concurrently; excess connections get an immediate 503 with a
      ``Retry-After`` hint and are closed, instead of queueing without
      bound (the :class:`~repro.serve.client.QueryClient` honours the
      hint with backoff).
    * **Read timeouts** — a client that stalls mid-request (slowloris,
      dead peer) is answered with 408 after ``read_timeout`` seconds and
      disconnected.
    * **Graceful drain** — :meth:`drain` stops accepting, lets in-flight
      requests finish (bounded), then closes every connection;
      :func:`serve_store` wires it to SIGTERM/SIGINT so containerised
      runs stop without dropping responses mid-write.
    """

    def __init__(
        self,
        service: OracleService,
        host: str = "127.0.0.1",
        port: int = 8351,
        max_connections: int = DEFAULT_MAX_CONNECTIONS,
        read_timeout: Optional[float] = DEFAULT_READ_TIMEOUT,
        retry_after: float = DEFAULT_RETRY_AFTER,
    ):
        if max_connections < 1:
            raise InvalidParameterError(
                f"max_connections must be at least 1, got {max_connections}"
            )
        self.service = service
        self.host = host
        self.port = port
        self.max_connections = max_connections
        self.read_timeout = read_timeout
        self.retry_after = retry_after
        self.requests_shed = 0
        self.requests_timed_out = 0
        self.connections_dropped = 0
        self._server: Optional[asyncio.AbstractServer] = None
        self._draining = False
        self._accepted = 0
        #: live connections, so stop() can close them and let their
        #: handler tasks drain via EOF (cancelling stream-handler tasks
        #: is noisy on 3.11: the protocol's done-callback re-raises).
        self._connections: set = set()
        #: handler tasks; entries leave via done-callback, so stop() sees
        #: a handler that is mid-teardown and can await its completion.
        self._tasks: set = set()
        #: handler tasks currently processing a request (between reading a
        #: request line and writing its response); what drain() waits on.
        self._busy: set = set()

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Bind the listening socket (``port=0`` picks an ephemeral port)."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        async with self._server:
            await self._server.serve_forever()

    async def drain(self, timeout: float = 10.0) -> bool:
        """Graceful shutdown: stop accepting, finish in-flight, close.

        Returns ``True`` when every in-flight request completed within
        ``timeout``; ``False`` means the deadline expired and the
        stragglers were disconnected.  Idle keep-alive connections are
        closed outright (there is no response in flight to lose).
        """
        self._draining = True
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        while self._busy and loop.time() < deadline:
            await asyncio.sleep(0.01)
        drained = not self._busy
        for writer in list(self._connections):
            writer.close()
        tasks = list(self._tasks)
        if tasks:
            await asyncio.wait(
                tasks, timeout=max(0.0, deadline - loop.time()) + 0.5
            )
        return drained

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for writer in list(self._connections):
            writer.close()
        tasks = list(self._tasks)
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)

    # -- HTTP plumbing -----------------------------------------------------

    async def _read_bounded(self, coro, timeout: Optional[float]):
        """Await a stream read under the given timeout (``None`` = none)."""
        if timeout is None:
            return await coro
        return await asyncio.wait_for(coro, timeout)

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)
        connection_index = self._accepted
        self._accepted += 1
        fault = connection_action(connection_index)
        if fault is not None and fault.kind == "drop_connection":
            # Injected network fault: vanish without a response, exactly
            # like a reset mid-handshake looks to the client.
            self.connections_dropped += 1
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()
            return
        if self._draining or len(self._connections) >= self.max_connections:
            self.requests_shed += 1
            with contextlib.suppress(
                ConnectionResetError, BrokenPipeError, OSError
            ):
                await self._respond(
                    writer,
                    503,
                    {
                        "error": (
                            "server is draining"
                            if self._draining
                            else (
                                f"server is at its connection limit "
                                f"({self.max_connections}); retry shortly"
                            )
                        ),
                        "type": "ServerOverloadedError",
                    },
                    retry_after=self.retry_after,
                )
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()
            return
        self._connections.add(writer)
        try:
            while True:
                request_line = await reader.readline()
                if not request_line or request_line in (b"\r\n", b"\n"):
                    break
                self._busy.add(task)
                try:
                    finished = await self._handle_request(
                        reader, writer, request_line, fault
                    )
                finally:
                    self._busy.discard(task)
                fault = None  # injected delays apply to the first request only
                if not finished or self._draining:
                    break
        except (
            asyncio.IncompleteReadError,
            ConnectionResetError,
            BrokenPipeError,
        ):
            pass
        finally:
            self._connections.discard(writer)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
                pass

    async def _handle_request(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        request_line: bytes,
        fault,
    ) -> bool:
        """Read, dispatch and answer one request.

        Returns ``True`` when the connection may serve another request,
        ``False`` when it must close (protocol error, timeout,
        ``Connection: close``).  Header and body reads are bounded by
        ``read_timeout`` — a stalled client gets 408, not a leaked task.
        """
        try:
            method, raw_path, _version = (
                request_line.decode("latin-1").strip().split(" ", 2)
            )
        except ValueError:
            await self._respond(writer, 400, {"error": "malformed request line"})
            return False
        try:
            headers: Dict[str, str] = {}
            while True:
                line = await self._read_bounded(
                    reader.readline(), self.read_timeout
                )
                if line in (b"\r\n", b"\n", b""):
                    break
                name, _, value = line.decode("latin-1").partition(":")
                headers[name.strip().lower()] = value.strip()
            body = b""
            raw_length = headers.get("content-length") or "0"
            if not (raw_length.isascii() and raw_length.isdigit()):
                await self._respond(
                    writer,
                    400,
                    {
                        "error": f"malformed Content-Length {raw_length!r}",
                        "type": "InvalidParameterError",
                    },
                )
                return False
            length = int(raw_length)
            if length:
                if length > MAX_BODY_BYTES:
                    await self._respond(
                        writer, 413, {"error": "request body too large"}
                    )
                    return False
                body = await self._read_bounded(
                    reader.readexactly(length), self.read_timeout
                )
        except asyncio.TimeoutError:
            self.requests_timed_out += 1
            await self._respond(
                writer,
                408,
                {
                    "error": (
                        f"timed out reading the request after "
                        f"{self.read_timeout}s"
                    ),
                    "type": "RequestTimeout",
                },
            )
            return False
        if fault is not None and fault.kind == "delay_connection":
            # Injected slow request: stall mid-processing so the chaos
            # battery can observe graceful drain waiting on it.
            await asyncio.sleep(fault.seconds)
        keep_alive = headers.get("connection", "keep-alive").lower() != "close"
        keep_alive = keep_alive and not self._draining
        status, payload = self._dispatch(method, raw_path, body)
        await self._respond(writer, status, payload, keep_alive=keep_alive)
        return keep_alive

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: Dict[str, object],
        keep_alive: bool = False,
        retry_after: Optional[float] = None,
    ) -> None:
        reason = {200: "OK", 400: "Bad Request", 404: "Not Found",
                  405: "Method Not Allowed", 408: "Request Timeout",
                  413: "Payload Too Large", 500: "Internal Server Error",
                  503: "Service Unavailable"}.get(status, "OK")
        body = json.dumps(payload).encode("utf-8")
        extra = ""
        if retry_after is not None:
            extra = f"Retry-After: {max(1, math.ceil(retry_after))}\r\n"
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            f"{_JSON_HEADERS}"
            f"Content-Length: {len(body)}\r\n"
            f"{extra}"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
            "\r\n"
        ).encode("latin-1")
        writer.write(head + body)
        await writer.drain()

    # -- routing -----------------------------------------------------------

    def _dispatch(
        self, method: str, raw_path: str, body: bytes
    ) -> Tuple[int, Dict[str, object]]:
        parts = urlsplit(raw_path)
        path = parts.path
        try:
            if path == "/status":
                if method != "GET":
                    return 405, {"error": f"{method} not allowed on {path}"}
                status = self.service.status()
                status["server"] = {
                    "connections": len(self._connections),
                    "max_connections": self.max_connections,
                    "draining": self._draining,
                    "requests_shed": self.requests_shed,
                    "requests_timed_out": self.requests_timed_out,
                }
                return 200, status
            if path == "/query" and method == "GET":
                return self._point_query(parse_qs(parts.query))
            if path == "/query" and method == "POST":
                return self._batch_query(body)
            if path == "/sweep":
                if method != "GET":
                    return 405, {"error": f"{method} not allowed on {path}"}
                return self._sweep(parse_qs(parts.query))
            return 404, {"error": f"unknown path {path!r}"}
        except ReproError as exc:
            return 400, {"error": str(exc), "type": type(exc).__name__}
        except Exception as exc:  # pragma: no cover - defensive catch-all
            return 500, {"error": str(exc), "type": type(exc).__name__}

    @staticmethod
    def _int_param(params: Dict[str, List[str]], name: str) -> int:
        values = params.get(name)
        if not values:
            raise InvalidParameterError(f"missing query parameter {name!r}")
        try:
            return int(values[0])
        except ValueError:
            raise InvalidParameterError(
                f"query parameter {name!r} must be an integer, got {values[0]!r}"
            ) from None

    def _point_query(self, params) -> Tuple[int, Dict[str, object]]:
        source = self._int_param(params, "source")
        target = self._int_param(params, "target")
        u = self._int_param(params, "u")
        v = self._int_param(params, "v")
        value = self.service.point_query(source, target, (u, v))
        answer: Dict[str, object] = {
            "source": source,
            "target": target,
            "edge": list(normalize_edge(u, v)),
        }
        answer.update(_encode_length(value))
        return 200, answer

    def _batch_query(self, body: bytes) -> Tuple[int, Dict[str, object]]:
        try:
            request = json.loads(body.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise InvalidParameterError(f"malformed JSON body: {exc}") from exc
        queries = request.get("queries") if isinstance(request, dict) else None
        if not isinstance(queries, list):
            raise InvalidParameterError(
                'POST /query body must be {"queries": [...]}'
            )
        results: List[Dict[str, object]] = []
        for item in queries:
            try:
                ids = (item["source"], item["target"], *item["edge"])
                source, target, u, v = ids
                # true is not target 1, and 3.7 is not target 3.
                if any(type(value) is not int for value in ids):
                    raise InvalidParameterError("ids must be JSON integers")
            except (KeyError, TypeError, ValueError) as exc:
                results.append(
                    {"error": f"malformed query {item!r}: {exc}",
                     "type": "InvalidParameterError"}
                )
                continue
            try:
                value = self.service.point_query(source, target, (u, v))
            except ReproError as exc:
                results.append({"error": str(exc), "type": type(exc).__name__})
                continue
            answer: Dict[str, object] = {
                "source": source,
                "target": target,
                "edge": list(normalize_edge(u, v)),
            }
            answer.update(_encode_length(value))
            results.append(answer)
        return 200, {"results": results}

    def _sweep(self, params) -> Tuple[int, Dict[str, object]]:
        source = self._int_param(params, "source")
        u = self._int_param(params, "u")
        v = self._int_param(params, "v")
        lengths = self.service.sweep(source, (u, v))
        return 200, {
            "source": source,
            "edge": list(normalize_edge(u, v)),
            "lengths": [
                [target, None if value == math.inf else value]
                for target, value in enumerate(lengths)
            ],
        }


def make_server(
    store_dir: str,
    host: str = "127.0.0.1",
    port: int = 8351,
    lru_slices: int = DEFAULT_LRU_SLICES,
    **server_kwargs,
) -> QueryServer:
    """Load ``store_dir`` and wrap it in an unstarted :class:`QueryServer`.

    The store is loaded through a read-only map of ``segments.bin`` (see
    :func:`repro.store.load_store`).  Extra keyword arguments
    (``max_connections``, ``read_timeout``, ...) pass through to
    :class:`QueryServer`.
    """
    result, header = load_store(store_dir)
    service = OracleService(result, header, lru_slices=lru_slices)
    return QueryServer(service, host=host, port=port, **server_kwargs)


def serve_store(
    store_dir: str,
    host: str = "127.0.0.1",
    port: int = 8351,
    lru_slices: int = DEFAULT_LRU_SLICES,
    drain_timeout: float = 10.0,
    **server_kwargs,
) -> int:
    """Blocking entry point used by ``repro-msrp serve``.

    Loads the store, prints one line describing what is being served, and
    runs the event loop until SIGTERM or SIGINT, then drains gracefully:
    the listener closes first, in-flight requests get up to
    ``drain_timeout`` seconds to finish, and only then does the process
    exit — so ``kill <pid>`` (the container runtime's stop signal) never
    clips a response mid-write.
    """
    server = make_server(
        store_dir,
        host=host,
        port=port,
        lru_slices=lru_slices,
        **server_kwargs,
    )
    header = server.service.header
    print(
        f"serving store {store_dir} "
        f"(n={header.num_vertices}, m={header.num_edges}, "
        f"sources={header.sources}) on http://{host}:{port}"
    )

    async def _run() -> None:
        await server.start()
        print(f"listening on http://{server.host}:{server.port}", flush=True)
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, stop.set)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass  # non-Unix loop: fall back to KeyboardInterrupt below
        serve_task = asyncio.ensure_future(server.serve_forever())
        stop_task = asyncio.ensure_future(stop.wait())
        try:
            await asyncio.wait(
                [serve_task, stop_task], return_when=asyncio.FIRST_COMPLETED
            )
        finally:
            stop_task.cancel()
            await server.drain(drain_timeout)
            serve_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await serve_task

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:  # pragma: no cover - non-Unix fallback
        pass
    print("shutting down")
    return 0


class ServerThread:
    """A :class:`QueryServer` running on a daemon thread's event loop.

    Tests and the QPS benchmark need a live HTTP endpoint in-process; this
    helper owns the loop/thread pair and tears both down on ``stop()``.
    Use as a context manager::

        with ServerThread.from_store(store_dir) as handle:
            client = QueryClient(port=handle.port)
    """

    def __init__(self, server: QueryServer):
        import threading

        self._server = server
        self._loop = asyncio.new_event_loop()
        self._started = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self._thread = threading.Thread(target=self._run, daemon=True)

    @classmethod
    def from_store(
        cls,
        store_dir: str,
        lru_slices: int = DEFAULT_LRU_SLICES,
        **server_kwargs,
    ) -> "ServerThread":
        return cls(
            make_server(store_dir, port=0, lru_slices=lru_slices, **server_kwargs)
        )

    @classmethod
    def from_result(
        cls,
        result: ReplacementPathResult,
        header: Optional[StoreHeader] = None,
        lru_slices: int = DEFAULT_LRU_SLICES,
        **server_kwargs,
    ) -> "ServerThread":
        service = OracleService(result, header, lru_slices=lru_slices)
        return cls(QueryServer(service, port=0, **server_kwargs))

    def _run(self) -> None:
        asyncio.set_event_loop(self._loop)
        try:
            self._loop.run_until_complete(self._server.start())
        except BaseException as exc:
            # Surface bind failures (address in use, bad host) to the
            # caller's thread instead of a generic startup timeout.
            self._startup_error = exc
            self._started.set()
            self._loop.close()
            return
        self._started.set()
        try:
            self._loop.run_forever()
        finally:
            self._loop.run_until_complete(self._server.stop())
            self._loop.close()

    def start(self) -> "ServerThread":
        self._thread.start()
        if not self._started.wait(timeout=10):
            raise ServerStartupError("query server failed to start within 10s")
        if self._startup_error is not None:
            self._thread.join(timeout=10)
            raise self._startup_error
        return self

    def drain(self, timeout: float = 10.0) -> bool:
        """Run :meth:`QueryServer.drain` on the server's loop and wait."""
        future = asyncio.run_coroutine_threadsafe(
            self._server.drain(timeout), self._loop
        )
        return future.result(timeout + 5.0)

    @property
    def host(self) -> str:
        return self._server.host

    @property
    def port(self) -> int:
        return self._server.port

    @property
    def server(self) -> QueryServer:
        return self._server

    @property
    def service(self) -> OracleService:
        return self._server.service

    def stop(self) -> None:
        if self._thread.is_alive():
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=10)

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
