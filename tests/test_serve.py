"""End-to-end tests for the asyncio query server and its client.

A real store is written to disk, a real server is started on an ephemeral
port, and a real HTTP client queries it — the full
``preprocess -> store -> serve -> query`` lifecycle in-process.  The
contract under test is the serving layer's version of byte-identical
parallelism: every answer fetched over the wire equals the in-process
solve's answer, with infinite lengths arriving as *the* ``math.inf``
singleton.
"""

from __future__ import annotations

import json
import math
import socket
import urllib.request

import pytest

from repro.core.msrp import MSRPSolver
from repro.core.params import AlgorithmParams
from repro.exceptions import InvalidParameterError
from repro.graph import generators
from repro.serve import QueryClient, RemoteQueryError, ServerThread, SliceCache
from repro.store import FORMAT_VERSION, write_store


@pytest.fixture(scope="module")
def instance():
    graph = generators.random_connected_graph(24, extra_edges=26, seed=11)
    sources = generators.random_sources(graph, 3, seed=11)
    solver = MSRPSolver(
        graph,
        sources,
        params=AlgorithmParams(seed=11),
        landmark_strategy="auxiliary",
    )
    return graph, solver, solver.solve()


@pytest.fixture(scope="module")
def served(instance, tmp_path_factory):
    graph, solver, result = instance
    directory = str(tmp_path_factory.mktemp("store"))
    write_store(directory, result, meta=solver.store_metadata())
    with ServerThread.from_store(directory) as handle:
        with QueryClient(port=handle.port) as client:
            yield graph, result, handle, client


class TestPointQueries:
    def test_every_stored_entry_matches_in_process(self, served):
        _graph, result, _handle, client = served
        for s, t, e, value in result.iter_entries():
            got = client.query(s, t, e)
            assert got == value
            if value == math.inf:
                assert got is math.inf

    def test_off_path_edge_returns_tree_distance(self, served):
        graph, result, _handle, client = served
        s = result.sources[0]
        tree = result.source_tree(s)
        # An edge not on the canonical s-t path leaves the distance alone.
        for t in result.targets(s):
            on_path = result.replacement_lengths(s, t)
            off_path = next(
                (e for e in graph.edges() if e not in on_path), None
            )
            if off_path is not None:
                assert client.query(s, t, off_path) == tree.distance(t)
                assert result.replacement_length(s, t, off_path) == tree.distance(t)
                break
        else:  # pragma: no cover - battery graphs always have off-path edges
            pytest.skip("no off-path edge in instance")

    def test_batch_matches_point_queries(self, served):
        _graph, result, _handle, client = served
        queries = [(s, t, e) for s, t, e, _ in list(result.iter_entries())[:25]]
        answers = client.query_batch(queries)
        assert answers == [result.replacement_length(*q) for q in queries]

    def test_sweep_covers_every_vertex(self, served):
        # Every source x every tree edge, plus one non-tree edge: each
        # target's served value, and its math.inf identity, equal the
        # in-process point query.
        graph, result, _handle, client = served
        for s in result.sources:
            tree = result.source_tree(s)
            tree_edges = [
                (min(p, v), max(p, v))
                for v, p in enumerate(tree.parent)
                if p is not None
            ]
            on_tree = set(tree_edges)
            non_tree = next(e for e in graph.edges() if e not in on_tree)
            for edge in tree_edges + [non_tree]:
                lengths = client.sweep(s, edge)
                assert set(lengths) == set(range(graph.num_vertices))
                for target, value in lengths.items():
                    expected = result.replacement_length(s, target, edge)
                    assert value == expected, (s, edge, target)
                    assert (value is math.inf) == (expected is math.inf)


class TestValidation:
    def test_non_edge_rejected_with_local_exception_type(self, served):
        graph, result, _handle, client = served
        non_edge = next(
            (u, v)
            for u in range(graph.num_vertices)
            for v in range(u + 1, graph.num_vertices)
            if not graph.has_edge(u, v)
        )
        s = result.sources[0]
        with pytest.raises(InvalidParameterError, match="not an edge"):
            client.query(s, 0, non_edge)

    def test_unknown_source_rejected(self, served):
        graph, result, _handle, client = served
        bad = next(v for v in range(graph.num_vertices) if v not in result.sources)
        with pytest.raises(InvalidParameterError, match="not one of the served sources"):
            client.query(bad, 0, graph.edges()[0])

    def test_out_of_range_target_rejected(self, served):
        graph, result, _handle, client = served
        with pytest.raises(InvalidParameterError, match="outside the vertex range"):
            client.query(result.sources[0], graph.num_vertices + 5, graph.edges()[0])

    def test_batch_refuses_non_integer_ids(self, served):
        # Regression: POST items were coerced with int(), so 14.9 was
        # answered as source 14 and true as target 1.  Like GET's
        # "target=3.7", a field that is not a JSON integer is refused per
        # item, and the other items still resolve.
        graph, result, handle, _client = served
        s = result.sources[0]
        u, v = graph.edges()[0]
        good = {"source": s, "target": 1, "edge": [u, v]}
        bad = [
            {"source": s + 0.9, "target": 3.7, "edge": [u + 0.5, v + 0.2]},
            {"source": s, "target": True, "edge": [u, v]},
            {"source": s, "target": 1, "edge": [u, float(v)]},
            {"source": str(s), "target": 1, "edge": [u, v]},
            {"source": s, "target": 1, "edge": [u, v, 0]},
        ]
        request = urllib.request.Request(
            f"http://127.0.0.1:{handle.port}/query",
            data=json.dumps({"queries": [good] + bad}).encode("utf-8"),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with urllib.request.urlopen(request, timeout=5) as response:
            results = json.loads(response.read().decode("utf-8"))["results"]
        assert "error" not in results[0]
        assert results[0]["length"] == result.replacement_length(s, 1, (u, v))
        for item, answer in zip(bad, results[1:]):
            assert answer["type"] == "InvalidParameterError", (item, answer)
            assert answer["error"].startswith("malformed query"), (item, answer)

    def test_client_refuses_non_integer_ids(self, served):
        # Regression: the client coerced ids with int() before sending, so
        # 14.9 was asked as source 14 and True as target 1, and the
        # server's integer checks never saw the original values.
        graph, result, _handle, client = served
        s = result.sources[0]
        u, v = graph.edges()[0]
        with pytest.raises(InvalidParameterError, match="must be integers"):
            client.query(s + 0.9, 3.7, (u + 0.5, v + 0.2))
        with pytest.raises(InvalidParameterError, match="must be integers"):
            client.query_batch([(s, True, (u, v))])
        with pytest.raises(InvalidParameterError, match="must be integers"):
            client.sweep(s + 0.5, (u, v))
        assert client.query(s, 1, (u, v)) == result.replacement_length(s, 1, (u, v))

    @staticmethod
    def _assert_refused_with_400(served, request: bytes) -> None:
        """Send ``request`` on a raw socket; expect 400 and a live server."""
        graph, result, handle, client = served
        raw = socket.create_connection(("127.0.0.1", handle.port), timeout=10)
        try:
            raw.sendall(request)
            response = b""
            while True:  # the server closes the connection after answering
                chunk = raw.recv(4096)
                if not chunk:
                    break
                response += chunk
        finally:
            raw.close()
        head, _, body = response.partition(b"\r\n\r\n")
        assert head.split(b"\r\n", 1)[0] == b"HTTP/1.1 400 Bad Request"
        assert json.loads(body)["type"] == "InvalidParameterError"
        s = result.sources[0]
        edge = graph.edges()[0]
        assert client.query(s, 1, edge) == result.replacement_length(s, 1, edge)

    @pytest.mark.parametrize("length", ["abc", "-5"])
    def test_malformed_content_length_answers_400(self, served, length):
        # Regression: int() raised on "abc" and readexactly() on -5, so the
        # connection dropped with no response at all.
        self._assert_refused_with_400(
            served,
            f"POST /query HTTP/1.1\r\nHost: x\r\n"
            f"Content-Length: {length}\r\n\r\n".encode("latin-1"),
        )

    @pytest.mark.parametrize(
        "request_bytes",
        [
            b"GET /status HTTP/1.1\r\nX-Big: " + b"a" * 70_000 + b"\r\n\r\n",
            b"GET /query?pad=" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n",
        ],
        ids=["header", "request-line"],
    )
    def test_over_long_line_answers_400(self, served, request_bytes):
        # Regression: a line past asyncio's 64 KiB stream limit made
        # readline() raise ValueError, so the connection dropped with no
        # response and asyncio logged an unhandled exception.
        self._assert_refused_with_400(served, request_bytes)

    def test_service_refuses_fractional_ids(self, served):
        # The in-process service coerces with operator.index, like the
        # result, instead of truncating.
        graph, result, handle, _client = served
        service = handle.service
        s = result.sources[0]
        edge = graph.edges()[0]
        assert service.point_query(s, 1, edge) == result.replacement_length(s, 1, edge)
        with pytest.raises(TypeError):
            service.point_query(s + 0.5, 1, edge)
        with pytest.raises(TypeError):
            service.point_query(s, 1.5, edge)
        with pytest.raises(TypeError):
            service.sweep(s, (edge[0] + 0.5, edge[1]))

    def test_batch_reports_per_item_errors(self, served):
        graph, result, _handle, client = served
        s = result.sources[0]
        good = graph.edges()[0]
        non_edge = next(
            (u, v)
            for u in range(graph.num_vertices)
            for v in range(u + 1, graph.num_vertices)
            if not graph.has_edge(u, v)
        )
        # The good item resolves, the bad one raises client-side with the
        # same exception type an in-process query would have raised.
        with pytest.raises(InvalidParameterError, match="not an edge"):
            client.query_batch([(s, 0, good), (s, 0, non_edge)])

    def test_graphless_result_rejected_with_clear_message(self, instance):
        """A result without its graph names the real problem.

        Regression: the vertex check used to fall back to ``n = 0`` and
        report "outside the vertex range 0..-1" — nonsense that hid the
        actual misconfiguration (the served result carries no graph).
        """
        from repro.serve import OracleService

        _graph, _solver, result = instance
        stripped = type(result)(
            {s: result.table(s) for s in result.sources},
            {s: result.source_tree(s) for s in result.sources},
        )
        service = OracleService(stripped)
        s = result.sources[0]
        with pytest.raises(InvalidParameterError, match="carries no graph"):
            service.point_query(s, 0, (0, 1))
        try:
            service.point_query(s, 0, (0, 1))
        except InvalidParameterError as exc:
            assert "0..-1" not in str(exc)

    def test_unknown_path_is_remote_error(self, served):
        _graph, _result, handle, _client = served
        with QueryClient(port=handle.port) as client:
            with pytest.raises(RemoteQueryError, match="unknown path"):
                client._request("GET", "/nope")

    def test_unreachable_server(self):
        client = QueryClient(port=1, timeout=0.5)
        with pytest.raises(RemoteQueryError, match="unreachable"):
            client.status()


class TestStatusAndCache:
    def test_status_reports_store_and_counters(self, served):
        _graph, result, handle, client = served
        status = client.status()
        store = status["store"]
        assert store["num_vertices"] == 24
        assert store["sources"] == list(result.sources)
        assert store["strategy"] == "auxiliary"
        assert status["output_entries"] == result.output_size
        assert status["uptime_seconds"] > 0
        cache = status["cache"]
        assert cache["capacity"] == handle.service.cache.capacity
        assert 0.0 <= cache["hit_rate"] <= 1.0

    def test_repeated_queries_hit_the_slice_cache(self, instance, tmp_path):
        _graph, solver, result = instance
        directory = str(tmp_path / "store")
        write_store(directory, result)
        with ServerThread.from_store(directory) as handle:
            with QueryClient(port=handle.port) as client:
                s, t, e, _ = next(result.iter_entries())
                client.query(s, t, e)
                first = client.status()["cache"]
                assert first["misses"] >= 1
                for _ in range(5):
                    client.query(s, t, e)
                second = client.status()["cache"]
                assert second["hits"] >= first["hits"] + 5
                assert second["misses"] == first["misses"]

    def test_status_reports_both_qps_figures(self, served):
        """/status carries the lifetime average AND the sliding window.

        Regression: ``qps`` alone (total / uptime) decays toward zero on
        a long-lived server regardless of current load; the window rate
        is the honest signal and must be present alongside it.
        """
        _graph, result, handle, client = served
        s, t, e, _ = next(result.iter_entries())
        client.query(s, t, e)
        status = client.status()
        assert status["qps"] >= 0.0
        assert status["qps_window_seconds"] >= 1
        # The query above landed inside the current window.
        assert status["qps_recent"] > 0.0

    def test_rate_window_tracks_recent_load_only(self):
        """Deterministic clock: bursts age out, lifetime average cannot."""
        from repro.serve import RateWindow

        now = [1000.0]
        window = RateWindow(window=10, clock=lambda: now[0])
        for _ in range(40):
            window.note()
        assert window.rate() == 4.0
        now[0] += 5  # burst still inside the window
        assert window.rate() == 4.0
        now[0] += 20  # burst aged out entirely
        assert window.rate() == 0.0
        window.note()
        assert window.rate() == pytest.approx(0.1)

    def test_rate_window_rejects_degenerate_span(self):
        from repro.serve import RateWindow

        with pytest.raises(InvalidParameterError, match="at least 1"):
            RateWindow(window=0)

    def test_raw_http_status_is_strict_json(self, served):
        _graph, _result, handle, _client = served
        with urllib.request.urlopen(
            f"http://127.0.0.1:{handle.port}/status", timeout=5
        ) as response:
            payload = json.loads(response.read().decode("utf-8"))
        assert payload["store"]["format_version"] == FORMAT_VERSION


class TestSliceCache:
    def test_lru_eviction_order(self):
        cache = SliceCache(capacity=2)
        cache.put((0, (0, 1)), {0: 1.0})
        cache.put((0, (0, 2)), {0: 2.0})
        assert cache.get((0, (0, 1))) == {0: 1.0}  # refresh
        cache.put((0, (0, 3)), {0: 3.0})  # evicts (0, 2)
        assert cache.get((0, (0, 2))) is None
        assert cache.get((0, (0, 1))) is not None
        assert len(cache) == 2

    def test_zero_capacity_never_stores(self):
        cache = SliceCache(capacity=0)
        cache.put((0, (0, 1)), {0: 1.0})
        assert len(cache) == 0
        assert cache.get((0, (0, 1))) is None

    def test_negative_capacity_rejected(self):
        with pytest.raises(InvalidParameterError):
            SliceCache(capacity=-1)
