"""Round-trip and rejection battery for the versioned oracle store.

The store is the persistence half of the preprocess-once/query-often
split, so its contract mirrors the parallel layer's: a store-loaded
result answers **every** query identically to the in-process solve that
produced it (including ``math.inf`` singleton identity and iteration
order, which the benchmark fingerprints hash), at any worker count, and
every corruption mode — bad magic, wrong format version, edited payload,
header/payload fingerprint disagreement — is rejected loudly instead of
served.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import sys
from array import array

import pytest

from repro.core.msrp import MSRPSolver
from repro.core.params import AlgorithmParams
from repro.exceptions import InvalidParameterError
from repro.graph import generators
from repro.store import (
    FORMAT_VERSION,
    MAGIC,
    MANIFEST_NAME,
    SEGMENTS_NAME,
    graph_fingerprint,
    load_header,
    load_store,
    write_store,
)

#: name -> seeded factory; a slice of the property-battery generators that
#: covers finite replacement lengths, bridges (inf entries) and ties.
GENERATORS = {
    "gnp": lambda seed: generators.gnp_random_graph(13, 0.3, seed=seed),
    "connected": lambda seed: generators.random_connected_graph(
        13, extra_edges=10, seed=seed
    ),
    "path": lambda seed: generators.path_graph(9),
    "cycle": lambda seed: generators.cycle_graph(8),
    "barbell": lambda seed: generators.barbell_graph(3, 3),
}


def solve(graph, seed, workers=0, strategy="auxiliary"):
    import random

    rng = random.Random(seed)
    count = min(2, max(1, graph.num_vertices))
    sources = sorted(rng.sample(range(graph.num_vertices), count))
    solver = MSRPSolver(
        graph,
        sources,
        params=AlgorithmParams(seed=seed, workers=workers),
        landmark_strategy=strategy,
    )
    return solver, solver.solve()


def assert_results_identical(loaded, reference):
    """Entry-for-entry equality, inf identity and iteration order."""
    loaded_entries = list(loaded.iter_entries())
    reference_entries = list(reference.iter_entries())
    assert loaded_entries == reference_entries
    for (_s, _t, _e, ours), (_s2, _t2, _e2, theirs) in zip(
        loaded_entries, reference_entries
    ):
        if theirs == math.inf:
            assert ours is math.inf
    assert loaded.sources == reference.sources
    for s in reference.sources:
        assert loaded.source_tree(s).dist == reference.source_tree(s).dist
        assert loaded.source_tree(s).parent == reference.source_tree(s).parent


class TestRoundTrip:
    @pytest.mark.parametrize("name", sorted(GENERATORS))
    def test_loaded_result_matches_solve(self, name, tmp_path):
        for seed in (1, 2):
            graph = GENERATORS[name](seed)
            solver, result = solve(graph, seed)
            directory = str(tmp_path / f"{name}-{seed}")
            write_store(directory, result, meta=solver.store_metadata())
            loaded, header = load_store(directory)
            assert_results_identical(loaded, result)
            assert header.fingerprint == graph_fingerprint(graph)
            assert header.sources == list(result.sources)

    def test_sharded_solve_round_trips_identically(self, tmp_path):
        """Store written from a workers=2 solve == store from serial solve."""
        graph = generators.random_connected_graph(20, extra_edges=18, seed=9)
        _, serial = solve(graph, 9, workers=0)
        solver, sharded = solve(graph, 9, workers=2)
        directory = str(tmp_path / "sharded")
        write_store(directory, sharded, meta=solver.store_metadata())
        loaded, _ = load_store(directory)
        assert_results_identical(loaded, serial)

    def test_identical_solves_write_identical_stores(self, tmp_path):
        """Two solves of one seeded instance store the same metadata and size.

        Wall-clock phase timings in the metadata would make both differ.
        """
        graph = generators.random_connected_graph(16, extra_edges=14, seed=4)
        stores = []
        for run in ("first", "second"):
            solver, result = solve(graph, 4)
            directory = tmp_path / run
            write_store(str(directory), result, meta=solver.store_metadata())
            size = sum(path.stat().st_size for path in directory.iterdir())
            stores.append((solver.store_metadata(), size))
        (meta, size), (other_meta, other_size) = stores
        assert meta == other_meta
        assert size == other_size

    def test_replacement_queries_after_load(self, tmp_path):
        graph = generators.random_connected_graph(16, extra_edges=14, seed=4)
        _, result = solve(graph, 4)
        write_store(str(tmp_path), result)
        loaded, _ = load_store(str(tmp_path))
        for s, t, e, value in result.iter_entries():
            assert loaded.replacement_length(s, t, e) == value

    def test_header_only_load(self, tmp_path):
        graph = generators.cycle_graph(8)
        solver, result = solve(graph, 1)
        write_store(str(tmp_path), result, meta=solver.store_metadata())
        header = load_header(str(tmp_path))
        assert header.format_version == FORMAT_VERSION
        assert header.num_vertices == 8
        assert header.meta["strategy"] == "auxiliary"
        summary = header.summary()
        assert summary["graph_fingerprint"] == graph_fingerprint(graph)

    def test_graphless_result_rejected(self):
        graph = generators.cycle_graph(6)
        _, result = solve(graph, 1)
        stripped = type(result)(
            {s: result.table(s) for s in result.sources},
            {s: result.source_tree(s) for s in result.sources},
        )
        with pytest.raises(InvalidParameterError, match="graph-less"):
            write_store("/tmp/never-written", stripped)


class TestNonEdgeRegression:
    """The PR 4 non-edge hole must stay closed across a store round-trip."""

    def test_store_loaded_result_rejects_non_edge(self, tmp_path):
        graph = generators.random_connected_graph(14, extra_edges=8, seed=6)
        _, result = solve(graph, 6)
        write_store(str(tmp_path), result)
        loaded, _ = load_store(str(tmp_path))
        assert loaded.graph is not None
        non_edge = next(
            (u, v)
            for u in range(graph.num_vertices)
            for v in range(u + 1, graph.num_vertices)
            if not graph.has_edge(u, v)
        )
        s = loaded.sources[0]
        t = loaded.targets(s)[0]
        with pytest.raises(InvalidParameterError, match="not an edge"):
            loaded.replacement_length(s, t, non_edge)


class TestRejection:
    @pytest.fixture
    def store_dir(self, tmp_path):
        graph = generators.random_connected_graph(12, extra_edges=10, seed=2)
        _, result = solve(graph, 2)
        directory = str(tmp_path / "store")
        write_store(directory, result)
        return directory

    def _edit_manifest(self, directory, mutate):
        path = os.path.join(directory, MANIFEST_NAME)
        with open(path) as handle:
            manifest = json.load(handle)
        mutate(manifest)
        with open(path, "w") as handle:
            json.dump(manifest, handle)

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(InvalidParameterError, match="not an oracle store"):
            load_store(str(tmp_path / "nowhere"))

    def test_corrupted_manifest_json(self, store_dir):
        with open(os.path.join(store_dir, MANIFEST_NAME), "w") as handle:
            handle.write("{not json")
        with pytest.raises(InvalidParameterError, match="corrupted store header"):
            load_store(store_dir)

    def test_bad_magic(self, store_dir):
        self._edit_manifest(store_dir, lambda m: m.update(magic="not-a-store"))
        with pytest.raises(InvalidParameterError, match="bad magic"):
            load_store(store_dir)
        with pytest.raises(InvalidParameterError, match="bad magic"):
            load_header(store_dir)

    def test_wrong_format_version(self, store_dir):
        # FORMAT_VERSION - 1 is the edge-keyed layout (targets, counts,
        # edge_u and edge_v segments); it is refused, not migrated.
        for version in (FORMAT_VERSION - 1, FORMAT_VERSION + 1):
            self._edit_manifest(store_dir, lambda m: m.update(format_version=version))
            named = (
                f"version mismatch: .* has version {version}, "
                f"this build reads version {FORMAT_VERSION}"
            )
            with pytest.raises(InvalidParameterError, match=named):
                load_store(store_dir)
            with pytest.raises(InvalidParameterError, match=named):
                load_header(store_dir)

    def test_corrupted_segment_payload(self, store_dir):
        path = os.path.join(store_dir, SEGMENTS_NAME)
        with open(path, "r+b") as handle:
            handle.seek(8)
            byte = handle.read(1)
            handle.seek(8)
            handle.write(bytes([byte[0] ^ 0xFF]))
        with pytest.raises(InvalidParameterError, match="corrupted"):
            load_store(store_dir)

    def test_truncated_segment_payload(self, store_dir):
        path = os.path.join(store_dir, SEGMENTS_NAME)
        with open(path, "rb") as handle:
            payload = handle.read()
        with open(path, "wb") as handle:
            handle.write(payload[: len(payload) // 2])
        with pytest.raises(InvalidParameterError, match="corrupted"):
            load_store(store_dir)

    def test_missing_segments_file(self, store_dir):
        os.remove(os.path.join(store_dir, SEGMENTS_NAME))
        with pytest.raises(InvalidParameterError, match="no segments.bin"):
            load_store(store_dir)

    def test_wrong_graph_fingerprint(self, store_dir):
        # Header claims a different graph than the payload carries: the
        # loader must refuse rather than serve answers for the wrong
        # instance.  The segment checksum is kept consistent so this test
        # isolates the fingerprint check.
        def swap_fingerprint(manifest):
            manifest["graph"]["fingerprint"] = "0" * 64

        self._edit_manifest(store_dir, swap_fingerprint)
        with pytest.raises(InvalidParameterError, match="fingerprint mismatch"):
            load_store(store_dir)

    @pytest.mark.parametrize("mmap", [True, False], ids=["mmap", "read"])
    @pytest.mark.parametrize(
        "field, edit",
        [
            ("nbytes", lambda value: value - 3),
            ("count", lambda value: value + 1),
            ("offset", lambda value: -8),
            ("typecode", lambda value: "q"),
        ],
        ids=["odd-nbytes", "count-plus-one", "negative-offset", "typecode"],
    )
    def test_malformed_segment_descriptor(self, store_dir, mmap, field, edit):
        # The manifest is outside the payload checksum, so a descriptor
        # that does not fit the payload must be refused by name on both
        # load paths, before its bytes are decoded.
        name = f"table/{load_header(store_dir).sources[0]}/values"

        def mutate(manifest):
            for descriptor in manifest["segments"]:
                if descriptor["name"] == name:
                    assert descriptor["count"] > 0
                    descriptor[field] = edit(descriptor[field])

        self._edit_manifest(store_dir, mutate)
        with pytest.raises(InvalidParameterError, match=name):
            load_store(store_dir, mmap=mmap)

    @pytest.mark.parametrize("mmap", [True, False], ids=["mmap", "read"])
    @pytest.mark.parametrize(
        "mutate, named",
        [
            (lambda m: m["segments"][0].update(offset="0"),
             r"segment '[^']+' field 'offset'"),
            (lambda m: m["segments"][0].update(count=True),
             r"segment '[^']+' field 'count'"),
            (lambda m: m["graph"].update(num_vertices="14"),
             r"field 'graph\.num_vertices'"),
            (lambda m: m.update(graph=[]), r"field 'graph'"),
            (lambda m: m["segments"].append(5), r"segment #\d+"),
            (lambda m: m.update(meta=5), r"field 'meta'"),
        ],
        ids=["string-offset", "bool-count", "string-num-vertices", "graph-list",
             "bare-segment", "int-meta"],
    )
    def test_manifest_field_of_wrong_json_type(self, store_dir, mmap, mutate, named):
        # JSON types are checked before any range check compares a value,
        # so a wrong type is refused by name on both load paths (and by
        # load_header) instead of escaping as a TypeError or AttributeError.
        self._edit_manifest(store_dir, mutate)
        with pytest.raises(InvalidParameterError, match=named):
            load_store(store_dir, mmap=mmap)
        with pytest.raises(InvalidParameterError, match=named):
            load_header(store_dir)

    @pytest.mark.parametrize("mmap", [True, False], ids=["mmap", "read"])
    @pytest.mark.parametrize(
        "mutate, named",
        [
            (lambda m: m.update(byteorder=5), r"field 'byteorder' .* got 5"),
            (lambda m: m.update(byteorder="middle"), r"field 'byteorder'"),
            (lambda m: m["graph"].update(num_vertices=-1),
             r"field 'graph\.num_vertices' must be non-negative, got -1"),
            (lambda m: m["graph"].update(num_edges=-3),
             r"field 'graph\.num_edges' must be non-negative, got -3"),
        ],
        ids=["int-byteorder", "unknown-byteorder", "negative-num-vertices",
             "negative-num-edges"],
    )
    def test_manifest_header_value_out_of_range(self, store_dir, mmap, mutate, named):
        # A well-typed header value can still be nonsense: an unknown byte
        # order would byteswap every segment, and a negative count would
        # pass load_header.  Both are refused by name.
        self._edit_manifest(store_dir, mutate)
        with pytest.raises(InvalidParameterError, match=named):
            load_store(store_dir, mmap=mmap)
        with pytest.raises(InvalidParameterError, match=named):
            load_header(store_dir)

    def _shorten_segment(self, directory, name, itemsize):
        """Drop the last item of segment ``name`` from its descriptor."""

        def shorten(manifest):
            for descriptor in manifest["segments"]:
                if descriptor["name"] == name:
                    descriptor["count"] -= 1
                    descriptor["nbytes"] -= itemsize

        self._edit_manifest(directory, shorten)

    @pytest.mark.parametrize("mmap", [True, False], ids=["mmap", "read"])
    def test_values_segment_not_matching_the_tree(self, store_dir, mmap):
        # The values segment is split by dist over the source's preorder;
        # a segment one length short cannot be split and is refused.
        name = f"table/{load_header(store_dir).sources[0]}/values"
        self._shorten_segment(store_dir, name, 8)
        with pytest.raises(InvalidParameterError, match=f"{name} holds"):
            load_store(store_dir, mmap=mmap)

    @pytest.mark.parametrize("mmap", [True, False], ids=["mmap", "read"])
    def test_tree_segment_not_matching_the_graph(self, store_dir, mmap):
        # The same edit on a tree segment: the stored tree must be the
        # graph's BFS tree, and a parent array one entry short is refused
        # with a typed error, not an IndexError from the preorder split.
        s = load_header(store_dir).sources[0]
        self._shorten_segment(store_dir, f"tree/{s}/parent", 4)
        with pytest.raises(InvalidParameterError, match=f"tree/{s} segments"):
            load_store(store_dir, mmap=mmap)

    def test_only_the_values_segment_per_table(self, store_dir):
        # The stored tree implies every entry's target and edge.
        with open(os.path.join(store_dir, MANIFEST_NAME)) as handle:
            names = {d["name"] for d in json.load(handle)["segments"]}
        assert {name.rsplit("/", 1)[1] for name in names if name.startswith("table/")} == {
            "values"
        }

    def test_magic_and_version_constants(self):
        # The spec in docs/ quotes these; changing them is a format bump.
        assert MAGIC == "repro-msrp-store"
        assert FORMAT_VERSION == 2


@pytest.mark.parametrize("mmap", [True, False], ids=["mmap", "read"])
def test_foreign_byte_order_store_loads_identically(tmp_path, mmap):
    """A store written on the other byte order decodes to the same result."""
    graph = generators.gnp_random_graph(14, 0.15, seed=1)
    _, result = solve(graph, 1)
    assert any(value == math.inf for *_, value in result.iter_entries())
    directory = str(tmp_path / "store")
    write_store(directory, result)

    manifest_path = os.path.join(directory, MANIFEST_NAME)
    segments_path = os.path.join(directory, SEGMENTS_NAME)
    with open(manifest_path) as handle:
        manifest = json.load(handle)
    with open(segments_path, "rb") as handle:
        payload = bytearray(handle.read())
    for descriptor in manifest["segments"]:
        lo = descriptor["offset"]
        hi = lo + descriptor["nbytes"]
        segment = array(descriptor["typecode"])
        segment.frombytes(payload[lo:hi])
        segment.byteswap()
        payload[lo:hi] = segment.tobytes()
    manifest["byteorder"] = "big" if sys.byteorder == "little" else "little"
    manifest["segments_sha256"] = hashlib.sha256(payload).hexdigest()
    with open(segments_path, "wb") as handle:
        handle.write(payload)
    with open(manifest_path, "w") as handle:
        json.dump(manifest, handle)

    loaded, _ = load_store(directory, mmap=mmap)
    assert_results_identical(loaded, result)
    for s in result.sources:
        for ours, theirs in zip(
            loaded.source_tree(s).dist, result.source_tree(s).dist
        ):
            if theirs == math.inf:
                assert ours is math.inf


class TestMmapLoad:
    """The mapped load path must be indistinguishable from the classic
    read: same answers, same singletons, same rejections."""

    def test_mmap_load_matches_classic(self, tmp_path):
        graph = generators.random_connected_graph(13, extra_edges=9, seed=9)
        solver, result = solve(graph, 9)
        directory = str(tmp_path / "store")
        write_store(directory, result, meta=solver.store_metadata())
        mapped, header_m = load_store(directory, mmap=True)
        classic, header_c = load_store(directory, mmap=False)
        assert_results_identical(mapped, classic)
        assert_results_identical(mapped, result)
        assert header_m.fingerprint == header_c.fingerprint

    def test_segment_offsets_are_aligned(self, tmp_path):
        """The writer pads every segment to an 8-byte boundary, which is
        part of the format (see docs/store_format.md)."""
        graph = generators.random_connected_graph(10, extra_edges=6, seed=3)
        _, result = solve(graph, 3)
        write_store(str(tmp_path), result)
        with open(os.path.join(str(tmp_path), MANIFEST_NAME)) as handle:
            manifest = json.load(handle)
        segments = manifest["segments"]
        descriptors = (
            segments.values() if isinstance(segments, dict) else segments
        )
        for descriptor in descriptors:
            assert descriptor["offset"] % 8 == 0, descriptor

    def test_corruption_detected_before_decode_under_mmap(self, tmp_path):
        graph = generators.random_connected_graph(10, extra_edges=6, seed=4)
        _, result = solve(graph, 4)
        write_store(str(tmp_path), result)
        path = os.path.join(str(tmp_path), SEGMENTS_NAME)
        with open(path, "r+b") as handle:
            handle.seek(4)
            byte = handle.read(1)
            handle.seek(4)
            handle.write(bytes([byte[0] ^ 0x5A]))
        with pytest.raises(InvalidParameterError, match="corrupted"):
            load_store(str(tmp_path), mmap=True)
