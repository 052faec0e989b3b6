"""Versioned on-disk format for preprocessed replacement-path oracles.

The paper's premise is *preprocess once, query often*: the expensive
:class:`~repro.core.msrp.MSRPSolver` run happens once, and the resulting
``d(s, t, avoiding=e)`` tables are then served to queries indefinitely.
This module is the "once" half of that split — it persists a
:class:`~repro.core.result.ReplacementPathResult` to a directory and loads
it back without re-deriving anything.

Layout
------
A store is a directory with exactly two files::

    <store>/
        MANIFEST.json   # header: magic, version, fingerprints, segment table
        segments.bin    # concatenated flat typed-array segments

**MANIFEST.json** is the header.  Its fields:

``magic``
    The literal string ``"repro-msrp-store"``.  Anything else is rejected.
``format_version``
    Integer, currently ``2``.  Readers reject any other value loudly —
    the format is versioned precisely so a layout change cannot be
    misread as garbage data.
``byteorder``
    ``"little"`` or ``"big"`` — the byte order of the writing host.
    Loaders byteswap when it differs from theirs, so stores are portable.
``graph``
    ``{"num_vertices", "num_edges", "fingerprint"}`` where ``fingerprint``
    is the SHA-256 of the canonical edge list (:func:`graph_fingerprint`).
    On load the fingerprint is recomputed from the decoded edge segments
    and must match — a store whose header and payload disagree (truncated
    copy, concatenated stores, manual edits) is rejected, not served.
``sources``
    The source set the tables cover, sorted.
``segments``
    The segment table: one ``{"name", "typecode", "count", "offset",
    "nbytes"}`` descriptor per typed-array segment in ``segments.bin``.
``segments_sha256``
    SHA-256 of the entire ``segments.bin`` payload; verified before any
    segment is decoded.
``meta``
    Free-form provenance (strategy, :class:`AlgorithmParams` fields,
    sources, executor counters) — informational, not validated.  It holds
    no wall-clock timings, so two solves of one instance write stores of
    equal size.

**segments.bin** concatenates plain :mod:`array` buffers.  Per source
``s`` the store carries the BFS tree (``tree/<s>/parent`` with ``-1`` for
*no parent*, ``tree/<s>/dist`` as ``'d'`` with ``inf`` for unreachable,
``tree/<s>/order``) and ``table/<s>/values``: each target's lengths by
edge depth (:data:`~repro.core.result.PerSourceTable`) concatenated over
the tree preorder, which the loader splits into runs of ``dist[t]``; the
tree implies every entry's target and edge.  Plus the graph edge list
(``graph/edge_u``, ``graph/edge_v``).  A loaded result iterates — and
therefore fingerprints — identically to the in-process one.

Loading re-canonicalises every infinite value onto the ``math.inf``
singleton (tree distances and table values), preserving the
``is math.inf`` identity invariant the hot paths and benchmark
fingerprints rely on.  The graph itself is persisted and reattached, so
edge validation (``replacement_length`` rejecting non-edges) survives the
round-trip.

Write atomicity
---------------
``write_store`` stages both files into a sibling temporary directory,
fsyncs them, and renames the staged directory into place — so an
interrupted preprocess can never leave a half-written store at the target
path (see ``docs/robustness.md`` for the full failure-mode matrix).

Versioning policy
-----------------
``FORMAT_VERSION`` bumps on any incompatible layout change; readers never
attempt cross-version migration — they raise
:class:`~repro.exceptions.InvalidParameterError` naming both versions, and
the caller re-preprocesses.  Additive, backwards-compatible information
goes into ``meta``.
"""

from __future__ import annotations

import hashlib
import json
import math
import mmap as mmap_module
import os
import shutil
import sys
import tempfile
import time
from array import array
from dataclasses import dataclass, field
from itertools import chain
from typing import Dict, List, Mapping, Optional, Tuple

from repro.core.result import PerSourceTable, ReplacementPathResult
from repro.exceptions import InvalidParameterError
from repro.faults.harness import checkpoint
from repro.store.atomic import (
    fsync_directory as _fsync_directory,
    write_file_synced as _write_file_synced,
)
from repro.graph.csr import bfs_tree_csr
from repro.graph.graph import Graph
from repro.graph.tree import ShortestPathTree

#: First bytes of every manifest; anything else is not a store.
MAGIC = "repro-msrp-store"
#: Current on-disk layout version (version 1 also stored each entry's edge).
FORMAT_VERSION = 2

MANIFEST_NAME = "MANIFEST.json"
SEGMENTS_NAME = "segments.bin"

#: Sentinel for "no parent" in the ``'i'`` parent segments.
_NO_PARENT = -1

#: The ``array`` typecodes segments are written with.
_TYPECODES = frozenset("id")

#: Segments start on multiples of this (the ``'d'`` segments' item size).
#: Readers locate segments by their explicit manifest offsets, so the
#: padding is invisible to them.
_SEGMENT_ALIGN = 8


def graph_fingerprint(graph: Graph) -> str:
    """SHA-256 over the canonical encoding of ``graph``.

    The encoding is textual (vertex count, then the sorted normalised edge
    list), so the fingerprint is independent of host byte order and of how
    the graph object was constructed.
    """
    digest = hashlib.sha256()
    digest.update(f"n={graph.num_vertices};".encode("ascii"))
    for u, v in graph.edges():
        digest.update(f"{u},{v};".encode("ascii"))
    return digest.hexdigest()


@dataclass
class StoreHeader:
    """Decoded view of a store's ``MANIFEST.json``."""

    magic: str
    format_version: int
    byteorder: str
    created_at: str
    num_vertices: int
    num_edges: int
    fingerprint: str
    sources: List[int]
    segments_sha256: str
    meta: Dict[str, object] = field(default_factory=dict)
    #: the raw manifest dict, including the segment table
    manifest: Dict[str, object] = field(default_factory=dict)

    @classmethod
    def from_manifest(cls, manifest: Mapping[str, object]) -> "StoreHeader":
        graph_info = manifest.get("graph", {})
        return cls(
            magic=manifest.get("magic", ""),
            format_version=manifest.get("format_version", -1),
            byteorder=manifest.get("byteorder", sys.byteorder),
            created_at=manifest.get("created_at", ""),
            num_vertices=graph_info.get("num_vertices", 0),
            num_edges=graph_info.get("num_edges", 0),
            fingerprint=graph_info.get("fingerprint", ""),
            sources=list(manifest.get("sources", [])),
            segments_sha256=manifest.get("segments_sha256", ""),
            meta=dict(manifest.get("meta", {})),
            manifest=dict(manifest),
        )

    def summary(self) -> Dict[str, object]:
        """The compact header block the serving layer reports in /status."""
        return {
            "format_version": self.format_version,
            "created_at": self.created_at,
            "num_vertices": self.num_vertices,
            "num_edges": self.num_edges,
            "graph_fingerprint": self.fingerprint,
            "sources": self.sources,
            "strategy": self.meta.get("strategy"),
        }


class _SegmentWriter:
    """Accumulates typed-array segments and their manifest descriptors."""

    def __init__(self) -> None:
        self._chunks: List[bytes] = []
        self._descriptors: List[Dict[str, object]] = []
        self._offset = 0

    def add(self, name: str, typecode: str, values) -> None:
        data = array(typecode, values)
        raw = data.tobytes()
        self._descriptors.append(
            {
                "name": name,
                "typecode": typecode,
                "count": len(data),
                "offset": self._offset,
                "nbytes": len(raw),
            }
        )
        self._chunks.append(raw)
        self._offset += len(raw)
        pad = (-self._offset) % _SEGMENT_ALIGN
        if pad:
            self._chunks.append(b"\x00" * pad)
            self._offset += pad

    def payload(self) -> bytes:
        return b"".join(self._chunks)

    def descriptors(self) -> List[Dict[str, object]]:
        return self._descriptors


class _SegmentReader:
    """Decodes segments out of a verified ``segments.bin`` payload.

    The payload is either ``bytes`` (the classic read) or a read-only
    ``mmap``; slicing either returns ``bytes``, so one decoder serves both:
    ``array.frombytes``, plus a ``byteswap`` for a store written on the
    other byte order.  The manifest is not covered by the payload
    checksum, so every descriptor is checked against the payload before
    its bytes are decoded.
    """

    def __init__(self, payload, manifest: Mapping[str, object]):
        self._payload = payload
        self._swap = manifest.get("byteorder", sys.byteorder) != sys.byteorder
        self._by_name: Dict[str, Dict[str, object]] = {}
        for descriptor in manifest.get("segments", []):
            self._by_name[descriptor["name"]] = descriptor

    def read(self, name: str) -> array:
        descriptor = self._by_name.get(name)
        if descriptor is None:
            raise InvalidParameterError(
                f"store is missing required segment {name!r}; the manifest "
                f"lists {sorted(self._by_name)}"
            )
        typecode = descriptor["typecode"]
        offset = descriptor["offset"]
        nbytes = descriptor["nbytes"]
        count = descriptor["count"]
        if typecode not in _TYPECODES:
            raise InvalidParameterError(
                f"segment {name!r} has typecode {typecode!r}; stores hold "
                f"only {sorted(_TYPECODES)}"
            )
        data = array(typecode)
        if count < 0 or nbytes != count * data.itemsize:
            raise InvalidParameterError(
                f"segment {name!r} descriptor is inconsistent: {count} items "
                f"of {data.itemsize} bytes cannot span {nbytes} bytes"
            )
        if offset < 0 or offset + nbytes > len(self._payload):
            raise InvalidParameterError(
                f"segment {name!r} lies outside the payload: manifest promises "
                f"{nbytes} bytes at offset {offset}, payload has "
                f"{len(self._payload)} bytes"
            )
        data.frombytes(self._payload[offset : offset + nbytes])
        if self._swap:
            data.byteswap()
        return data


def _swap_into_place(staging: str, directory: str) -> None:
    """Atomically promote the fully-written ``staging`` dir to ``directory``.

    A fresh target is one ``os.rename`` (atomic on POSIX).  Overwriting an
    existing store needs two renames (directories cannot be replaced in
    one step): the old store moves aside, the new one moves in, and the
    old one is deleted only after the swap.  At no instant does
    ``directory`` name a partially written store — the only crash window
    (between the two renames) leaves it *absent*, which ``load_store``
    rejects loudly; the interrupted-exception path even restores the old
    store.  The displaced copy survives as ``<directory>.old.<pid>`` if
    the process dies before cleanup.
    """
    if not os.path.lexists(directory):
        os.rename(staging, directory)
        return
    previous = f"{directory}.old.{os.getpid()}"
    if os.path.lexists(previous):  # pragma: no cover - pid-collision litter
        shutil.rmtree(previous, ignore_errors=True)
    os.rename(directory, previous)
    try:
        checkpoint("store.write.swap")
        os.rename(staging, directory)
    except BaseException:
        # An exception between the renames (including an injected crash)
        # must not leave the target name dangling: put the old store back.
        if not os.path.lexists(directory) and os.path.lexists(previous):
            os.rename(previous, directory)
        raise
    shutil.rmtree(previous, ignore_errors=True)


def write_store(
    directory: str,
    result: ReplacementPathResult,
    meta: Optional[Mapping[str, object]] = None,
) -> StoreHeader:
    """Persist ``result`` to ``directory`` in the versioned store format.

    The result must carry a graph reference (every result produced by
    :meth:`MSRPSolver.solve` does) — the graph is part of the format so
    edge validation works on load.  ``meta`` is an optional provenance
    block (e.g. :meth:`MSRPSolver.store_metadata`).  Returns the header
    that was written.

    The write is **atomic**: both files are staged into a sibling
    temporary directory, fsynced, and renamed into place
    (:func:`_swap_into_place`).  A crash at any point — mid-segment
    write, between the two files, during the swap — leaves ``directory``
    either as the previous complete store or absent, never as a
    half-written directory that ``load_store`` could partially accept.
    The checksum/fingerprint validation on load is the second line of
    defence; this is the first.
    """
    graph = result.graph
    if graph is None:
        raise InvalidParameterError(
            "cannot store a graph-less ReplacementPathResult: the store "
            "format persists the edge set so non-edge queries stay rejected "
            "after a round-trip"
        )

    writer = _SegmentWriter()
    edges = graph.edges()
    writer.add("graph/edge_u", "i", (u for u, _ in edges))
    writer.add("graph/edge_v", "i", (v for _, v in edges))

    for s in result.sources:
        tree = result.source_tree(s)
        writer.add(
            f"tree/{s}/parent",
            "i",
            (_NO_PARENT if p is None else p for p in tree.parent),
        )
        writer.add(f"tree/{s}/dist", "d", tree.dist)
        writer.add(f"tree/{s}/order", "i", tree.order)
        # The result keeps its targets in preorder.
        writer.add(
            f"table/{s}/values", "d", chain.from_iterable(result.table(s).values())
        )

    payload = writer.payload()
    manifest: Dict[str, object] = {
        "magic": MAGIC,
        "format_version": FORMAT_VERSION,
        "byteorder": sys.byteorder,
        "created_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "graph": {
            "num_vertices": graph.num_vertices,
            "num_edges": graph.num_edges,
            "fingerprint": graph_fingerprint(graph),
        },
        "sources": list(result.sources),
        "segments": writer.descriptors(),
        "segments_sha256": hashlib.sha256(payload).hexdigest(),
        "meta": dict(meta) if meta else {},
    }

    target = os.path.abspath(directory)
    parent = os.path.dirname(target)
    os.makedirs(parent, exist_ok=True)
    staging = tempfile.mkdtemp(
        prefix=f"{os.path.basename(target)}.tmp.", dir=parent
    )
    try:
        _write_file_synced(os.path.join(staging, SEGMENTS_NAME), payload)
        checkpoint("store.write.segments")
        manifest_text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
        _write_file_synced(
            os.path.join(staging, MANIFEST_NAME), manifest_text.encode("utf-8")
        )
        _fsync_directory(staging)
        checkpoint("store.write.staged")
        _swap_into_place(staging, target)
    except BaseException:
        shutil.rmtree(staging, ignore_errors=True)
        raise
    _fsync_directory(parent)
    return StoreHeader.from_manifest(manifest)


#: JSON type of every descriptor field the reader uses.
_DESCRIPTOR_FIELDS = (
    ("name", str),
    ("typecode", str),
    ("count", int),
    ("offset", int),
    ("nbytes", int),
)


def _require_type(where: str, value: object, kind: type) -> None:
    """Raise unless ``value`` has JSON type ``kind`` (``bool`` is no ``int``)."""
    if not isinstance(value, kind) or isinstance(value, bool):
        raise InvalidParameterError(
            f"{where} must be a JSON {kind.__name__}, got {value!r}"
        )


def _check_manifest_types(path: str, manifest: Mapping[str, object]) -> None:
    """Check the JSON types of the manifest fields the loaders read.

    The manifest is outside the payload checksum, so a field of the wrong
    type is refused here, by name, before any range check compares it.
    """
    graph_info = manifest.get("graph")
    _require_type(f"{path!r}: field 'graph'", graph_info, dict)
    for field_name, kind in (
        ("num_vertices", int),
        ("num_edges", int),
        ("fingerprint", str),
    ):
        _require_type(
            f"{path!r}: field 'graph.{field_name}'", graph_info.get(field_name), kind
        )
    _require_type(f"{path!r}: field 'meta'", manifest.get("meta", {}), dict)
    sources = manifest.get("sources")
    _require_type(f"{path!r}: field 'sources'", sources, list)
    for source in sources:
        _require_type(f"{path!r}: every entry of 'sources'", source, int)
    segments = manifest.get("segments")
    _require_type(f"{path!r}: field 'segments'", segments, list)
    for index, descriptor in enumerate(segments):
        _require_type(f"{path!r}: segment #{index}", descriptor, dict)
        name = descriptor.get("name")
        label = f"segment {name!r}" if isinstance(name, str) else f"segment #{index}"
        for field_name, kind in _DESCRIPTOR_FIELDS:
            _require_type(
                f"{path!r}: {label} field {field_name!r}",
                descriptor.get(field_name),
                kind,
            )


def _read_manifest(directory: str) -> Dict[str, object]:
    path = os.path.join(directory, MANIFEST_NAME)
    try:
        with open(path) as handle:
            manifest = json.load(handle)
    except FileNotFoundError:
        raise InvalidParameterError(
            f"{directory!r} is not an oracle store: no {MANIFEST_NAME}"
        ) from None
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise InvalidParameterError(
            f"corrupted store header {path!r}: {exc}"
        ) from exc
    if not isinstance(manifest, dict):
        raise InvalidParameterError(
            f"{path!r} is not an oracle store manifest (expected a JSON "
            f"object, got {type(manifest).__name__})"
        )
    if manifest.get("magic") != MAGIC:
        raise InvalidParameterError(
            f"{path!r} is not an oracle store manifest: bad magic "
            f"{manifest.get('magic')!r}, expected {MAGIC!r}"
        )
    version = manifest.get("format_version")
    if version != FORMAT_VERSION:
        raise InvalidParameterError(
            f"store format version mismatch: {path!r} has version "
            f"{version!r}, this build reads version {FORMAT_VERSION}; "
            "re-run `repro-msrp preprocess` to rebuild the store"
        )
    _check_manifest_types(path, manifest)
    # Values no later step names: an unknown byte order would byteswap
    # every segment, and a negative count would pass load_header.
    byteorder = manifest.get("byteorder", sys.byteorder)
    if byteorder not in ("little", "big"):
        raise InvalidParameterError(
            f"{path!r}: field 'byteorder' must be 'little' or 'big', got {byteorder!r}"
        )
    for field_name in ("num_vertices", "num_edges"):
        if manifest["graph"][field_name] < 0:
            raise InvalidParameterError(
                f"{path!r}: field 'graph.{field_name}' must be non-negative, "
                f"got {manifest['graph'][field_name]}"
            )
    return manifest


def load_header(directory: str) -> StoreHeader:
    """Read and validate only the store header (cheap; no segment decode)."""
    return StoreHeader.from_manifest(_read_manifest(directory))


def load_store(
    directory: str, mmap: bool = True
) -> Tuple[ReplacementPathResult, StoreHeader]:
    """Load a store back into a queryable result.

    Validates, in order: manifest magic and format version, the JSON types
    of the manifest fields, the byte order and the graph counts, the
    SHA-256 of the segment payload, each
    segment descriptor against the payload, the graph fingerprint
    (recomputed from the decoded edge segments against the header's
    claim), each source's tree against ``bfs_tree_csr(graph, s)`` and
    each values segment against its tree.  Any mismatch
    raises :class:`~repro.exceptions.InvalidParameterError` naming the
    expected and actual values.  All infinities are re-canonicalised onto
    the ``math.inf`` singleton on the way in.

    ``mmap`` selects how ``segments.bin`` is brought in.  The default
    (``True``) maps it read-only: the payload is checksummed *in place*
    over the map, before anything is decoded, and each segment is then
    decoded from its own slice, so the whole payload is never copied at
    once.  ``False`` reads the file into memory first.  Both paths run the
    same decoder and produce identical results, and the map is released
    before returning.
    """
    manifest = _read_manifest(directory)
    header = StoreHeader.from_manifest(manifest)

    segments_path = os.path.join(directory, SEGMENTS_NAME)
    mapped = None
    try:
        with open(segments_path, "rb") as handle:
            if mmap and os.fstat(handle.fileno()).st_size:
                mapped = mmap_module.mmap(
                    handle.fileno(), 0, access=mmap_module.ACCESS_READ
                )
                payload = mapped
            else:
                # Classic path (and the empty-payload case, which mmap
                # cannot map).
                payload = handle.read()
    except FileNotFoundError:
        raise InvalidParameterError(
            f"store {directory!r} has a manifest but no {SEGMENTS_NAME}"
        ) from None

    try:
        # Checksum-before-map-use contract: the whole payload is verified
        # (over the map itself — no copy) before any segment is decoded.
        actual_sha = hashlib.sha256(payload).hexdigest()
        if actual_sha != header.segments_sha256:
            raise InvalidParameterError(
                f"store segment payload is corrupted: manifest records sha256 "
                f"{header.segments_sha256}, {SEGMENTS_NAME} hashes to {actual_sha}"
            )

        reader = _SegmentReader(payload, manifest)
        edge_u = reader.read("graph/edge_u").tolist()
        edge_v = reader.read("graph/edge_v").tolist()
        graph = Graph(header.num_vertices, zip(edge_u, edge_v))
        actual_fingerprint = graph_fingerprint(graph)
        if actual_fingerprint != header.fingerprint:
            raise InvalidParameterError(
                f"store graph fingerprint mismatch: manifest records "
                f"{header.fingerprint}, decoded edge segments fingerprint to "
                f"{actual_fingerprint}; the header does not describe this payload"
            )

        inf = math.inf
        tables: Dict[int, PerSourceTable] = {}
        trees: Dict[int, ShortestPathTree] = {}
        for s in header.sources:
            parent_raw = reader.read(f"tree/{s}/parent").tolist()
            dist_raw = reader.read(f"tree/{s}/dist").tolist()
            order = reader.read(f"tree/{s}/order").tolist()
            parent = [None if p == _NO_PARENT else p for p in parent_raw]
            dist = [inf if d == inf else d for d in dist_raw]
            # Stores are written from solver results, whose trees are the
            # graph's BFS trees; this also refuses out-of-range and cyclic
            # parents, which the preorder split below would trip over.
            expected = bfs_tree_csr(graph, s)
            if (parent, dist, order) != (expected.parent, expected.dist, expected.order):
                raise InvalidParameterError(
                    f"tree/{s} segments do not hold the BFS tree of source {s} "
                    "in the stored graph"
                )
            tree = trees[s] = ShortestPathTree(s, parent, dist, order)

            values = reader.read(f"table/{s}/values").tolist()
            per_source: PerSourceTable = {}
            cursor = 0
            for target in tree.preorder()[1:]:
                end = cursor + int(dist[target])
                per_source[target] = values[cursor:end]
                cursor = end
            if cursor != len(values):
                raise InvalidParameterError(
                    f"table/{s}/values holds {len(values)} lengths, but the "
                    f"distances of source {s}'s targets sum to {cursor}"
                )
            tables[s] = per_source

        # The constructor re-canonicalises infinite values and re-checks
        # the table shape against the trees.
        result = ReplacementPathResult(tables, trees, graph=graph)
        return result, header
    finally:
        if mapped is not None:
            # Segments were decoded from copied slices, so nothing still
            # points into the map.
            mapped.close()
