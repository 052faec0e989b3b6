"""Append-only checkpoint journal for resumable sharded solves.

A long solve is a sequence of sharded phases, each a pure function of
``(context, keys)``.  The journal records each *completed chunk's*
results on disk as the solve runs, so a killed solve resumes by
re-executing only the keys with no journaled result — and, because the
tasks are deterministic, the merged output is byte-identical to what an
uninterrupted run would have produced.

Layout (one directory per solve attempt)::

    <dir>/JOURNAL.json                       # identity manifest
    <dir>/records/<phase>.<chunk-hash>.pkl   # one file per journaled chunk

The manifest binds the journal to exactly one workload: the graph
fingerprint, a hash of the result-affecting :class:`AlgorithmParams`
fields, the landmark strategy and the source set.  Opening the journal
with a different identity fails loudly — resuming someone else's solve
would silently splice wrong answers into the output, the one failure
mode the correct-or-loud contract forbids.

Each record file is published with the same synced-temp-file + rename
discipline as the oracle store (:mod:`repro.store.atomic`), so a crash
mid-append leaves either a complete record or no record; a torn pickle
is impossible by construction and still rejected loudly if it somehow
appears.  Records are keyed by phase id and a hash of the chunk's keys,
so re-executing a chunk after a crash-before-rename simply overwrites
the same record with identical bytes.

Resume is **key-granular**, not chunk-granular: a phase's journaled
records are unioned into one ``{key: value}`` map and only the absent
keys re-execute.  Chunk boundaries depend on the worker count, so this
is what lets a solve journaled under ``--workers 4`` resume under
``--workers 0`` (or vice versa) without recomputing journaled keys —
the merge order is defined by the input key list either way, preserving
the byte-identical-at-any-worker-count invariant.

Fault hooks (:mod:`repro.faults`): ``journal.record`` fires after every
record append and ``journal.phase.<task>`` after every phase that did
fresh work, so the chaos battery can kill a solve at a deterministic
point mid-journal.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import time
from typing import Any, Dict, Hashable, List, Optional, Sequence

from repro.exceptions import InvalidParameterError
from repro.faults.harness import checkpoint
from repro.store.atomic import atomic_write_file

#: Manifest magic string — first thing validated on open.
JOURNAL_MAGIC = "repro-msrp-journal"

#: Journal layout version; bumps on incompatible change, no migration.
#: Version 2: the Section 7.1 and Section 8 records hold flat
#: ``(endpoint, edge)`` tables; a version 1 record replayed into the flat
#: readers would miss every key and silently underestimate.
JOURNAL_FORMAT_VERSION = 2

MANIFEST_NAME = "JOURNAL.json"
RECORDS_DIR_NAME = "records"


def _chunk_digest(keys: Sequence[Hashable]) -> str:
    """Stable short digest naming a chunk's record file."""
    blob = repr(list(keys)).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


class CheckpointJournal:
    """One solve attempt's on-disk record of completed chunks.

    Construct via :meth:`open` (which creates or validates the
    directory); executors call :meth:`load_phase` before running a phase
    and :meth:`append` after each completed chunk.  The object is
    parent-side only — workers never touch the journal, so no
    cross-process coordination is needed beyond the atomic renames.
    """

    def __init__(self, directory: str, manifest: Dict[str, Any]):
        self.directory = directory
        self.manifest = manifest
        self._records_dir = os.path.join(directory, RECORDS_DIR_NAME)
        #: record files read back by load_phase() in this process
        self.records_loaded = 0
        #: record files written by append() in this process
        self.records_written = 0

    @classmethod
    def open(
        cls, directory: str, identity: Optional[Dict[str, Any]] = None
    ) -> "CheckpointJournal":
        """Create the journal at ``directory``, or re-open a matching one.

        ``identity`` is an arbitrary JSON-serialisable dict pinning the
        workload (graph fingerprint, params hash, sources).  Re-opening
        an existing journal whose manifest holds a *different* identity
        raises :class:`InvalidParameterError` — delete the directory (or
        pick another) to start over.
        """
        identity = dict(identity or {})
        directory = os.path.abspath(directory)
        manifest_path = os.path.join(directory, MANIFEST_NAME)
        if os.path.exists(manifest_path):
            try:
                with open(manifest_path, "r", encoding="utf-8") as handle:
                    manifest = json.load(handle)
            except (OSError, ValueError) as exc:
                raise InvalidParameterError(
                    f"checkpoint journal manifest {manifest_path!r} is "
                    f"unreadable: {exc}"
                ) from exc
            if manifest.get("magic") != JOURNAL_MAGIC:
                raise InvalidParameterError(
                    f"{manifest_path!r} is not a checkpoint journal "
                    f"(magic={manifest.get('magic')!r})"
                )
            if manifest.get("format_version") != JOURNAL_FORMAT_VERSION:
                raise InvalidParameterError(
                    f"checkpoint journal {directory!r} has format_version "
                    f"{manifest.get('format_version')!r}; this build reads "
                    f"{JOURNAL_FORMAT_VERSION} and does not migrate — "
                    f"delete the directory and re-run"
                )
            if manifest.get("identity") != identity:
                raise InvalidParameterError(
                    f"checkpoint journal {directory!r} belongs to a "
                    f"different solve (journal identity "
                    f"{manifest.get('identity')!r} != this solve's "
                    f"{identity!r}); resuming would splice mismatched "
                    f"results — delete the directory or point --checkpoint "
                    f"elsewhere"
                )
        else:
            manifest = {
                "magic": JOURNAL_MAGIC,
                "format_version": JOURNAL_FORMAT_VERSION,
                "created_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
                "identity": identity,
            }
            os.makedirs(directory, exist_ok=True)
            atomic_write_file(
                manifest_path,
                (json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode(
                    "utf-8"
                ),
            )
        os.makedirs(os.path.join(directory, RECORDS_DIR_NAME), exist_ok=True)
        return cls(directory, manifest)

    # -- phase I/O ---------------------------------------------------------

    def load_phase(self, phase_id: str) -> Dict[Hashable, Any]:
        """Union of every journaled ``{key: value}`` record of ``phase_id``."""
        merged: Dict[Hashable, Any] = {}
        prefix = phase_id + "."
        try:
            names = sorted(os.listdir(self._records_dir))
        except OSError:
            return merged
        for name in names:
            if not (name.startswith(prefix) and name.endswith(".pkl")):
                continue
            path = os.path.join(self._records_dir, name)
            try:
                with open(path, "rb") as handle:
                    record = pickle.load(handle)
                results = record["results"]
                recorded_phase = record["phase"]
            except Exception as exc:
                raise InvalidParameterError(
                    f"checkpoint record {path!r} is corrupt ({exc!r}); "
                    f"delete the journal directory and re-run from scratch"
                ) from exc
            if recorded_phase != phase_id:
                raise InvalidParameterError(
                    f"checkpoint record {path!r} claims phase "
                    f"{recorded_phase!r} but was filed under {phase_id!r}"
                )
            merged.update(results)
            self.records_loaded += 1
        return merged

    def append(
        self,
        phase_id: str,
        keys: Sequence[Hashable],
        results: Dict[Hashable, Any],
    ) -> None:
        """Durably record one completed chunk's results."""
        key_list: List[Hashable] = list(keys)
        blob = pickle.dumps(
            {"phase": phase_id, "keys": key_list, "results": results},
            pickle.HIGHEST_PROTOCOL,
        )
        name = f"{phase_id}.{_chunk_digest(key_list)}.pkl"
        atomic_write_file(os.path.join(self._records_dir, name), blob)
        self.records_written += 1
        checkpoint("journal.record")

    def phase_complete(self, task_name: str) -> None:
        """Fault hook marking a phase that just finished fresh work."""
        checkpoint(f"journal.phase.{task_name}")

    def stats(self) -> Dict[str, int]:
        """Counters for solve stats / bench rows."""
        return {
            "records_loaded": self.records_loaded,
            "records_written": self.records_written,
        }
