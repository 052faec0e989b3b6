"""Deterministic fault injection for the chaos batteries.

The robustness contract of this codebase is *correct or loud*: under any
single fault — a solve killed mid-journal, a dropped client connection, a
truncated store file, a crash mid-``write_store`` — the system must either
produce a result fingerprint-identical to the fault-free run or raise a
typed :class:`~repro.exceptions.ReproError`.  Never a hang, never a silent
wrong answer.  This module is the harness that *creates* those faults
reproducibly so the contract can be asserted by ordinary tests.

Design
------
A :class:`FaultPlan` is a list of :class:`Fault` records serialised to a
JSON file; the ``REPRO_FAULT_PLAN`` environment variable points running
code at it.  Production code calls tiny hook functions at its fault
points (:func:`checkpoint` in the store writer and the checkpoint
journal, :func:`connection_action` in the server's accept path); with
no plan installed every hook is a single dict lookup, so the hooks are
safe to leave in hot-ish paths.

Faults are **one-shot by default** and claimed atomically across
processes: each firing creates a marker file next to the plan with
``os.open(..., O_CREAT | O_EXCL)``, so a resumed solve does not
re-trigger the crash that interrupted it (``times`` raises the budget
for always-fail scenarios).  The marker files double as test
instrumentation: :func:`fired_count` proves an injected fault actually
fired.

Determinism comes from seeds, not wall clocks: fault parameters for the
seeded chaos sweeps are derived with :func:`derive_fault_index`, a tagged
child of the test seed (same derivation the sampling layer uses), so a
failing seed replays exactly.

Fault kinds
-----------
``crash_at``
    Raise :class:`InjectedFault` at the named :func:`checkpoint` — used to
    interrupt ``write_store`` between its staging steps and checkpointed
    solves mid-journal (``journal.record``, ``journal.phase.<task>``).
``drop_connection``
    Close the ``connection_index``-th accepted server connection without
    a response (client sees an abrupt reset).
``delay_connection``
    Stall the first request of the ``connection_index``-th accepted
    connection for ``seconds`` mid-processing (exercises graceful drain).
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.exceptions import InvalidParameterError, ReproError

#: Environment variable holding the path of the active fault-plan file.
PLAN_ENV = "REPRO_FAULT_PLAN"

#: Fault kinds hooked into named checkpoints (store writer, journal).
CHECKPOINT_KINDS = frozenset({"crash_at"})
#: Fault kinds hooked into the server's connection accept path.
CONNECTION_KINDS = frozenset({"drop_connection", "delay_connection"})
KINDS = CHECKPOINT_KINDS | CONNECTION_KINDS


class InjectedFault(ReproError):
    """The typed error raised by exception-style injected faults.

    Derives :class:`ReproError` so an injected crash travels the same
    error paths a real library failure would (CLI exit 1, client
    re-raise) — the chaos battery asserts faults stay *loud and typed*.
    """


@dataclass(frozen=True)
class Fault:
    """One injected fault: a kind plus its trigger parameters."""

    kind: str
    #: checkpoint name (``crash_at``), e.g. ``"store.write.staged"``.
    at: Optional[str] = None
    #: zero-based accepted-connection counter (``CONNECTION_KINDS``).
    connection_index: Optional[int] = None
    #: sleep duration for ``delay_connection``.
    seconds: float = 0.0
    #: how many times this fault may fire (claims are cross-process).
    times: int = 1

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise InvalidParameterError(
                f"unknown fault kind {self.kind!r}; choose one of {sorted(KINDS)}"
            )
        if self.times < 1:
            raise InvalidParameterError(
                f"fault times must be at least 1, got {self.times}"
            )
        if self.kind in CHECKPOINT_KINDS and not self.at:
            raise InvalidParameterError(f"{self.kind} fault needs at=<checkpoint>")
        if self.kind in CONNECTION_KINDS and self.connection_index is None:
            raise InvalidParameterError(
                f"{self.kind} fault needs connection_index"
            )


@dataclass(frozen=True)
class FaultPlan:
    """An ordered list of faults, serialisable to the plan file."""

    faults: Tuple[Fault, ...]

    def __init__(self, faults: Sequence[Fault]):
        object.__setattr__(self, "faults", tuple(faults))

    def to_manifest(self) -> Dict[str, object]:
        return {"faults": [asdict(fault) for fault in self.faults]}

    @classmethod
    def from_manifest(cls, manifest: Dict[str, object]) -> "FaultPlan":
        return cls([Fault(**raw) for raw in manifest.get("faults", [])])


def install_plan(plan: FaultPlan, directory: str) -> str:
    """Write ``plan`` into ``directory`` and return the plan file's path.

    The caller (normally a test) points ``REPRO_FAULT_PLAN`` at the
    returned path; child processes inherit the variable.
    """
    path = os.path.join(directory, "fault_plan.json")
    with open(path, "w") as handle:
        json.dump(plan.to_manifest(), handle, indent=2)
    return path


@contextmanager
def active_plan(plan: FaultPlan, directory: str) -> Iterator[str]:
    """Install ``plan`` and export ``REPRO_FAULT_PLAN`` for the block."""
    path = install_plan(plan, directory)
    previous = os.environ.get(PLAN_ENV)
    os.environ[PLAN_ENV] = path
    try:
        yield path
    finally:
        if previous is None:
            os.environ.pop(PLAN_ENV, None)
        else:
            os.environ[PLAN_ENV] = previous


def fired_count(plan_path: str, fault_index: Optional[int] = None) -> int:
    """How many times the plan's faults fired (via claim marker files)."""
    directory, name = os.path.split(plan_path)
    prefix = f"{name}.fired."
    count = 0
    for entry in os.listdir(directory or "."):
        if not entry.startswith(prefix):
            continue
        if fault_index is not None:
            if entry.split(".fired.", 1)[1].split(".")[0] != str(fault_index):
                continue
        count += 1
    return count


def derive_fault_index(seed: Optional[int], tag: str, n: int) -> int:
    """Seeded, tagged choice of a fault target in ``range(n)``.

    Uses the parallel layer's tagged child-seed derivation so chaos
    sweeps are reproducible across runs and platforms.
    """
    from repro.parallel.seeding import child_rng

    if n <= 0:
        raise InvalidParameterError(f"derive_fault_index needs n >= 1, got {n}")
    return child_rng(seed, "faults", tag).randrange(n)


# ---------------------------------------------------------------------------
# plan lookup + one-shot claims (hook-side machinery)
# ---------------------------------------------------------------------------

#: Per-process plan cache: path -> parsed plan (plans are immutable).
_PLAN_CACHE: Dict[str, FaultPlan] = {}


def _current_plan() -> Optional[Tuple[str, FaultPlan]]:
    path = os.environ.get(PLAN_ENV)
    if not path:
        return None
    plan = _PLAN_CACHE.get(path)
    if plan is None:
        try:
            with open(path) as handle:
                plan = FaultPlan.from_manifest(json.load(handle))
        except (OSError, json.JSONDecodeError) as exc:
            raise InvalidParameterError(
                f"{PLAN_ENV}={path!r} does not point at a readable fault "
                f"plan: {exc}"
            ) from exc
        _PLAN_CACHE[path] = plan
    return path, plan


def _claim(plan_path: str, fault_index: int, fault: Fault) -> bool:
    """Atomically claim one firing of ``fault`` (cross-process, one-shot).

    Marker files are created with ``O_CREAT | O_EXCL``, so exactly one
    process wins each of the ``times`` slots even when several processes
    share the plan.
    """
    for slot in range(fault.times):
        marker = f"{plan_path}.fired.{fault_index}.{slot}"
        try:
            os.close(os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
            return True
        except FileExistsError:
            continue
    return False


def checkpoint(name: str) -> None:
    """Named-checkpoint hook: simulate a crash at ``name``.

    ``write_store`` calls this between its staging steps
    (``store.write.segments``, ``store.write.staged``,
    ``store.write.swap``) and the checkpoint journal after each durable
    step (``journal.record`` after every record append,
    ``journal.phase.<task>`` after every phase that journaled fresh
    work); a matching ``crash_at`` fault raises :class:`InjectedFault`,
    modelling the process dying at that point.
    """
    current = _current_plan()
    if current is None:
        return
    path, plan = current
    for index, fault in enumerate(plan.faults):
        if fault.kind in CHECKPOINT_KINDS and fault.at == name:
            if _claim(path, index, fault):
                raise InjectedFault(f"injected crash at checkpoint {name!r}")


def connection_action(connection_index: int) -> Optional[Fault]:
    """Server hook: the fault (if any) aimed at the Nth accepted connection.

    Returns the fault record so the (async) server can apply the action
    itself — dropping is a socket close, delaying is an ``await sleep`` —
    while this module stays synchronous and transport-agnostic.
    """
    current = _current_plan()
    if current is None:
        return None
    path, plan = current
    for index, fault in enumerate(plan.faults):
        if (
            fault.kind in CONNECTION_KINDS
            and fault.connection_index == connection_index
        ):
            if _claim(path, index, fault):
                return fault
    return None


# ---------------------------------------------------------------------------
# seeded store corruption
# ---------------------------------------------------------------------------

#: The corruption modes ``corrupt_store`` cycles through, seed-selected.
CORRUPTIONS = (
    "flip_segment_byte",
    "truncate_segments",
    "truncate_manifest",
    "delete_segments",
)


def corrupt_store(directory: str, seed: int) -> str:
    """Seed-deterministically corrupt an on-disk oracle store.

    Picks a corruption mode and its offset from a tagged child RNG of
    ``seed`` and applies it in place.  Returns a human-readable
    description of what was done; the chaos battery asserts that loading
    the mutilated store raises a typed error for every seed.
    """
    from repro.parallel.seeding import child_rng
    from repro.store.format import MANIFEST_NAME, SEGMENTS_NAME

    rng = child_rng(seed, "faults", "corrupt-store")
    mode = CORRUPTIONS[rng.randrange(len(CORRUPTIONS))]
    segments = os.path.join(directory, SEGMENTS_NAME)
    manifest = os.path.join(directory, MANIFEST_NAME)
    if mode == "flip_segment_byte":
        size = os.path.getsize(segments)
        offset = rng.randrange(size)
        with open(segments, "r+b") as handle:
            handle.seek(offset)
            byte = handle.read(1)
            handle.seek(offset)
            handle.write(bytes([byte[0] ^ 0xFF]))
        return f"flipped byte {offset} of {SEGMENTS_NAME}"
    if mode == "truncate_segments":
        size = os.path.getsize(segments)
        keep = rng.randrange(size)
        with open(segments, "r+b") as handle:
            handle.truncate(keep)
        return f"truncated {SEGMENTS_NAME} from {size} to {keep} bytes"
    if mode == "truncate_manifest":
        size = os.path.getsize(manifest)
        keep = rng.randrange(max(1, size - 2))
        with open(manifest, "r+b") as handle:
            handle.truncate(keep)
        return f"truncated {MANIFEST_NAME} from {size} to {keep} bytes"
    os.remove(segments)
    return f"deleted {SEGMENTS_NAME}"
