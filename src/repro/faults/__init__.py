"""Deterministic fault injection (the chaos harness).

Seeded, reproducible failures for every subsystem with a fault surface:
crash ``write_store`` or a checkpointed solve at a named checkpoint, drop
or delay the Nth accepted server connection, corrupt store bytes.  The
chaos batteries (``tests/test_faults_*.py`` and
``tests/test_checkpoint_resume.py``) use this package to assert the
system-wide contract: under any injected fault the result is
fingerprint-identical to the fault-free run, or a typed
:class:`~repro.exceptions.ReproError` is raised — never a hang, never a
silent wrong answer.  See :mod:`repro.faults.harness` for the
plan format and hook points, and ``docs/robustness.md`` for the
failure-mode matrix this harness pins.
"""

from repro.faults.harness import (
    CONNECTION_KINDS,
    CORRUPTIONS,
    KINDS,
    PLAN_ENV,
    Fault,
    FaultPlan,
    InjectedFault,
    active_plan,
    checkpoint,
    connection_action,
    corrupt_store,
    derive_fault_index,
    fired_count,
    install_plan,
)

__all__ = [
    "CONNECTION_KINDS",
    "CORRUPTIONS",
    "KINDS",
    "PLAN_ENV",
    "Fault",
    "FaultPlan",
    "InjectedFault",
    "active_plan",
    "checkpoint",
    "connection_action",
    "corrupt_store",
    "derive_fault_index",
    "fired_count",
    "install_plan",
]
