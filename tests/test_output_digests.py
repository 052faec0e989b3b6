"""Byte-level pins of ``solve()`` output on benchmark instances.

Equality-based tests cannot tell ``7`` from ``7.0``, and the other
batteries compare one tier or worker count against another, so a change
that alters every run alike passes them.  This module hashes
``(s, t, e, repr(value))`` over every entry of a few ``perfbench`` pool
instances, in the result's iteration order, and compares the digests with
values recorded before the candidate scans were bounded by
``d(s, x) + d(x, t)``.  A speed-up that claims to leave the output
unchanged must leave these digests unchanged; a change that is meant to
alter the output re-records them and says why.

The instances are the ones ``perfbench/run.py`` draws from (both
landmark strategies, the near and the far regime); four solves take about
two seconds.
"""

from __future__ import annotations

import hashlib

import pytest

from perfbench.workloads import WORKLOADS, build_instance, make_solver

#: (workload, instance seed) -> (entries, sha256 of the entry lines)
RECORDED = {
    ("sparse-aux", 2): (
        1494, "d62aa3b407d80e73e22161ec4dbb088133fc6464f3ed03fde3df36668f44aef5"
    ),
    ("sparse-aux", 4): (
        1469, "a2ef575e94bc16d24bff0916388be87c6bd8dcf407f2df6662deff2cd4dc7182"
    ),
    ("far-clusters", 1): (
        5914, "00c04adc8d0011bcc817a0d06cfddb37590abe15e486dcf65c1a8ef2310fdde1"
    ),
    ("far-clusters", 2): (
        6267, "47dc2d2f465ac8d7245a25fedd162fbf5ff8aea40009a35430a81173f88528c7"
    ),
}


def output_digest(result) -> str:
    """SHA-256 of one ``s t u v repr(value)`` line per entry."""
    digest = hashlib.sha256()
    for s, t, (u, v), value in result.iter_entries():
        digest.update(f"{s} {t} {u} {v} {value!r}\n".encode())
    return digest.hexdigest()


@pytest.mark.parametrize("name,seed", sorted(RECORDED))
def test_solve_output_matches_recorded_digest(name, seed):
    workload = WORKLOADS[name]
    assert seed in workload.pool
    result = make_solver(workload, build_instance(workload, seed)).solve()
    assert (result.output_size, output_digest(result)) == RECORDED[name, seed]


def test_digest_tells_int_from_float():
    """The reason this module exists: ``7 == 7.0`` but the lines differ."""

    class _Entries:
        def __init__(self, value):
            self._value = value

        def iter_entries(self):
            yield 0, 1, (0, 1), self._value

    assert 7 == 7.0
    assert output_digest(_Entries(7)) != output_digest(_Entries(7.0))
