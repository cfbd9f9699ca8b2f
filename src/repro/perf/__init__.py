"""The closed-form trial engine and its one switch (DESIGN.md §15).

This package hosts the trial fast path (:mod:`repro.perf.fastpath`):
on reliable synchronous channels it replaces the round scheduler with
closed forms evaluated on Python-int bitsets, and must reproduce the
scheduler's observable results bit for bit (verdicts, traffic bytes,
figure rows, artefact payloads).  It needs nothing beyond the standard
library, so every install runs it.

:func:`scheduler_forced` is the one switch that turns it off: with the
``REPRO_NO_NUMPY`` environment variable set to anything but ``""`` or
``"0"``, every trial runs on the round scheduler (the name is
historical).  The variable is read on every call, not once at import,
so a process may set it after ``import repro`` (the benchmark's
reference repetition does), and sharded workers inherit it.  The
equivalence is pinned by ``tests/test_perf_kernels.py``, by golden rows
and by CI's ``repro diff`` legs between the two engines.
"""

from __future__ import annotations

import os

#: the environment variable that forces every trial onto the scheduler.
SCHEDULER_SWITCH = "REPRO_NO_NUMPY"


def scheduler_forced() -> bool:
    """Whether :data:`SCHEDULER_SWITCH` forces the round scheduler."""
    return os.environ.get(SCHEDULER_SWITCH, "") not in ("", "0")


__all__ = ["SCHEDULER_SWITCH", "scheduler_forced"]
