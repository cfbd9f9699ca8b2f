"""Vectorized verification core (DESIGN.md §15).

This package hosts the numpy-accelerated array-based trial fast path
(:mod:`repro.perf.fastpath`, over the dense kernels of
:mod:`repro.perf.kernels`) plus the switchboard that decides whether
it runs at all.  κ certification is not accelerated here: it runs one
pure-Python engine (:mod:`repro.graphs.connectivity`) on every leg.

The contract is strict equivalence: every kernel is a drop-in for an
existing pure-Python path and must produce bit-identical observable
results (verdicts, traffic bytes, figure rows, artefact payloads).
numpy is therefore an *optional* dependency (the ``[perf]`` packaging
extra): when it is missing — or disabled via the ``REPRO_NO_NUMPY``
environment variable, or :func:`force_kernels` — callers silently take
the historical scalar code, and the outputs do not change by a single
byte.  The equivalence is pinned by the property suite in
``tests/test_perf_kernels.py`` and by the golden-row/bench row-sha
gates in CI.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from types import ModuleType
from typing import Iterator

#: tri-state test/bench override: None = auto-detect, True = require
#: numpy (raises if missing), False = scalar paths only.
_FORCED: bool | None = None

#: memoised import result; ``None`` means "not probed yet".
_NUMPY: tuple[ModuleType | None] | None = None


def numpy_or_none() -> ModuleType | None:
    """The numpy module, or None when unavailable or switched off.

    The ``REPRO_NO_NUMPY=1`` environment variable simulates an
    environment without the ``[perf]`` extra (the CI fallback leg);
    it is honoured even when numpy is importable.
    """
    global _NUMPY
    if os.environ.get("REPRO_NO_NUMPY", "") not in ("", "0"):
        return None
    if _NUMPY is None:
        try:
            import numpy  # noqa: PLC0415 - optional dependency probe
        except ImportError:  # pragma: no cover - exercised via env gate
            _NUMPY = (None,)
        else:
            _NUMPY = (numpy,)
    return _NUMPY[0]


def kernels_enabled() -> bool:
    """Whether the vectorized kernels should run.

    Auto-detection (numpy importable and not disabled) unless a
    :func:`force_kernels` override is active.
    """
    if _FORCED is not None:
        return _FORCED
    return numpy_or_none() is not None


def numpy_version() -> str | None:
    """numpy's version string, or None when the kernels are scalar."""
    module = numpy_or_none()
    return getattr(module, "__version__", None) if module is not None else None


@contextmanager
def force_kernels(enabled: bool | None) -> Iterator[None]:
    """Temporarily force the kernels on, off, or back to auto (None).

    Forcing ``True`` on a numpy-less interpreter raises immediately —
    a bench asked to measure the vectorized mode must not silently
    measure the fallback.
    """
    global _FORCED
    if enabled is True and numpy_or_none() is None:
        raise RuntimeError(
            "cannot force vectorized kernels on: numpy is not available "
            "(install the [perf] extra or unset REPRO_NO_NUMPY)"
        )
    previous = _FORCED
    _FORCED = enabled
    try:
        yield
    finally:
        _FORCED = previous


def provenance() -> dict:
    """Kernel provenance for ledgers: mode plus numpy version."""
    vectorized = kernels_enabled()
    return {
        "vectorized": vectorized,
        "numpy": numpy_version() if vectorized else None,
    }


__all__ = [
    "force_kernels",
    "kernels_enabled",
    "numpy_or_none",
    "numpy_version",
    "provenance",
]
