"""Sharded trial execution for figure sweeps (DESIGN.md §6.3, §7).

A figure sweep is an embarrassingly parallel grid: every cell builds
its own deployment from an explicit seed and shares no mutable state
with its siblings.  :func:`parallel_map` fans such cells out over a
``multiprocessing`` pool while keeping the *results* bit-identical to
a serial run — results come back in submission order, and every cell's
randomness flows exclusively from the seed in its argument tuple, never
from ambient RNG state.  ``tests/test_parallel.py`` pins serial ≡
parallel for every worker count.

The primary client is the declarative sweep engine
(:mod:`repro.experiments.spec`): :func:`colocation_chunks` plans every
sweep's cells into shards and one call maps the shard executor
(:func:`~repro.experiments.spec.execute_cells`) over them.  Artifact
shards return their process's cache delta tagged with its ``origin``;
the collector merges only deltas from other processes, exactly as on
the fabric queue (:mod:`repro.fabric`), which shares all three.

Worker-count resolution (:func:`resolve_workers`):

* an explicit ``workers`` argument wins (``0`` means one per CPU);
* else the ``REPRO_WORKERS`` environment variable (same convention);
* else serial — parallelism is strictly opt-in, because under the
  default 1-worker resolution the pool is bypassed entirely and the
  sweep runs in-process exactly as before.

:func:`trial_seeds` derives per-trial seeds by hashing
``(base_seed, index)``, so shards are statistically independent and a
trial's seed never depends on which worker runs it or how many trials
surround it.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
from typing import Callable, Iterable, Sequence, TypeVar

_Item = TypeVar("_Item")
_Result = TypeVar("_Result")

#: Environment variable supplying the default worker count.
WORKERS_ENV = "REPRO_WORKERS"


def resolve_workers(workers: int | None = None) -> int:
    """Turn a worker request into a concrete process count (>= 1).

    Args:
        workers: explicit request; ``None`` defers to the
            ``REPRO_WORKERS`` environment variable, ``0`` means one
            worker per CPU.

    Raises:
        ValueError: on a negative request (including via the
            environment variable).
    """
    if workers is None:
        raw = os.environ.get(WORKERS_ENV, "").strip()
        try:
            workers = int(raw) if raw else 1
        except ValueError:
            raise ValueError(
                f"{WORKERS_ENV} must be an integer, got {raw!r}"
            ) from None
    if workers < 0:
        raise ValueError(f"worker count cannot be negative, got {workers}")
    if workers == 0:
        return os.cpu_count() or 1
    return workers


def trial_seeds(base_seed: int, count: int) -> list[int]:
    """``count`` independent 63-bit seeds derived from ``base_seed``.

    Deterministic, collision-resistant (SHA-256 of ``(base, index)``)
    and prefix-stable: growing ``count`` never changes earlier seeds,
    so extending a sweep keeps its existing trials.
    """
    if count < 0:
        raise ValueError("count cannot be negative")
    seeds = []
    for index in range(count):
        digest = hashlib.sha256(f"repro-trial|{base_seed}|{index}".encode()).digest()
        seeds.append(int.from_bytes(digest[:8], "big") >> 1)
    return seeds


def _apply_chunk(payload: tuple) -> list:
    """Run one colocated chunk in a single worker, in item order.

    Module-level so the pool can pickle it; the chunk's items share the
    worker's process-local state (memos, caches) by construction —
    which is the entire point of colocation.
    """
    fn, chunk = payload
    return [fn(item) for item in chunk]


def colocation_chunks(
    sequence: Sequence, colocate: Callable[[object], object]
) -> list[list[int]]:
    """Partition item indices into shard chunks by colocation key.

    Items whose key is ``None`` form singleton chunks (no colocation
    request); items with equal keys share one chunk, ordered by first
    appearance — so results can be reassembled into submission order
    and a serial run visits items in an order any single chunk agrees
    with.

    Shared shard-planning logic: the in-process pool below and the
    distributed sweep fabric (:mod:`repro.fabric`, DESIGN.md §13) both
    plan their work units through this function, so a mission's measure
    cells land on one worker — one process-local memo — on either
    execution substrate.
    """
    chunks: list[list[int]] = []
    by_key: dict[object, list[int]] = {}
    for index, item in enumerate(sequence):
        key = colocate(item)
        if key is None:
            chunks.append([index])
            continue
        group = by_key.get(key)
        if group is None:
            group = []
            by_key[key] = group
            chunks.append(group)
        group.append(index)
    return chunks


def parallel_map(
    fn: Callable[[_Item], _Result],
    items: Iterable[_Item],
    workers: int | None = None,
    initializer: Callable[..., None] | None = None,
    initargs: tuple = (),
    colocate: Callable[[_Item], object] | None = None,
) -> list[_Result]:
    """Apply ``fn`` to every item, optionally across worker processes.

    Results are returned in item order regardless of completion order
    or worker count.  With one resolved worker (the default), or a
    single chunk to run, the pool is bypassed and this is a plain
    in-process loop.  Otherwise items travel to the pool as chunks:
    :func:`colocation_chunks` groups, singletons when no key is set.

    Args:
        fn: a picklable (module-level) function; each call must be
            self-contained — seeded by its argument, touching no shared
            mutable state.
        items: the argument tuples, one per cell.
        workers: see :func:`resolve_workers`.
        initializer: optional module-level function run once in each
            worker process before any item (the sweep engine uses it to
            install its artifact-cache snapshot, which carries a loaded
            ``--artifact-store`` and starts the worker's delta window,
            DESIGN.md §9.2).  Not
            called on the in-process path — the parent already holds
            whatever state it would install.  Must be a no-op with
            respect to results: items may not depend on it having run.
        initargs: arguments for ``initializer`` (picklable under the
            ``spawn`` start method).
        colocate: optional key function for shard planning: items with
            equal non-``None`` keys are guaranteed to execute in one
            worker process, in submission order (so, e.g., the measure
            series of one mission hit a single worker's memo instead of
            re-flying the mission per series).
            ``None`` keys opt out.  Purely a placement hint — results
            are bit-identical with or without it, because ``fn`` calls
            stay self-contained.
    """
    sequence: Sequence[_Item] = list(items)
    chunks = colocation_chunks(sequence, colocate or (lambda item: None))
    count = min(resolve_workers(workers), len(chunks))
    if count <= 1:
        return [fn(item) for item in sequence]
    # fork is cheapest and inherits sys.path; fall back to the default
    # start method (spawn) where fork is unavailable.
    methods = multiprocessing.get_all_start_methods()
    context = multiprocessing.get_context("fork" if "fork" in methods else None)
    payloads = [(fn, [sequence[index] for index in chunk]) for chunk in chunks]
    with context.Pool(
        processes=count, initializer=initializer, initargs=initargs
    ) as pool:
        chunk_results = pool.map(_apply_chunk, payloads, chunksize=1)
    results: list = [None] * len(sequence)
    for chunk, values in zip(chunks, chunk_results):
        for index, value in zip(chunk, values):
            results[index] = value
    return results
