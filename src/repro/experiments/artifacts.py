"""Sweep-scoped artifact cache (DESIGN.md §9).

The figure sweeps are grids over (topology × adversary × seed) in which
most cells share expensive, *trial-invariant* work: constructing the
topology (or the whole attack scenario, minimum cuts included),
computing connectivity certificates for the ground truth, and
generating signer key material.  The per-trial
:class:`~repro.crypto.cache.VerificationCache` (DESIGN.md §6.1) cannot
help there — its lifetime is one trial.  :class:`ArtifactCache` is the
layer above: a process-wide, content-addressed memo for artifacts whose
value is a pure function of their key, shared by every trial of a sweep
(and, through the optional on-disk layer, across sweeps).

Four stores, one row each of :data:`_STORES` and one lookup path
(:meth:`ArtifactCache._lookup`):

* **topologies** — constructed :class:`~repro.graphs.graph.Graph`
  objects *and* attack-scenario deployments, keyed by the digest of the
  full :class:`~repro.experiments.spec.TopologySpec` payload.  Interning
  makes the parent's feasibility probes and every per-cell rebuild free.
* **connectivity** — κ certificates keyed by ``(graph digest, cutoff)``;
  the ``vertex_connectivity`` calls behind
  :func:`~repro.experiments.runner.compute_ground_truth` (and therefore
  every ``is_byzantine_partitionable`` verdict derived from it) are
  answered once per distinct graph instead of once per trial — the
  connectivity-resilience sweep asks the same κ question for three
  protocol series per cell group.
* **key pools** — :class:`~repro.crypto.keys.KeyStore` objects keyed by
  ``(scheme fingerprint, n, seed)``.  Key generation is deterministic
  per seed, so RSA/HMAC key material is generated once per sweep rather
  than once per trial; with ``env.scheme=rsa-512`` keygen dominates a
  trial, which is where pooling pays most.
* **deployments** — full :class:`~repro.experiments.runner.Deployment`
  records (keys *and* per-edge neighborhood proofs) keyed by ``(graph
  digest, scheme fingerprint, seed)``.  A sweep that replays the same
  topology across its measure series — every mission scenario does —
  builds each edge's proof once per process instead of once per cell;
  the key-pool store alone only amortised keygen, not the proofs.  A
  proof signs on first read, so one that no trial reads is never
  signed, not even when a snapshot or delta pickles its deployment.

Correctness: every store memoises a *pure* builder, so a warm cache is
bit-identical to a cold one — sweep rows, verdicts and traffic stats do
not change, which ``tests/test_artifacts.py`` pins with the cache on vs
off, serial vs sharded.  Enablement is explicit (``env.artifacts``,
default off) so default spec digests and the historical execution path
are untouched.

Sharing: the cache is a module-level singleton (:data:`ARTIFACTS`).
Every artifact is built by the first cell that asks for it, in the
process that runs that cell; nothing is built ahead of the cells.
Workers report what they built back per shard: each artifact shard's
result carries the executing process's :meth:`ArtifactCache.drain_delta`
and ``origin``, and the collector merges a delta
(:meth:`ArtifactCache.merge_delta`) only when its origin is another
process (DESIGN.md §10.3).  The on-disk layer (:meth:`ArtifactCache.save`
/ :meth:`load`) persists snapshots under ``benchmarks/out/`` keyed by
resolved-sweep digest, written after the merge, so they cover
everything the process tree computed; a loaded snapshot reaches forked
workers by inheritance, spawned pool workers through
:func:`install_artifacts` and fabric workers through the job's
snapshot file.
"""

from __future__ import annotations

import dataclasses
import pathlib
import pickle
import threading
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple, TypeVar

from repro.crypto import scheme_fingerprint
from repro.crypto.keys import KeyStore
from repro.crypto.signer import SignatureScheme
from repro.experiments.persistence import atomic_write_bytes, spec_digest
from repro.graphs.graph import Graph

_Artifact = TypeVar("_Artifact")

#: current on-disk snapshot format; bumped on layout changes so stale
#: pickles are ignored rather than misread.  v2 added the deployment
#: store.
_SNAPSHOT_VERSION = 2


class _Store(NamedTuple):
    """One store: its snapshot and delta key, its :class:`ArtifactStats`
    field prefix (also its ``as_dict`` key) and its ``describe`` label."""

    name: str
    counter: str
    label: str


_TOPOLOGIES = _Store("topologies", "topology", "topologies")
_CONNECTIVITY = _Store("connectivity", "connectivity", "certificates")
_KEY_POOLS = _Store("key_pools", "key_pool", "key pools")
_DEPLOYMENTS = _Store("deployments", "deployment", "deployments")

#: the four stores, in snapshot, counter and summary order.
_STORES = (_TOPOLOGIES, _CONNECTIVITY, _KEY_POOLS, _DEPLOYMENTS)


def artifact_key(payload: dict) -> str:
    """A stable content address for a JSON-serialisable payload.

    Delegates to :func:`repro.experiments.persistence.spec_digest` —
    one canonical-JSON-then-SHA-256 convention for the whole repo — so
    *any* change to any field of the keyed spec produces a different
    key (the invalidation property ``tests/test_artifacts.py`` checks).

    Raises:
        ExperimentError: for payloads JSON cannot canonicalise.
    """
    return spec_digest(payload)


@dataclass
class ArtifactStats:
    """Mutable hit/miss counters, one pair per store."""

    topology_hits: int = 0
    topology_misses: int = 0
    connectivity_hits: int = 0
    connectivity_misses: int = 0
    key_pool_hits: int = 0
    key_pool_misses: int = 0
    #: key-store requests bypassed because the scheme had no
    #: fingerprint (unknown scheme types are never pooled).
    key_pool_bypasses: int = 0
    deployment_hits: int = 0
    deployment_misses: int = 0
    #: deployment requests bypassed because the scheme had no
    #: fingerprint (mirrors the key-pool bypass rule).
    deployment_bypasses: int = 0

    def _count(self, store: _Store, outcome: str) -> int:
        return getattr(self, f"{store.counter}_{outcome}")

    def hits(self) -> int:
        return sum(self._count(store, "hits") for store in _STORES)

    def misses(self) -> int:
        return sum(self._count(store, "misses") for store in _STORES)

    def total(self) -> int:
        return self.hits() + self.misses()

    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0 when idle)."""
        total = self.total()
        return self.hits() / total if total else 0.0

    def as_dict(self) -> dict:
        """JSON-ready counters (``metadata.artifact_stats`` in saved JSON)."""
        payload: dict = {}
        for store in _STORES:
            entry = payload[store.counter] = {
                outcome: self._count(store, outcome) for outcome in ("hits", "misses")
            }
            if hasattr(self, f"{store.counter}_bypasses"):
                entry["bypasses"] = self._count(store, "bypasses")
        payload["hit_rate"] = self.hit_rate()
        return payload

    def counters(self) -> dict[str, int]:
        """All counter fields as a flat name -> value mapping."""
        return {
            field.name: getattr(self, field.name)
            for field in dataclasses.fields(self)
        }

    def describe(self) -> str:
        """One human-readable summary line (sweep/mission CLI output)."""
        stores = ", ".join(
            f"{store.label} {self._count(store, 'hits')}/"
            f"{self._count(store, 'hits') + self._count(store, 'misses')}"
            for store in _STORES
        )
        return (
            f"{self.hits()} hits / {self.misses()} misses "
            f"({self.hit_rate():.1%} hit rate; {stores})"
        )


class ArtifactCache:
    """Content-addressed stores for trial-invariant sweep artifacts.

    Every store maps a content address to a picklable value produced by
    a pure builder, so entries can cross process boundaries (fork
    inheritance, spawn snapshots) and live on disk between runs.  The
    cache never invents values — a miss always calls the builder — and
    never mutates what it stores, so enabling it cannot change results.
    """

    def __init__(self) -> None:
        # Serialises store access for thread-concurrent clients: the
        # fleet service steps missions on worker threads against the
        # ARTIFACTS singleton (DESIGN.md §12).  Builders run under the
        # lock — they are pure and key-distinct requests rarely collide
        # in practice, and holding it guarantees one build per key.
        # Reentrant because builders may consult other stores.
        self._lock = threading.RLock()
        self.stats = ArtifactStats()
        #: store name -> key -> artifact.
        self._stores: dict[str, dict] = {store.name: {} for store in _STORES}
        self._reset_delta()

    def _reset_delta(self) -> None:
        """Start a fresh delta window (entries + counters since now)."""
        self._delta: dict[str, dict] = {name: {} for name in self._stores}
        self._stats_mark = self.stats.counters()

    def __len__(self) -> int:
        return sum(map(len, self._stores.values()))

    def _lookup(self, store: _Store, key, build: Callable[[], _Artifact]) -> _Artifact:
        """The one store path: serve ``key`` from ``store``, or build,
        store and record it in the delta window, counting the hit or
        miss."""
        with self._lock:
            cached = self._stores[store.name].get(key)
            outcome = "hits" if cached is not None else "misses"
            counter = f"{store.counter}_{outcome}"
            setattr(self.stats, counter, getattr(self.stats, counter) + 1)
            if cached is not None:
                return cached
            value = build()
            self._stores[store.name][key] = value
            self._delta[store.name][key] = value
            return value

    # ------------------------------------------------------------------
    # The four stores
    # ------------------------------------------------------------------
    def topology(self, key: str, build: Callable[[], _Artifact]) -> _Artifact:
        """The interned topology (or scenario) for ``key``.

        ``key`` should come from :func:`artifact_key` over the full
        topology-spec payload; the builder runs on the first request.
        """
        return self._lookup(_TOPOLOGIES, key, build)

    def connectivity(
        self, graph: Graph, cutoff: int | None, compute: Callable[[], int]
    ) -> int:
        """The κ certificate for ``graph`` at ``cutoff``.

        Keyed by content digest, not object identity, so equal graphs
        built independently (parent probe vs worker rebuild) share one
        certificate.
        """
        return self._lookup(_CONNECTIVITY, (graph.digest(), cutoff), compute)

    def key_store(
        self,
        scheme: SignatureScheme,
        node_ids: Iterable[int],
        seed: int,
        build: Callable[[], KeyStore],
    ) -> KeyStore:
        """The signer key pool for ``(scheme, node ids, seed)``.

        Callers must use the *returned* store's scheme for the rest of
        the deployment: stateful schemes (:class:`HmacScheme`) keep the
        verification directory on the instance that generated the keys.
        Schemes without a fingerprint are never pooled — the builder's
        fresh store is returned as-is.
        """
        fingerprint = scheme_fingerprint(scheme)
        if fingerprint is None:
            self.stats.key_pool_bypasses += 1
            return build()
        key = (fingerprint, tuple(sorted(set(node_ids))), seed)
        return self._lookup(_KEY_POOLS, key, build)

    def deployment(
        self,
        graph: Graph,
        scheme: SignatureScheme,
        seed: int,
        build: Callable[[], _Artifact],
    ) -> _Artifact:
        """The interned deployment for ``(graph, scheme, seed)``.

        Deployment construction is a pure function of the key (keygen
        and proof signing are seed-deterministic), so the cells of a
        sweep that replay one topology share keys *and* neighborhood
        proofs, each signed at most once, on first read.  Schemes
        without a fingerprint are never pooled — the builder's fresh
        deployment is returned as-is (mirrors :meth:`key_store`).
        Callers must treat the result as immutable, like every store
        entry.
        """
        fingerprint = scheme_fingerprint(scheme)
        if fingerprint is None:
            self.stats.deployment_bypasses += 1
            return build()
        return self._lookup(_DEPLOYMENTS, (graph.digest(), fingerprint, seed), build)

    # ------------------------------------------------------------------
    # Sharing and persistence
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """A picklable view of the stores (counters not included)."""
        with self._lock:
            return {
                "version": _SNAPSHOT_VERSION,
                **{name: dict(entries) for name, entries in self._stores.items()},
            }

    def adopt(self, snapshot: dict) -> None:
        """Replace the stores with a :meth:`snapshot` (a loaded
        ``--artifact-store`` file, or a worker's copy of it).

        Unknown snapshot versions are ignored — an empty cache is
        always correct.  Adoption starts a fresh delta window: what a
        worker reports back (:meth:`drain_delta`) covers only the
        entries *it* computed, never the adopted ones.
        """
        if not isinstance(snapshot, dict):
            return
        if snapshot.get("version") != _SNAPSHOT_VERSION:
            return
        with self._lock:
            self._stores = {
                name: dict(snapshot.get(name, {})) for name in self._stores
            }
            self._reset_delta()

    def drain_delta(self) -> dict:
        """Entries and counter increments since the last drain/adopt.

        The worker side of the delta protocol (DESIGN.md §9.2): each
        artifact shard returns the store entries its process added since
        its previous report, so the collector can fold worker-built
        artifacts (topologies, connectivity certificates, key pools,
        deployments) and hit/miss counters back into its own cache —
        which is what makes ``--artifact-store`` snapshots and the
        surfaced cache stats cover the whole process tree, not just
        what the parent built.  Draining starts the next window.
        """
        with self._lock:
            counts = self.stats.counters()
            delta = {
                "version": _SNAPSHOT_VERSION,
                **self._delta,
                "stats": {
                    name: counts[name] - self._stats_mark.get(name, 0)
                    for name in counts
                },
            }
            self._reset_delta()
            return delta

    def merge_delta(self, delta: dict) -> None:
        """Fold one :meth:`drain_delta` report into this cache.

        Store entries are unioned (first writer wins — builders are
        pure, so colliding keys hold equal values) and counter
        increments are added to :attr:`stats`.  Unknown versions are
        ignored, mirroring :meth:`adopt`.
        """
        if not isinstance(delta, dict) or delta.get("version") != _SNAPSHOT_VERSION:
            return
        with self._lock:
            for name, target in self._stores.items():
                for key, value in (delta.get(name) or {}).items():
                    target.setdefault(key, value)
            for name, increment in (delta.get("stats") or {}).items():
                if hasattr(self.stats, name):
                    setattr(self.stats, name, getattr(self.stats, name) + increment)
                    self._stats_mark[name] = self._stats_mark.get(name, 0) + increment

    def clear(self) -> None:
        """Drop every store and reset the counters."""
        with self._lock:
            self.stats = ArtifactStats()
            for entries in self._stores.values():
                entries.clear()
            self._reset_delta()

    def save(self, path: str | pathlib.Path) -> pathlib.Path:
        """Persist a snapshot (the opt-in on-disk layer).

        Written atomically (write-temp + rename): a writer killed
        mid-save leaves the previous snapshot intact instead of a
        truncated pickle, so concurrent readers — fabric workers adopt
        these snapshots as warm state, DESIGN.md §13 — never observe a
        partial file.
        """
        path = pathlib.Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        return atomic_write_bytes(path, pickle.dumps(self.snapshot()))

    def load(self, path: str | pathlib.Path) -> bool:
        """Adopt a snapshot from disk; False when absent or unreadable.

        A cache file is an accelerator, never a dependency: any load
        problem (missing file, truncated pickle, stale version) leaves
        the cache as it was.
        """
        path = pathlib.Path(path)
        try:
            payload = pickle.loads(path.read_bytes())
        # Deliberately broad: unpickling arbitrary stale bytes can fail
        # with almost anything (ModuleNotFoundError after a refactor,
        # ValueError/IndexError on truncated streams, ...), and a cache
        # file must never be able to take the sweep down.
        except Exception:  # noqa: BLE001
            return False
        if not isinstance(payload, dict) or payload.get("version") != _SNAPSHOT_VERSION:
            return False
        self.adopt(payload)
        return True


#: the process-wide cache every artifact-enabled trial consults.
ARTIFACTS = ArtifactCache()


def clear_artifact_cache() -> None:
    """Reset :data:`ARTIFACTS` (cold starts in tests)."""
    ARTIFACTS.clear()


def install_artifacts(snapshot: dict) -> None:
    """Worker-process initializer: adopt the parent's snapshot.

    Module-level so :func:`repro.experiments.parallel.parallel_map` can
    ship it to spawned workers, which start empty: a loaded
    ``--artifact-store`` reaches them this way.  Under fork the stores
    it installs are the inherited ones, but the call is still
    load-bearing: :meth:`ArtifactCache.adopt` resets the delta window,
    without which a forked worker's first
    :meth:`~ArtifactCache.drain_delta` would re-report the entries and
    counters it inherited from the parent (and the parent's merge would
    then double-count its own stats).
    """
    ARTIFACTS.adopt(snapshot)


__all__ = [
    "ARTIFACTS",
    "ArtifactCache",
    "ArtifactStats",
    "artifact_key",
    "clear_artifact_cache",
    "install_artifacts",
]
