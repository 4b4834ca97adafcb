"""Cross-query caching for the segmentary query phase.

Two layers, both exact (never approximate — a hit returns precisely what a
fresh solve would have returned):

**Signature-program cache.**  Keyed by
``(signature, encoding, mode, frozenset(query_groundings))`` — the complete
input of one signature group.  A warm engine answering the same query
again (the pattern of ``run_query_suite`` and the Table 3 suite) hits this
layer and skips program construction *and* solving.

**Per-cluster decision memo.**  Keyed by ``(signature, encoding, mode,
focus-support structure)`` → ``accepted?``.  A candidate's acceptance
depends only on the repair core of its signature's clusters and on its
support sets restricted to the focus (safe facts are represented by *true*
and drop out) — not on the query's name or answer tuple.  Two different
queries whose candidates project onto the same focus-support structure
therefore share decisions; the memo is coarser than the program cache and
hits across queries that are merely structurally similar.  Validity rests
on cluster independence (Definition 8): query atoms never feed back into
the repair core, so each candidate is decided independently within its
signature program.

**Bounded memory (LRU).**  Both layers accept an optional capacity; when
an insert would exceed it, the least-recently-*used* entry is evicted
(lookups and stores both refresh recency).  Eviction never changes
answers — a later query that would have hit the evicted entry simply
rebuilds and re-solves — so the policy is answer-neutral by construction,
and a long-lived process (the ROADMAP's serving tier) gets a bounded
footprint.  Evictions are counted in :class:`CacheStats` and, when a
metrics registry is attached, in ``cache_program_evictions_total`` /
``cache_decision_evictions_total``.

**Cluster-keyed invalidation.**  Every key embeds the signature — the set
of violation-cluster ids whose meaning is fixed by the engine's
:class:`~repro.xr.envelope.EnvelopeAnalysis`.  Incremental maintenance
(:mod:`repro.incremental`) retires the ids of clusters an update touched
and mints fresh ids for their replacements; :meth:`invalidate_clusters`
then drops exactly the entries whose signature meets the retired set,
so decisions about *unaffected* clusters survive the update.

**Family engine store.**  Keyed by ``(sorted cluster ids, encoding)``:
one :class:`~repro.xr.program.FamilyEngine` per cluster family — the
family's repair part, translated to a stable-model engine once.  The
repairs a family ranges over do not depend on the query, so every query
and mode asked of the family adds its candidates to that engine as goal
definitions and decides on it; what the solver learned stays.  Engines
are *checked out* (:meth:`checkout_engine`): a reader takes the engine
out of the store and returns it after a clean solve
(:meth:`return_engine`), so concurrent readers never share one — a
reader that finds it checked out builds a private one.  An engine cut
off by a budget, or caught in an exception, is never returned.  The
store is LRU-bounded by the total clauses its engines hold
(:data:`DEFAULT_MAX_ENGINE_CLAUSES`); eviction is answer-neutral (the next query
rebuilds).  :meth:`invalidate_clusters` and :meth:`clear` drop engines
too, and an engine checked out before either is dropped on return.

**Thread safety.**  One cache is shared by every query running on a warm
engine — under the serving tier (:mod:`repro.serve`) those queries run on
*concurrent threads*.  LRU recency maintenance mutates the underlying
dicts on **lookup** (delete + re-insert), so even the read path writes;
every operation (lookup/store/checkout/return/invalidate/clear)
therefore takes one internal ``threading.Lock``.  The critical sections
are a few dict operations each, so the single-threaded overhead is one
uncontended acquire per call — negligible next to program construction,
and far cheaper than the torn-LRU ``KeyError`` crashes (or silently
corrupted recency chains) concurrent unlocked lookups produce.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Container, Iterable

from repro.relational.instance import Fact

#: A candidate's supports restricted to the focus: a set of support sets.
DecisionKey = frozenset[frozenset[Fact]]
#: The full input of one signature program.
ProgramKey = tuple[
    frozenset[int], str, str, frozenset[tuple[Fact, tuple[Fact, ...]]]
]
#: A cluster family's engine: its sorted cluster ids and the encoding.
EngineKey = tuple[tuple[int, ...], str]

#: Default bound of the engine store, in clauses held.  After their
#: warm-up the benchmark workloads hold ~46k clauses (serve-rw, 8
#: engines) and ~7.7k (tpch-sf1, ~110 engines); the default leaves room
#: for twice the larger plus what the engines learn.
DEFAULT_MAX_ENGINE_CLAUSES = 100_000


def decision_key(
    supports: Iterable[tuple[Fact, ...]], safe: Container[Fact]
) -> DecisionKey:
    """The focus-support structure of one candidate (memo key)."""
    return frozenset(
        frozenset(fact for fact in support if fact not in safe)
        for support in supports
    )


def program_key(
    signature: frozenset[int],
    encoding: str,
    mode: str,
    query_groundings: Iterable[tuple[Fact, tuple[Fact, ...]]],
) -> ProgramKey:
    """The cache key of one signature program."""
    return (signature, encoding, mode, frozenset(query_groundings))


@dataclass
class CacheStats:
    """Cumulative hit/miss/eviction counters (lifetime of the cache)."""

    program_hits: int = 0
    program_misses: int = 0
    decision_hits: int = 0
    decision_misses: int = 0
    program_evictions: int = 0
    decision_evictions: int = 0
    invalidated: int = 0
    # The engine store: checkouts that found an engine, and engines
    # evicted by the clause bound.
    engine_reuses: int = 0
    engine_evictions: int = 0


class SignatureProgramCache:
    """The two cache layers plus their counters; one per warm engine.

    Entries are valid for the lifetime of one exchange phase *or*, under
    :mod:`repro.incremental` maintenance, until the update session retires
    a cluster id appearing in their signature (``invalidate_clusters``).
    Re-running the exchange from scratch (a new engine) must still start
    from an empty cache.

    ``max_programs`` / ``max_decisions`` bound each answer layer;
    ``None`` (the default) keeps them unbounded.  The engine store is
    bounded by the clauses its engines hold,
    :data:`DEFAULT_MAX_ENGINE_CLAUSES` (engines are the heaviest
    entries, so it is always bounded).  Eviction is LRU
    and answer-neutral.  An optional ``metrics``
    (:class:`~repro.obs.metrics.Metrics`) registry receives eviction
    counters and the ``solve_engine_clauses`` gauge so long-lived
    processes can watch cache pressure.
    """

    def __init__(
        self,
        max_programs: int | None = None,
        max_decisions: int | None = None,
    ) -> None:
        if max_programs is not None and max_programs < 1:
            raise ValueError(f"max_programs must be >= 1, got {max_programs}")
        if max_decisions is not None and max_decisions < 1:
            raise ValueError(f"max_decisions must be >= 1, got {max_decisions}")
        self.max_programs = max_programs
        self.max_decisions = max_decisions
        self.max_engine_clauses = DEFAULT_MAX_ENGINE_CLAUSES
        # One lock for both layers and the counters: lookups mutate the
        # dicts too (LRU delete + re-insert), so readers and writers must
        # exclude each other.  Never held while calling out — the metrics
        # registry has its own lock and is incremented outside ours.
        self._lock = threading.Lock()
        # Python dicts preserve insertion order; LRU recency is maintained
        # by deleting + re-inserting on every touch, and eviction pops the
        # oldest entry (next(iter(...))).
        self._programs: dict[ProgramKey, frozenset[Fact]] = {}
        self._decisions: dict[
            tuple[frozenset[int], str, str, DecisionKey], bool
        ] = {}
        # The engines not checked out, oldest first, each with the clauses
        # it held when returned; their total; and cluster id -> the keys
        # naming it, so an update's invalidation costs what it retires,
        # not a scan of the store.
        self._engines: dict[EngineKey, tuple[Any, int]] = {}
        self._engine_clauses = 0
        self._engine_keys_of: dict[int, set[EngineKey]] = {}
        # Bumped by invalidate_clusters and clear: an engine checked out
        # under an older epoch is dropped when it comes back.
        self._epoch = 0
        self.stats = CacheStats()
        self.metrics = None  # optional repro.obs Metrics registry

    # ---------------------------------------------------- program layer

    def lookup_program(self, key: ProgramKey) -> frozenset[Fact] | None:
        with self._lock:
            accepted = self._programs.get(key)
            if accepted is None:
                self.stats.program_misses += 1
            else:
                self.stats.program_hits += 1
                if self.max_programs is not None:
                    # Refresh recency (move to the back of the dict).
                    del self._programs[key]
                    self._programs[key] = accepted
        return accepted

    def store_program(self, key: ProgramKey, accepted: Iterable[Fact]) -> None:
        value = frozenset(accepted)
        evicted = False
        with self._lock:
            if key in self._programs:
                del self._programs[key]
            self._programs[key] = value
            if (
                self.max_programs is not None
                and len(self._programs) > self.max_programs
            ):
                self._programs.pop(next(iter(self._programs)))
                self.stats.program_evictions += 1
                evicted = True
        if evicted and self.metrics is not None:
            self.metrics.inc("cache_program_evictions_total")

    # --------------------------------------------------- decision layer

    def lookup_decision(
        self,
        signature: frozenset[int],
        encoding: str,
        mode: str,
        key: DecisionKey,
    ) -> bool | None:
        full_key = (signature, encoding, mode, key)
        with self._lock:
            verdict = self._decisions.get(full_key)
            if verdict is None:
                self.stats.decision_misses += 1
            else:
                self.stats.decision_hits += 1
                if self.max_decisions is not None:
                    del self._decisions[full_key]
                    self._decisions[full_key] = verdict
        return verdict

    def store_decision(
        self,
        signature: frozenset[int],
        encoding: str,
        mode: str,
        key: DecisionKey,
        accepted: bool,
    ) -> None:
        full_key = (signature, encoding, mode, key)
        evicted = False
        with self._lock:
            if full_key in self._decisions:
                del self._decisions[full_key]
            self._decisions[full_key] = accepted
            if (
                self.max_decisions is not None
                and len(self._decisions) > self.max_decisions
            ):
                self._decisions.pop(next(iter(self._decisions)))
                self.stats.decision_evictions += 1
                evicted = True
        if evicted and self.metrics is not None:
            self.metrics.inc("cache_decision_evictions_total")

    # ----------------------------------------------------- engine store

    def checkout_engine(self, key: EngineKey) -> tuple[Any | None, int]:
        """Take the family engine of ``key`` out of the store.

        Returns ``(engine or None, epoch)``; hand both back to
        :meth:`return_engine` after a clean solve.  On None the caller
        builds its own — the engine may exist but be checked out by a
        concurrent reader, and readers never share one.
        """
        with self._lock:
            entry = self._take_engine(key)
            epoch = self._epoch
            if entry is None:
                return None, epoch
            self.stats.engine_reuses += 1
            held = self._engine_clauses
        self._gauge_clauses(held)
        return entry[0], epoch

    def return_engine(self, key: EngineKey, engine: Any, epoch: int) -> None:
        """Put a cleanly solved engine back (the most recently used).

        Dropped instead when the store was invalidated or cleared since
        its checkout (``epoch``); replaces an engine returned for the
        same key meanwhile.  Then evicts the least recently used engines
        until the clauses held fit ``max_engine_clauses``.
        """
        clauses = engine.clauses
        evicted = 0
        with self._lock:
            if epoch != self._epoch:
                return
            self._take_engine(key)
            self._engines[key] = (engine, clauses)
            self._engine_clauses += clauses
            for cluster_id in key[0]:
                self._engine_keys_of.setdefault(cluster_id, set()).add(key)
            while self._engine_clauses > self.max_engine_clauses:
                self._take_engine(next(iter(self._engines)))
                evicted += 1
            self.stats.engine_evictions += evicted
            held = self._engine_clauses
        if evicted and self.metrics is not None:
            self.metrics.inc("solve_engines_evicted_total", evicted)
        self._gauge_clauses(held)

    def engine_keys(self) -> list[EngineKey]:
        """The keys of the engines in the store (not checked out)."""
        with self._lock:
            return list(self._engines)

    def _gauge_clauses(self, held: int) -> None:
        if self.metrics is not None:
            self.metrics.gauge("solve_engine_clauses").set(held)

    def _take_engine(self, key: EngineKey) -> tuple[Any, int] | None:
        """Remove ``key``'s entry from the store, if any (lock held)."""
        entry = self._engines.pop(key, None)
        if entry is not None:
            self._engine_clauses -= entry[1]
            for cluster_id in key[0]:
                keys = self._engine_keys_of[cluster_id]
                keys.discard(key)
                if not keys:
                    del self._engine_keys_of[cluster_id]
        return entry

    def _drop_engines(self, keys: Iterable[EngineKey]) -> None:
        """Drop ``keys``' engines and start a new epoch (lock held)."""
        self._epoch += 1
        for key in list(keys):
            self._take_engine(key)

    # -------------------------------------------------- invalidation

    def invalidate_clusters(self, cluster_ids: Iterable[int]) -> int:
        """Drop every entry whose signature meets ``cluster_ids``.

        Called by :mod:`repro.incremental` with the ids of clusters an
        update retired (touched clusters get fresh ids).  Entries whose
        signature is disjoint from the retired set describe clusters whose
        repair structure is object-identical after the update, so they
        stay valid and survive; so do the engines of families holding no
        retired id.  Returns the number of answer entries (program and
        decision) dropped.
        """
        retired = frozenset(cluster_ids)
        if not retired:
            return 0
        with self._lock:
            self._drop_engines(
                {
                    key
                    for cluster_id in retired
                    for key in self._engine_keys_of.get(cluster_id, ())
                }
            )
            held = self._engine_clauses
            dead_programs = [
                key for key in self._programs if not retired.isdisjoint(key[0])
            ]
            for key in dead_programs:
                del self._programs[key]
            dead_decisions = [
                key
                for key in self._decisions
                if not retired.isdisjoint(key[0])
            ]
            for key in dead_decisions:
                del self._decisions[key]
            dropped = len(dead_programs) + len(dead_decisions)
            self.stats.invalidated += dropped
        if self.metrics is not None and dropped:
            self.metrics.inc("cache_invalidated_entries_total", dropped)
        self._gauge_clauses(held)
        return dropped

    # ------------------------------------------------------------ misc

    def clear(self) -> None:
        with self._lock:
            self._programs.clear()
            self._decisions.clear()
            self._drop_engines(self._engines)
        self._gauge_clauses(0)

    def clear_answers(self) -> None:
        """Drop both answer layers and keep the engine store: the next
        query decides every candidate again, on the kept engines (the
        update fuzzer's way to reach them)."""
        with self._lock:
            self._programs.clear()
            self._decisions.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._programs) + len(self._decisions)
