"""Query-result cache: LRU eviction with optional TinyLFU admission,
charged against the hardware energy ledger.

A recommendation front-end sees heavily repeated queries (the Zipf head of
the user population), so a small result cache short-circuits the whole
filtering + ranking pipeline for hits.  The cache is modelled as one CMA
array holding ``rows_per_entry`` rows per cached query (item ids + scores),
so its traffic is charged with the Table II figures of merit:

* every ``lookup`` pays one associative ``cma_search`` probe;
* a hit additionally pays ``rows_per_entry`` CMA reads to stream the
  cached top-k out;
* an ``insert`` pays ``rows_per_entry`` CMA writes.

Because hits return the stored result object, the cache-hit path is
*functionally identical* to the miss path that populated it -- only the
charged cost differs (the acceptance property of the serving study).

Admission (TinyLFU)
-------------------
Plain LRU admits every miss, so one burst of one-off queries flushes the
Zipf head.  :class:`TinyLFUAdmission` guards the way in: a *doorkeeper*
set absorbs first-time keys, a :class:`CountMinSketch` estimates the
access frequency of everything seen more than once, and a full cache only
evicts its LRU victim when the arriving key is estimated *at least as
popular* as the victim.  Counters age by periodic halving (the "reset"
of the TinyLFU paper), so the estimate tracks the recent window rather
than all of history.  The filter is small SRAM-side metadata next to the
CMA array; its energy is negligible against the ``rows_per_entry`` CMA
rows it saves, so admission decisions are not charged to the ledger --
only the avoided/performed CMA writes are.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Hashable, Iterable, List, Optional, Set, Tuple

import numpy as np

from repro.circuits.foms import ArrayFoMs, TABLE_II
from repro.energy.accounting import Cost

__all__ = [
    "CountMinSketch",
    "TinyLFUAdmission",
    "ServingCache",
    "RepetitionAwareCache",
]

#: Large Mersenne prime for the sketch's universal hash family.
_PRIME = (1 << 61) - 1


class CountMinSketch:
    """Conservative frequency sketch over hashable keys.

    ``depth`` rows of ``width`` counters, indexed by a seeded universal
    hash family over the key's Python hash (deterministic for the int
    tuples serving keys are made of); ``estimate`` returns the row
    minimum, an upper bound on the true count.
    """

    def __init__(self, width: int = 1024, depth: int = 4, seed: int = 0):
        if width < 1 or depth < 1:
            raise ValueError(f"need width, depth >= 1, got {width}x{depth}")
        self.width = width
        self.depth = depth
        self._counters = np.zeros((depth, width), dtype=np.uint32)
        rng = np.random.default_rng(seed)
        # Odd multipliers + offsets: a multiply-shift universal family.
        self._scale = rng.integers(1, _PRIME, size=depth) | 1
        self._offset = rng.integers(0, _PRIME, size=depth)

    def _columns(self, key: Hashable) -> List[int]:
        # Arbitrary-precision Python ints: the scale*digest product runs to
        # ~2^122, which would silently wrap (and void the universal-family
        # collision bound) if done in int64.
        digest = hash(key) & ((1 << 61) - 1)
        return [
            (int(scale) * digest + int(offset)) % _PRIME % self.width
            for scale, offset in zip(self._scale, self._offset)
        ]

    def increment(self, key: Hashable) -> None:
        self._counters[np.arange(self.depth), self._columns(key)] += 1

    def estimate(self, key: Hashable) -> int:
        return int(self._counters[np.arange(self.depth), self._columns(key)].min())

    def halve(self) -> None:
        """Age every counter (the TinyLFU reset operation)."""
        self._counters >>= 1

    def clear(self) -> None:
        """Zero every counter (forget all history)."""
        self._counters.fill(0)


class TinyLFUAdmission:
    """Doorkeeper + count-min sketch admission filter (TinyLFU).

    ``record`` must be called on every cache access (hit or miss) so the
    sketch sees the true popularity stream; ``admit`` compares a
    candidate against the would-be eviction victim.
    """

    def __init__(
        self,
        sketch_width: int = 1024,
        sketch_depth: int = 4,
        sample_size: int = 4096,
        seed: int = 0,
    ):
        if sample_size < 1:
            raise ValueError(f"sample size must be >= 1, got {sample_size}")
        self.sketch = CountMinSketch(sketch_width, sketch_depth, seed=seed)
        self.sample_size = sample_size
        self._doorkeeper: Set[Hashable] = set()
        self._recorded = 0
        self.resets = 0

    def record(self, key: Hashable) -> None:
        """Count one access to ``key``."""
        if key in self._doorkeeper:
            # Second-or-later sighting in this window: promote to the sketch.
            self.sketch.increment(key)
        else:
            self._doorkeeper.add(key)
        self._recorded += 1
        if self._recorded >= self.sample_size:
            self.sketch.halve()
            self._doorkeeper.clear()
            self._recorded = 0
            self.resets += 1

    def estimate(self, key: Hashable) -> int:
        """Windowed access-frequency estimate for ``key``."""
        return self.sketch.estimate(key) + (1 if key in self._doorkeeper else 0)

    def admit(self, candidate: Hashable, victim: Hashable) -> bool:
        """Should ``candidate`` displace ``victim``?  Ties favour the
        newcomer (recency breaks frequency ties, as in W-TinyLFU)."""
        return self.estimate(candidate) >= self.estimate(victim)

    def reset(self) -> None:
        """Forget all popularity history (sketch and doorkeeper).

        Called when the cached world is wiped (a flush): letting the
        pre-wipe head keep its counts would let stale keys displace the
        new working set for a whole sample window.
        """
        self.sketch.clear()
        self._doorkeeper.clear()
        self._recorded = 0
        self.resets += 1

    def age(self) -> None:
        """One aging step (halve counts, clear the doorkeeper).

        A partial invalidation is softer than a flush: surviving keys'
        popularity is still meaningful, so the estimate decays instead
        of vanishing -- the same operation the periodic window reset
        performs, just triggered by the cache event.
        """
        self.sketch.halve()
        self._doorkeeper.clear()
        self._recorded = 0
        self.resets += 1


class ServingCache:
    """Bounded LRU map from query keys to served results.

    With an ``admission`` filter attached, a full cache consults TinyLFU
    before evicting: unpopular newcomers are rejected (counted in
    ``rejections``) and the resident entry survives.
    """

    def __init__(
        self,
        capacity: int,
        rows_per_entry: int = 10,
        foms: ArrayFoMs = TABLE_II,
        admission: Optional[TinyLFUAdmission] = None,
    ):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if rows_per_entry < 1:
            raise ValueError(f"rows per entry must be >= 1, got {rows_per_entry}")
        self.capacity = capacity
        self.rows_per_entry = rows_per_entry
        self.foms = foms
        self.admission = admission
        self._store: "OrderedDict[Hashable, object]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.insertions = 0
        self.evictions = 0
        self.rejections = 0
        self.invalidations = 0

    def __len__(self) -> int:
        return len(self._store)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._store

    def lookup(self, key: Hashable) -> Tuple[Optional[object], Cost]:
        """Probe the cache; returns (value or None, charged cost)."""
        if self.admission is not None:
            self.admission.record(key)
        probe = self.foms.cma_search
        if key in self._store:
            self._store.move_to_end(key)
            self.hits += 1
            readout = self.foms.cma_read.repeated(self.rows_per_entry)
            return self._store[key], probe.then(readout)
        self.misses += 1
        return None, probe

    def insert(self, key: Hashable, value: object) -> Cost:
        """Store (or refresh) an entry, evicting the LRU one if full.

        A rejected insertion (admission filter sides with the victim)
        charges nothing: no CMA rows are written.
        """
        if key in self._store:
            self._store.move_to_end(key)
            self._store[key] = value
            return self.foms.cma_write.repeated(self.rows_per_entry)
        if len(self._store) >= self.capacity:
            victim = next(iter(self._store))
            if self.admission is not None and not self.admission.admit(key, victim):
                self.rejections += 1
                return Cost()
            self._store.popitem(last=False)
            self.evictions += 1
        self._store[key] = value
        self.insertions += 1
        return self.foms.cma_write.repeated(self.rows_per_entry)

    def invalidate(self, item_ids: Iterable[int]) -> Tuple[int, Cost]:
        """Drop entries whose cached rows reference any of ``item_ids``.

        Online re-sharding relocates item rows; a cached result pins
        (item, score) rows by their physical location, so entries
        touching a moved range are dropped rather than chased (the
        conservative consistency policy of a CMA-resident cache).  Every
        resident entry pays one associative probe for the scan; stored
        values use the session's ``(items, scores)`` layout.  Returns
        (dropped entry count, charged cost).
        """
        moved = {int(item) for item in item_ids}
        if not moved or not self._store:
            return 0, Cost()
        scan = self.foms.cma_search.repeated(len(self._store))
        victims = [
            key
            for key, (items, _) in self._store.items()
            if not moved.isdisjoint(int(item) for item in items)
        ]
        for key in victims:
            del self._store[key]
        self.invalidations += len(victims)
        if victims and self.admission is not None:
            # Dropped keys keep their sketch counts; left alone they would
            # out-vote the (genuinely resident) working set at the next
            # full-cache admission ruling.  Age rather than reset: the
            # surviving entries' popularity is still real.
            self.admission.age()
        return len(victims), scan

    def flush(self) -> int:
        """Drop every resident entry (a fault-injected cache wipe).

        Models a cache-node restart: the store empties instantly (no
        charged cost -- the node lost power, nobody paid to erase it)
        and the session takes the resulting cold-start misses.  Counted
        under ``invalidations``; returns the number of entries dropped.
        """
        dropped = len(self._store)
        self._store.clear()
        self.invalidations += dropped
        if self.admission is not None:
            # The store is gone; the popularity history must go with it.
            # A stale sketch would let the pre-flush head block admission
            # of whatever working set arrives after the restart.
            self.admission.reset()
        return dropped

    def warm(self, entries) -> Cost:
        """Pre-populate from ``(key, value)`` pairs (most popular first).

        Stops once the cache is full: warm-up never evicts, it only fills
        cold capacity.  Returns the charged CMA write cost.
        """
        total = Cost()
        for key, value in entries:
            if len(self._store) >= self.capacity:
                break
            if key in self._store:
                continue
            total = total.then(self.insert(key, value))
        return total

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups that hit (0.0 before any lookup)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> Dict[str, float]:
        """Counters snapshot for reports."""
        return {
            "capacity": self.capacity,
            "entries": len(self._store),
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
            "insertions": self.insertions,
            "evictions": self.evictions,
            "rejections": self.rejections,
            "invalidations": self.invalidations,
        }


class RepetitionAwareCache(ServingCache):
    """A cache that only stores results predicted to recur.

    A dollar-billed cache charges for every put (and every provisioned
    row), so writing a one-off query's result is pure waste: the entry
    costs CMA fill rows *and* a put fee, then dies unread.  This layer
    keeps an online per-key recurrence profile (counts over a sliding
    window, aged by halving, like the TinyLFU sketch but exact -- the
    key population of a serving cache is small enough for a dict) and
    bypasses inserts of keys seen fewer than ``min_repeats`` times in
    the current window: the result is still served, it just is not
    cached.  Bypassed inserts charge nothing and are counted in
    ``bypassed``.

    ``recurrence_score`` exposes the profile to the hybrid execution
    model: the empirical repeat probability of a key, ``(n-1)/n`` for a
    key seen ``n`` times -- the maximum-likelihood estimate that the
    next occurrence is a repeat.
    """

    def __init__(
        self,
        capacity: int,
        rows_per_entry: int = 10,
        foms: ArrayFoMs = TABLE_II,
        admission: Optional[TinyLFUAdmission] = None,
        min_repeats: int = 2,
        window: int = 4096,
    ):
        super().__init__(capacity, rows_per_entry, foms, admission)
        if min_repeats < 1:
            raise ValueError(f"min repeats must be >= 1, got {min_repeats}")
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.min_repeats = min_repeats
        self.window = window
        self.bypassed = 0
        self._seen: Dict[Hashable, int] = {}
        self._window_accesses = 0

    def seen(self, key: Hashable) -> int:
        """Windowed access count of ``key``."""
        return self._seen.get(key, 0)

    def recurrence_score(self, key: Hashable) -> float:
        """Empirical repeat probability of ``key`` ((n-1)/n; 0 unseen)."""
        count = self.seen(key)
        return (count - 1) / count if count > 1 else 0.0

    def _track(self, key: Hashable) -> None:
        self._seen[key] = self._seen.get(key, 0) + 1
        self._window_accesses += 1
        if self._window_accesses >= self.window:
            # Age the profile: halve every count, drop the zeroes --
            # the estimate follows the recent window, not all history.
            self._seen = {
                key: count // 2
                for key, count in self._seen.items()
                if count // 2 > 0
            }
            self._window_accesses = 0

    def lookup(self, key: Hashable) -> Tuple[Optional[object], Cost]:
        self._track(key)
        return super().lookup(key)

    def insert(self, key: Hashable, value: object) -> Cost:
        """Store ``key`` only if its window count clears ``min_repeats``.

        Refreshes of already-resident keys always land (the rows exist;
        rewriting them is cheaper than invalidating).
        """
        if key not in self._store and self.seen(key) < self.min_repeats:
            self.bypassed += 1
            return Cost()
        return super().insert(key, value)

    def warm(self, entries) -> Cost:
        """Warm-up bypasses the recurrence filter: the eager planner
        already predicted these keys hot (that is why it precomputed
        them), so the profile is seeded instead of consulted."""
        total = Cost()
        for key, value in entries:
            if len(self._store) >= self.capacity:
                break
            if key in self._store:
                continue
            self._seen[key] = max(self.seen(key), self.min_repeats)
            total = total.then(super().insert(key, value))
        return total

    def flush(self) -> int:
        """A wipe loses the store *and* the recurrence history: the
        post-restart working set must earn its way back in."""
        self._seen.clear()
        self._window_accesses = 0
        return super().flush()

    def stats(self) -> Dict[str, float]:
        stats = super().stats()
        stats["bypassed"] = self.bypassed
        stats["tracked_keys"] = len(self._seen)
        return stats
