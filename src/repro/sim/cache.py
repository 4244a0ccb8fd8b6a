"""Set-associative, write-back, write-allocate cache level.

The cache works on *line numbers* (``address >> LINE_SHIFT``), not byte
addresses; the hierarchy does the shift once per access.  Replacement is
true LRU per set, implemented with an :class:`collections.OrderedDict`
whose ``move_to_end`` is C-speed — the simulator's hot path.

A line entry maps ``line -> dirty?``.  ``lookup`` answers hits (and
refreshes recency); ``fill`` inserts a line and reports the victim, if
any, so the hierarchy can write dirty victims back to the next level.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional

from repro.errors import ConfigError
from repro.sim.address_space import LINE_SIZE


def _is_power_of_two(value: int) -> bool:
    return value > 0 and (value & (value - 1)) == 0


class CacheLevel:
    """One level of a set-associative cache.

    Parameters
    ----------
    name:
        Human-readable label ("L1D", "L2", ...), used in stats and errors.
    size:
        Capacity in bytes.
    assoc:
        Ways per set.  ``size`` must be divisible by ``assoc * LINE_SIZE``
        and the resulting set count must be a power of two.
    """

    __slots__ = ("name", "size", "assoc", "n_sets", "_set_mask", "_sets",
                 "hits", "misses", "fills", "evictions", "dirty_evictions",
                 "_occupancy")

    def __init__(self, name: str, size: int, assoc: int):
        if size <= 0 or assoc <= 0:
            raise ConfigError(f"{name}: size and assoc must be positive")
        if size % (assoc * LINE_SIZE) != 0:
            raise ConfigError(
                f"{name}: size {size} not divisible by assoc*line "
                f"({assoc}*{LINE_SIZE})"
            )
        n_sets = size // (assoc * LINE_SIZE)
        if not _is_power_of_two(n_sets):
            raise ConfigError(f"{name}: set count {n_sets} is not a power of two")
        self.name = name
        self.size = size
        self.assoc = assoc
        self.n_sets = n_sets
        self._set_mask = n_sets - 1
        self._sets: list[OrderedDict[int, bool]] = [
            OrderedDict() for _ in range(n_sets)
        ]
        self.hits = 0
        self.misses = 0
        self.fills = 0
        self.evictions = 0
        self.dirty_evictions = 0
        self._occupancy = 0

    # ------------------------------------------------------------------ hot path

    def lookup(self, line: int, write: bool = False) -> bool:
        """Probe the cache for ``line``.

        Returns True on a hit (refreshing LRU order and, for writes,
        marking the line dirty).  Returns False on a miss — the caller is
        expected to ``fill`` after servicing the miss from below.
        """
        cache_set = self._sets[line & self._set_mask]
        if line in cache_set:
            cache_set.move_to_end(line)
            if write:
                cache_set[line] = True
            self.hits += 1
            return True
        self.misses += 1
        return False

    def fill(self, line: int, dirty: bool = False) -> Optional[tuple[int, bool]]:
        """Insert ``line`` (most-recently-used).

        Returns ``(victim_line, victim_dirty)`` when an eviction happened,
        else ``None``.  Filling a line that is already present refreshes
        it and merges the dirty bit without evicting.
        """
        cache_set = self._sets[line & self._set_mask]
        if line in cache_set:
            cache_set.move_to_end(line)
            if dirty:
                cache_set[line] = True
            return None
        self.fills += 1
        victim = None
        if len(cache_set) >= self.assoc:
            victim_line, victim_dirty = cache_set.popitem(False)
            self.evictions += 1
            if victim_dirty:
                self.dirty_evictions += 1
            victim = (victim_line, victim_dirty)
        else:
            self._occupancy += 1
        cache_set[line] = dirty
        return victim

    # ------------------------------------------------------------------ utilities

    def bulk_account(self, hits: int = 0, misses: int = 0, fills: int = 0,
                     evictions: int = 0, dirty_evictions: int = 0,
                     occupancy: int = 0) -> None:
        """Apply a batch of per-run stat deltas in one call.

        The batched executor (:mod:`repro.sim.batch`) tallies per-level
        events in loop locals and flushes them here once per run, so the
        stat fields stay plain integers on the hot path while the
        bookkeeping lives next to the per-op mutators above.
        """
        self.hits += hits
        self.misses += misses
        self.fills += fills
        self.evictions += evictions
        self.dirty_evictions += dirty_evictions
        self._occupancy += occupancy

    def contains(self, line: int) -> bool:
        """Non-mutating presence probe (no LRU update, no stats)."""
        return line in self._sets[line & self._set_mask]

    def invalidate(self, line: int) -> bool:
        """Drop a line if present; returns whether it was present."""
        cache_set = self._sets[line & self._set_mask]
        if cache_set.pop(line, None) is not None:
            self._occupancy -= 1
            return True
        return False

    def flush(self) -> None:
        """Empty the cache and keep the statistics."""
        for cache_set in self._sets:
            cache_set.clear()
        self._occupancy = 0

    def reset_stats(self) -> None:
        self.hits = 0
        self.misses = 0
        self.fills = 0
        self.evictions = 0
        self.dirty_evictions = 0

    @property
    def occupancy(self) -> int:
        """Number of valid lines currently resident (tracked incrementally)."""
        return self._occupancy

    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"CacheLevel({self.name}, {self.size}B, {self.assoc}-way, "
            f"hits={self.hits}, misses={self.misses})"
        )
