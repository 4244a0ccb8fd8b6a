"""Stream prefetcher modelled on the paper's "L2 hardware prefetcher".

The i7-4790 exposes four prefetchers; the paper only counts the two that
the L2 hardware prefetcher generates — prefetches *into L2* (from L3) and
prefetches *into L3* (from DRAM) — because only those have performance
counters (§2.3).  This module mirrors that: it watches the stream of L1D
demand misses, detects ascending sequential line streams, and asks the
hierarchy to stage upcoming lines into L2 and L3 ahead of demand.

Detection is a small table of independent stream trackers.  A tracker
confirms a stream after ``train_threshold`` consecutive +1-line accesses
and then keeps a prefetch window ``degree`` lines ahead of demand.  This
is enough to make sequential scans (the dominant pattern of the database
workloads in §3) hit in L2/L1D while leaving pointer-chasing untouched —
which is exactly the behavioural contrast the paper relies on.

Two windows, two watermarks.  Each tracker maintains the L2 window
(``degree`` lines ahead of demand) and, beyond it, the L3 window
(``l3_extra`` further lines) with *independent* high-water marks: a line
first enters the L3 window — issued as a prefetch into L3, from DRAM —
and is issued again as a prefetch into L2 once demand advances far
enough that the line falls inside the L2 window.  The hierarchy turns
that second issue into an L3→L2 promotion, which is exactly the paper's
countable "prefetch into L2" kind.  In steady state every demand miss
therefore issues one L2 line (at distance ``degree``) and one L3 line
(at distance ``degree + l3_extra``).

The prefetcher watches *demand-load* misses only.  Store (RFO) misses
never reach :meth:`observe` — the paper counts only the two L2-prefetch
kinds with performance counters, and on the modelled part the L2
streamer does not train on the write-allocate traffic of the store
workloads in §3.1 (their energy is dominated by the writeback path).
Both execution engines implement the same choice (see
``MemoryHierarchy.store`` and ``BatchExecutor._store_addrs``).
"""

from __future__ import annotations

from dataclasses import dataclass


_NO_LINES = range(0)


@dataclass
class StreamPrefetcher:
    """Sequential stream detector issuing L2/L3 prefetch requests.

    Parameters
    ----------
    n_streams:
        Number of concurrent streams tracked (round-robin replacement).
    train_threshold:
        Consecutive sequential misses needed before prefetching starts.
    degree:
        How many lines ahead of demand the L2 window is kept.
    l3_extra:
        Additional lines beyond the L2 window staged only into L3.
    """

    n_streams: int = 8
    train_threshold: int = 2
    degree: int = 4
    l3_extra: int = 8
    enabled: bool = True
    #: Lifetime stats (read by the machine's metrics collector).
    n_trained: int = 0
    n_pf_l2_issued: int = 0
    n_pf_l3_issued: int = 0
    _victim: int = 0

    def __post_init__(self) -> None:
        n = self.n_streams
        #: Parallel tracker state, scanned with C-speed list ops.
        self._last = [-2] * n
        self._run = [0] * n
        self._l2up = [-1] * n
        self._l3up = [-1] * n

    def reset(self) -> None:
        n = self.n_streams
        self._last[:] = [-2] * n
        self._run[:] = [0] * n
        self._l2up[:] = [-1] * n
        self._l3up[:] = [-1] * n
        self._victim = 0

    def observe(self, line: int) -> tuple[range, range]:
        """Feed one L1D-miss line number to the prefetcher.

        Returns ``(l2_lines, l3_lines)`` — the ranges of line numbers to
        stage into L2 and (beyond those) into L3.  Both are empty when the
        prefetcher is disabled or the access does not extend a trained
        stream.
        """
        if not self.enabled or not self.n_streams:
            return _NO_LINES, _NO_LINES
        # The historical semantics are a slot-order scan checking
        # "extends a stream" (last_line + 1 == line) before "repeats the
        # stream head" (last_line == line) per slot; the first slot
        # matching either wins with its condition.  ``list.index`` finds
        # each condition's first slot at C speed, and the smaller index
        # is the winner the Python-level scan would have picked.
        last = self._last
        prev = line - 1
        ext = last.index(prev) if prev in last else -1
        rep = last.index(line) if line in last else -1
        if ext >= 0 and (rep < 0 or ext < rep):
            run = self._run
            last[ext] = line
            length = run[ext] + 1
            run[ext] = length
            threshold = self.train_threshold
            if length < threshold:
                return _NO_LINES, _NO_LINES
            if length == threshold:
                self.n_trained += 1
            # The two windows advance independently: the L2 window
            # covers (line, line + degree], the L3 window the
            # l3_extra lines beyond it.  Each emits only lines its
            # own watermark has not issued yet, so a line staged
            # into L3 when it was far ahead is re-issued toward L2
            # once it falls inside the near window (an L3→L2
            # promotion at the hierarchy).
            l2_end = line + 1 + self.degree
            l3_end = l2_end + self.l3_extra
            l2_start = max(line + 1, self._l2up[ext] + 1)
            l3_start = max(l2_end, self._l3up[ext] + 1)
            l2_lines = range(l2_start, max(l2_start, l2_end))
            l3_lines = range(l3_start, max(l3_start, l3_end))
            if not l2_lines and not l3_lines:
                return l2_lines, l3_lines
            if l2_lines:
                self._l2up[ext] = l2_end - 1
            if l3_lines:
                self._l3up[ext] = l3_end - 1
            self.n_pf_l2_issued += len(l2_lines)
            self.n_pf_l3_issued += len(l3_lines)
            return l2_lines, l3_lines
        if rep >= 0:
            # Repeated miss on the same line (e.g. conflict churn):
            # neither extends nor breaks the stream.
            return _NO_LINES, _NO_LINES
        # No tracker matched: start (or restart) a stream.  Prefer an
        # idle slot, then a still-untrained one; only when every slot
        # holds a trained stream does the round-robin victim pointer
        # evict one — a single interleaved irregular miss stream must
        # not tear down trained sequential streams while free slots
        # exist.
        run = self._run
        if 0 in run:
            slot = run.index(0)
        else:
            threshold = self.train_threshold
            slot = -1
            if threshold == 2:
                # Only value below a threshold of 2 left is 1.
                if 1 in run:
                    slot = run.index(1)
            else:
                for i, length in enumerate(run):
                    if length < threshold:
                        slot = i
                        break
            if slot < 0:
                slot = self._victim
                self._victim = (slot + 1) % self.n_streams
        last[slot] = line
        run[slot] = 1
        self._l2up[slot] = -1
        self._l3up[slot] = -1
        return _NO_LINES, _NO_LINES
