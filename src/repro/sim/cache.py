"""Set-associative LRU cache simulator (paper Section 5.1 parameters).

The paper's simulated caches are two-way set-associative with 64-byte
lines and LRU replacement.  Addresses arriving here are already
line-granular (items), so the set index is simply ``line % num_sets``.

State lives in three ``(num_sets, ways)`` arrays -- ``tags`` (the line
held by each slot, -1 when empty), ``stamps`` (per-slot LRU ticks from
one global counter) and ``dirty`` flags -- plus ``index``, a dict from
each resident line to its flat slot.  The scalar operations find a line
with one dict lookup and only walk a set's ``ways`` slots to pick a
victim on a fill (a set never holds more than ``ways`` entries, so
eviction is a min over ``ways`` stamps); the batch methods evaluate
whole address vectors in single array operations against the tag array,
which is what the execution engine's vectorized fast path is built on.
Both paths produce bit-identical cache state; ``fill``, ``invalidate``
and ``clear`` are the only writers of tags, and they keep the index and
the tag array in step.
"""

from __future__ import annotations

import numpy as np

__all__ = ["SetAssociativeCache"]

#: Shared 1..N ramp for batch LRU stamping; sliced, never mutated.
_STAMP_RAMP = np.arange(1, 4097, dtype=np.int64)


class SetAssociativeCache:
    """One processor's cache: LRU, ``ways``-way set-associative."""

    __slots__ = (
        "ways",
        "num_sets",
        "capacity_items",
        "_tags",
        "_stamps",
        "_dirty",
        "_flat_tags",
        "_flat_stamps",
        "_flat_dirty",
        "_tick",
        "index",
    )

    def __init__(self, capacity_items: int, ways: int = 2) -> None:
        if capacity_items < 1:
            raise ValueError("capacity must be at least one line")
        if ways < 1:
            raise ValueError("ways must be >= 1")
        self.ways = min(ways, capacity_items)
        self.num_sets = max(1, capacity_items // self.ways)
        self.capacity_items = self.num_sets * self.ways
        self._tags = np.full((self.num_sets, self.ways), -1, dtype=np.int64)
        self._stamps = np.zeros((self.num_sets, self.ways), dtype=np.int64)
        self._dirty = np.zeros((self.num_sets, self.ways), dtype=bool)
        # Flat views over the same buffers: scalar ops index these
        # directly, avoiding a row-view allocation per access.
        self._flat_tags = self._tags.ravel()
        self._flat_stamps = self._stamps.ravel()
        self._flat_dirty = self._dirty.ravel()
        self._tick = 0
        #: Resident line -> flat slot index; read-only outside this class.
        self.index: dict[int, int] = {}

    # ------------------------------------------------------------------
    # scalar path
    # ------------------------------------------------------------------
    def _slot(self, line: int) -> int:
        """Flat slot index holding ``line``, or -1 when absent."""
        return self.index.get(line, -1)

    def lookup(self, line: int, touch: bool = True) -> bool:
        """True if ``line`` is resident; refresh its LRU stamp if asked."""
        pos = self.index.get(line)
        if pos is None:
            return False
        if touch:
            self.touch(pos)
        return True

    def touch(self, pos: int, dirty: bool = False) -> None:
        """One LRU touch of the resident slot ``pos`` (from :attr:`index`),
        marking it dirty if asked -- what a hit does to the cache."""
        self._tick += 1
        self._flat_stamps[pos] = self._tick
        if dirty:
            self._flat_dirty[pos] = True

    def dirty_at_slot(self, pos: int) -> bool:
        """Dirty flag of one resident slot (as found in :attr:`index`)."""
        return self._flat_dirty.item(pos)

    def contains(self, line: int) -> bool:
        """Presence check without disturbing LRU order."""
        return self._slot(line) >= 0

    def fill(self, line: int, dirty: bool = False) -> tuple[int, bool] | None:
        """Insert ``line``; return ``(evicted_line, was_dirty)`` if any.

        Filling a line that is already resident just refreshes its LRU
        stamp (and may add the dirty mark); nothing is evicted.
        """
        index = self.index
        pos = index.get(line)
        if pos is not None:
            self.touch(pos, dirty)
            return None
        self._tick += 1
        base = (line % self.num_sets) * self.ways
        tags = self._flat_tags
        stamps = self._flat_stamps
        victim = -1
        oldest = 0
        for pos in range(base, base + self.ways):
            if tags.item(pos) < 0:
                break  # first empty slot
            stamp = stamps.item(pos)
            if victim < 0 or stamp < oldest:
                victim, oldest = pos, stamp
        else:
            pos = victim
        evicted = None
        old = tags.item(pos)
        if old >= 0:
            evicted = (old, self._flat_dirty.item(pos))
            del index[old]
        tags[pos] = line
        stamps[pos] = self._tick
        self._flat_dirty[pos] = dirty
        index[line] = pos
        return evicted

    def mark_dirty(self, line: int) -> None:
        """Flag a resident line as modified (no-op if absent)."""
        pos = self._slot(line)
        if pos >= 0:
            self._flat_dirty[pos] = True

    def is_dirty(self, line: int) -> bool:
        pos = self._slot(line)
        return pos >= 0 and bool(self._flat_dirty[pos])

    def clean(self, line: int) -> bool:
        """Clear a resident line's dirty mark (coherence downgrade M->S).

        Returns whether the line was dirty (a write-back happened).
        """
        pos = self._slot(line)
        if pos >= 0 and self._flat_dirty[pos]:
            self._flat_dirty[pos] = False
            return True
        return False

    def invalidate(self, line: int) -> bool:
        """Drop ``line`` if resident; return whether it was dirty."""
        pos = self.index.pop(line, -1)
        if pos < 0:
            return False
        was_dirty = self._flat_dirty.item(pos)
        self._flat_tags[pos] = -1
        self._flat_dirty[pos] = False
        return was_dirty

    # ------------------------------------------------------------------
    # batch path (the engine's vectorized fast lane)
    # ------------------------------------------------------------------
    def contains_batch(self, lines: np.ndarray) -> np.ndarray:
        """Residency of each line, vectorized; LRU order undisturbed."""
        rows = self._tags[lines % self.num_sets]
        return (rows == lines[:, None]).any(axis=1)

    def residency(self, lines: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(resident, slots)``: per-line residency plus the flat slot
        index of each line (meaningful only where ``resident``)."""
        sets = lines % self.num_sets
        eq = self._tags[sets] == lines[:, None]
        resident = eq.any(axis=1)
        slots = sets * self.ways + eq.argmax(axis=1)
        return resident, slots

    def dirty_at(self, slots: np.ndarray) -> np.ndarray:
        """Dirty flags at flat slot indices (as returned by
        :meth:`residency`; only meaningful where the line was resident)."""
        return self._flat_dirty[slots]

    def touch_positions(self, slots: np.ndarray, dirty: np.ndarray | None = None) -> None:
        """Apply one in-order LRU touch per slot (duplicates allowed:
        later touches win, exactly as sequential ``lookup`` calls would)
        and optionally set dirty marks where ``dirty`` is True."""
        k = slots.size
        if not k:
            return
        base = self._tick
        self._tick = base + k
        ramp = _STAMP_RAMP[:k] if k <= _STAMP_RAMP.size else np.arange(1, k + 1, dtype=np.int64)
        self._flat_stamps[slots] = base + ramp
        if dirty is not None:
            self._flat_dirty[slots[dirty]] = True

    # ------------------------------------------------------------------
    @property
    def resident_lines(self) -> int:
        return len(self.index)

    def clear(self) -> None:
        self._tags.fill(-1)
        self._dirty.fill(False)
        self.index.clear()
