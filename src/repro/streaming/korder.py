"""The k-order behind order-based streaming inserts.

A *k-order* lists the live rows of a graph level by level (a row's
level is its coreness), levels ascending, and within a level in an
order where every row has at most its level of neighbours after it.
The visit order of a Batagelj–Zaveršnik peel is one. Zhang, Yu, Zhang
and Qin ("A Fast Order-Based Approach for Core Maintenance", ICDE 2017)
keep such an order, and each row's *remaining degree* (its neighbours
later in the order), exact under edits, so that an edge insert visits
only the rows that can rise. :class:`KOrder` is that structure; the
algorithm driving it lives in
:class:`~repro.streaming.flat_maintenance.FlatDynamicKCore`.

Each level is a doubly linked list of rows (``prev`` / ``next``, ``-1``
ends a list) with per-level ``head`` / ``tail``. Every linked row has
an integer ``label`` that strictly increases along its level's list
and carries the level in its high bits, so one integer compare orders
any two rows, and ``label >> SHIFT`` names the list a row is linked
into even after the engine has lowered its estimate. Head and tail
inserts step :data:`GAP` past the level's end; mid-level inserts share
the gap between their two neighbours, and once that gap has closed the
level is relabelled evenly, so a move costs amortised O(1).
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from typing import Iterable, Iterator, Sequence

__all__ = ["GAP", "KOrder", "SHIFT"]

#: Bits of a label below the level: a level owns labels
#: ``[level << SHIFT, (level + 1) << SHIFT)``.
SHIFT = 40

#: Label step of head and tail inserts and of an even relabel.
GAP = 1 << 20

_SPAN = 1 << SHIFT


class KOrder:
    """Per-level linked lists of rows with order labels and remaining
    degrees (``later``), all indexed by dynamic-CSR row."""

    __slots__ = ("label", "prev", "next", "later", "head", "tail")

    def __init__(self) -> None:
        self.label = array("q")
        self.prev = array("q")
        self.next = array("q")
        #: live neighbours after the row in the order (``deg+``)
        self.later = array("q")
        self.head: list[int] = []
        self.tail: list[int] = []

    @classmethod
    def from_peel(cls, core: array, order: array, later: array) -> "KOrder":
        """The peel's visit ``order`` (``core`` non-decreasing along it)
        as a k-order, with ``later`` as the remaining degrees."""
        n = len(core)
        korder = cls()
        korder.label = array("q", [0]) * n
        korder.prev = array("q", [-1]) * n
        korder.next = array("q", [-1]) * n
        korder.later = later
        lo = 0
        for level in range(core[order[-1]] + 1 if n else 0):
            hi = bisect_right(order, level, lo, key=core.__getitem__)
            korder.extend(level, order[lo:hi])
            lo = hi
        return korder

    # ------------------------------------------------------------------
    def rows(self, level: int) -> Iterator[int]:
        """The rows of ``level``, in order."""
        row = self.head[level]
        nxt = self.next
        while row >= 0:
            yield row
            row = nxt[row]

    def add_row(self, row: int) -> None:
        """Link ``row``, unlinked, at the tail of level 0 with no later
        neighbours: a freed dynamic-CSR row that a join reuses, or the
        next new one, for which the tables grow."""
        if row == len(self.label):
            self.label.append(0)
            self.prev.append(-1)
            self.next.append(-1)
            self.later.append(0)
        else:
            self.later[row] = 0
        self.extend(0, (row,))

    def unlink(self, rows: Iterable[int]) -> None:
        """Take ``rows`` out of their levels' lists (labels go stale)."""
        label, prev, nxt = self.label, self.prev, self.next
        head, tail = self.head, self.tail
        for row in rows:
            p, n = prev[row], nxt[row]
            if p >= 0:
                nxt[p] = n
            else:
                head[label[row] >> SHIFT] = n
            if n >= 0:
                prev[n] = p
            else:
                tail[label[row] >> SHIFT] = p
            prev[row] = nxt[row] = -1

    def extend(self, level: int, rows: Sequence[int]) -> None:
        """Link unlinked ``rows`` at the tail of ``level``, in order."""
        if level >= len(self.tail):
            self._grow(level)
        self._splice(level, self.tail[level], rows)

    def prepend(self, level: int, rows: Sequence[int]) -> None:
        """Link unlinked ``rows`` at the head of ``level``, in order."""
        if level >= len(self.head):
            self._grow(level)
        self._splice(level, -1, rows)

    def insert_after(self, anchor: int, rows: Sequence[int]) -> None:
        """Link unlinked ``rows`` right after ``anchor``, in order."""
        self._splice(self.label[anchor] >> SHIFT, anchor, rows)

    def _grow(self, level: int) -> None:
        while len(self.head) <= level:
            self.head.append(-1)
            self.tail.append(-1)

    def _splice(self, level: int, before: int, rows: Sequence[int]) -> None:
        """Link ``rows`` into ``level`` right after ``before`` (``-1``:
        at the head), labelled between their new neighbours."""
        if not rows:
            return
        label, prev, nxt = self.label, self.prev, self.next
        after = nxt[before] if before >= 0 else self.head[level]
        lo = label[before] if before >= 0 else (level << SHIFT) - 1
        hi = label[after] if after >= 0 else (level + 1) << SHIFT
        count = len(rows)
        step = min(GAP, (hi - lo) // (count + 1))
        if not step:
            # the gap has closed: relabel the whole level evenly, new
            # rows included (an empty level always has room)
            ordered = list(self.rows(level))
            cut = ordered.index(before) + 1 if before >= 0 else 0
            ordered[cut:cut] = rows
            self.head[level] = self.tail[level] = -1
            self._splice(level, -1, ordered)
            return
        if after < 0 <= before:      # tail: one step past the end
            value = lo + step
        elif before < 0 <= after:    # head: one step before the head
            value = hi - step * count
        else:                        # mid-level, or an empty level
            value = lo + (hi - lo - step * (count - 1)) // 2
        last = before
        for row in rows:
            label[row] = value
            value += step
            prev[row] = last
            if last >= 0:
                nxt[last] = row
            else:
                self.head[level] = row
            last = row
        nxt[last] = after
        if after >= 0:
            prev[after] = last
        else:
            self.tail[level] = last
