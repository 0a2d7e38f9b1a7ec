"""The look-up table's free entries as one list, kept as the spec.

``kamino-dynamic``'s persistent look-up table once kept every free entry
index in a list: all of them, highest first, on a fresh table; on reopen,
every index the scan did not find valid, highest first.  An insert popped
the last (so the lowest free index went first), a remove appended, and
the table was full when the list was empty.  The table now keeps only
the recycled indices and a high-water mark, so a fresh or reopened table
costs nothing per entry; :class:`ListFreeIndices` is the list it
replaced, line for line, and the differential in
``test_lookup_free_indices.py`` holds the two to the same order.
"""

from typing import Iterable, List


class ListFreeIndices:
    def __init__(self, capacity: int, valid: Iterable[int] = ()):
        """A fresh table, or with ``valid`` the table a scan rebuilt."""
        taken = set(valid)
        self.free: List[int] = [i for i in range(capacity - 1, -1, -1) if i not in taken]

    @property
    def full(self) -> bool:
        return not self.free

    def take(self) -> int:
        return self.free.pop()

    def give_back(self, i: int) -> None:
        self.free.append(i)
