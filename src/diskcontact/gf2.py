"""Exact linear algebra over the field of two elements.

Vectors are Python ints used as bitmasks (bit i = coordinate i), so XOR is
vector addition.  This keeps elimination and solve exact and fast enough for
the matrix sizes that appear here (a few thousand coordinates at most).
"""

from __future__ import annotations

from typing import Optional, Sequence


class Eliminator:
    """Incremental Gaussian elimination with expression tracking.

    Feeding vectors with `add` builds a reduced basis; `reduce` then tells
    whether a target vector lies in the span and, if so, which input
    vectors sum to it.
    """

    def __init__(self) -> None:
        # pivot bit -> (reduced vector, combination bitmask over input indices)
        self._rows: dict[int, tuple[int, int]] = {}
        self._count = 0

    def add(self, v: int) -> None:
        combo = 1 << self._count
        self._count += 1
        v, combo = self._reduce(v, combo)
        if v:
            self._rows[v.bit_length() - 1] = (v, combo)

    def _reduce(self, v: int, combo: int) -> tuple[int, int]:
        while v:
            pivot = v.bit_length() - 1
            row = self._rows.get(pivot)
            if row is None:
                break
            v ^= row[0]
            combo ^= row[1]
        return v, combo

    def reduce(self, target: int) -> Optional[int]:
        """Combination of added vectors summing to target, or None."""
        v, combo = self._reduce(target, 0)
        return None if v else combo

    @property
    def rank(self) -> int:
        return len(self._rows)


def solve(columns: Sequence[int], target: int) -> Optional[list[int]]:
    """Solve sum_i x_i * columns[i] = target; returns indices with x_i = 1."""
    elim = Eliminator()
    for c in columns:
        elim.add(c)
    combo = elim.reduce(target)
    if combo is None:
        return None
    return [i for i in range(len(columns)) if (combo >> i) & 1]
