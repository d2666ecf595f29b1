"""Independent brute-force searchers used as ground truth for everything else.

Enumeration is lexicographic over index subsets (rows outer, columns inner),
so "first witness" is canonical and runs are reproducible. Exceeding a budget
raises instead of returning absent: "not found" is never conflated with "does
not exist".
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb
from operator import ge, le

from .errors import BudgetExceededError
from .matrix import (
    DECREASING,
    INCREASING,
    MONOTONE,
    ROW_MONOTONE,
    Matrix,
    SubmatrixWitness,
)


@dataclass(frozen=True)
class SearchBudget:
    """Caps on subset enumeration; lexicographic order is the canonical one."""

    max_row_subsets: int = 10_000_000
    max_col_subsets: int = 10_000_000

    def __post_init__(self):
        if self.max_row_subsets < 1 or self.max_col_subsets < 1:
            raise ValueError("budgets must be positive")


def _first_witness(m: Matrix, n: int, budget: SearchBudget, kind: str):
    """First n x n witness of the kind, rows outer and columns inner, or None.

    Per row subset, column subsets are visited depth first in lexicographic
    order, and a prefix is extended only while its rows (and, for the full
    kind, its columns) share a weak direction. A subsequence of a weakly
    monotone sequence is monotone the same way, so no skipped subset is a
    witness. Skipped subsets still count against the column budget, so the
    search raises where a plain loop over all column subsets would.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if n > m.rows or n > m.cols:
        return None
    width = m.cols
    # Counting only matters when the column subsets outnumber the budget.
    cap = budget.max_col_subsets if comb(width, n) > budget.max_col_subsets else 0
    for count, rows in enumerate(combinations(range(m.rows), n), 1):
        if count > budget.max_row_subsets:
            raise BudgetExceededError(f"row-subset budget {budget.max_row_subsets} exhausted")
        cols = list(zip(*(m.entries[a] for a in rows)))
        # Bits of the directions still open: 1 and 2 rows up and down the
        # picked columns, 4 and 8 columns up and down the picked rows.
        opens = [15] * width
        if kind == MONOTONE:
            opens = [3 | 4 * all(map(le, v, v[1:])) | 8 * all(map(ge, v, v[1:])) for v in cols]
        picks, states, skipped, j, depth = [], [15], 0, 0, 0
        while depth < n:
            if j > width - n + depth:
                if not depth:
                    break
                j = picks.pop() + 1
                states.pop()
                depth -= 1
                continue
            state = states[-1] & opens[j]
            if depth:
                prev, cur = cols[picks[-1]], cols[j]
                if state & 1 and not all(map(le, prev, cur)):
                    state ^= 1
                if state & 2 and not all(map(ge, prev, cur)):
                    state ^= 2
            if state & 3 and state & 12:
                picks.append(j)
                states.append(state)
                depth += 1
            elif cap:  # count every subset that extends the pruned prefix
                skipped += comb(width - j - 1, n - depth - 1)
                if skipped >= cap:
                    raise BudgetExceededError(f"column-subset budget {cap} exhausted")
            j += 1
        else:
            state = states[-1]
            col_dir = (INCREASING if state & 4 else DECREASING) if kind == MONOTONE else None
            row_dir = INCREASING if state & 1 else DECREASING
            return SubmatrixWitness(rows, tuple(picks), kind, row_dir, col_dir)
    return None


def brute_force_row_monotone(m: Matrix, n: int, budget: SearchBudget = SearchBudget()):
    """First n x n row-monotone submatrix in lexicographic order, or None.

    None means the whole space was enumerated; a truncated search raises
    BudgetExceededError instead.
    """
    return _first_witness(m, n, budget, ROW_MONOTONE)


def brute_force_monotone(m: Matrix, n: int, budget: SearchBudget = SearchBudget()):
    """First n x n monotone submatrix in lexicographic order, or None.

    Column directions are read on the transpose, down the chosen rows.
    """
    return _first_witness(m, n, budget, MONOTONE)


def es_extremal_sequence(n: int) -> tuple[int, ...]:
    """Length-(n-1)^2 sequence with no monotone subsequence of length n.

    Built from n-1 descending blocks of n-1 consecutive values, blocks rising:
    an increasing subsequence takes at most one value per block and a
    decreasing one cannot leave its block.
    """
    if n < 1:
        raise ValueError("n must be positive")
    out = []
    for block in range(n - 1):
        top = (block + 1) * (n - 1)
        out.extend(range(top, block * (n - 1), -1))
    return tuple(out)
