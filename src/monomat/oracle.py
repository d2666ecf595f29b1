"""Independent brute-force searchers used as ground truth for everything else.

Enumeration is lexicographic over index subsets (rows outer, columns inner),
so "first witness" is canonical and runs are reproducible. Exceeding a budget
raises instead of returning absent: "not found" is never conflated with "does
not exist".
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import BudgetExceededError
from .extraction import BLUE, RED, ColoredMatrix
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


def _direction(lines, picks, steps):
    """Weak direction shared by the picked lines along the steps, increasing preferred.

    lines[a][i] is step i of line a; returns None when no direction fits.
    """
    increasing = True
    decreasing = True
    for a in picks:
        line = lines[a]
        prev = line[steps[0]]
        for i in steps[1:]:
            cur = line[i]
            if cur < prev:
                increasing = False
            if cur > prev:
                decreasing = False
            if not increasing and not decreasing:
                return None
            prev = cur
    return INCREASING if increasing else DECREASING


def _first_witness(m: Matrix, n: int, budget: SearchBudget, kind: str):
    """First n x n witness of the kind, rows outer and columns inner, or None."""
    if n < 1:
        raise ValueError("n must be positive")
    if n > m.rows or n > m.cols:
        return None
    entries = m.entries
    columns = m.transpose().entries if kind == MONOTONE else None
    row_count = 0
    for rows in combinations(range(m.rows), n):
        row_count += 1
        if row_count > budget.max_row_subsets:
            raise BudgetExceededError(f"row-subset budget {budget.max_row_subsets} exhausted")
        col_count = 0
        for cols in combinations(range(m.cols), n):
            col_count += 1
            if col_count > budget.max_col_subsets:
                raise BudgetExceededError(
                    f"column-subset budget {budget.max_col_subsets} exhausted"
                )
            row_dir = _direction(entries, rows, cols)
            if row_dir is None:
                continue
            col_dir = _direction(columns, cols, rows) if kind == MONOTONE else None
            if kind == ROW_MONOTONE or col_dir is not None:
                return SubmatrixWitness(rows, cols, kind, row_dir, col_dir)
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


def brute_force_monochromatic(
    cm: ColoredMatrix, n: int, s: int, budget: SearchBudget = SearchBudget()
):
    """First n x s single-color block over column subsets, red before blue.

    For each s-subset of columns (lexicographic), the rows constant in each
    color are collected; the first subset with n such rows wins.
    """
    if n < 1 or s < 0:
        raise ValueError("need n >= 1 and s >= 0")
    if n > cm.rows or s > cm.cols:
        return None
    entries = cm.entries
    col_count = 0
    for cols in combinations(range(cm.cols), s):
        col_count += 1
        if col_count > budget.max_col_subsets:
            raise BudgetExceededError(f"column-subset budget {budget.max_col_subsets} exhausted")
        for color in (RED, BLUE):
            rows = [a for a in range(cm.rows) if all(entries[a][j] == color for j in cols)]
            if len(rows) >= n:
                return tuple(rows[:n]), cols, color
    return None


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
