"""Exact searches for n x n (row-)monotone submatrices.

chain_search visits row sets depth first in lexicographic order and takes,
at n rows, their lexicographically smallest column set, so "first witness"
is canonical and runs are reproducible. The oracles run it under the budget
of a plain loop over all subset pairs: exceeding a budget raises instead of
returning absent, so "not found" is never conflated with "does not exist".
The tests check them against that plain loop, which shares none of this
module's code.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import accumulate, compress, repeat
from math import comb
from operator import and_, ge, le, or_

from .errors import BudgetExceededError
from .matrix import (
    DECREASING,
    INCREASING,
    MONOTONE,
    ROW_MONOTONE,
    Matrix,
    SubmatrixWitness,
)

# Widest matrix chain_search searches at n >= 2: a node's masks and a row's
# order table each take about N^2/4 bytes. A truncated search peaked at
# 71-91 MB RSS at 8192 columns, 229-301 MB at 16384 (2 x N, no two columns
# agreeing, n = 2; 8 x N random, n = 8; 2 cores, Python 3.11.7).
MAX_WIDTH = 8192


def _refuse_past_width(m) -> None:
    """Raise BudgetExceededError for a matrix wider than MAX_WIDTH, before any entry is read."""
    if m.cols > MAX_WIDTH:
        raise BudgetExceededError(f"width cap of {MAX_WIDTH} columns exceeded")


@dataclass(frozen=True)
class SearchBudget:
    """Caps of a plain loop over row subsets (outer) and column subsets (inner).

    Both are taken in lexicographic order, and the column count restarts
    with each row subset. The oracles raise where that loop would test row
    subset max_row_subsets + 1, or column subset max_col_subsets + 1 of one
    row subset.
    """

    max_row_subsets: int = 10_000_000
    max_col_subsets: int = 10_000_000

    def __post_init__(self):
        if self.max_row_subsets < 1 or self.max_col_subsets < 1:
            raise ValueError("budgets must be positive")


def lex_rank(subset, size: int) -> int:
    """1-based position of an increasing index tuple among the
    len(subset)-subsets of range(size) in lexicographic order."""
    k = len(subset)
    return comb(size, k) - sum(comb(size - 1 - r, k - i) for i, r in enumerate(subset))


def order_table(values, bits) -> tuple:
    """(at_least, at_most, ranks) of a row of values, bits[i] marking the i-th.

    ranks[i] is the index of the i-th value among the row's distinct values
    in increasing order. at_least[k] (at_most[k]) is the OR of the bits of
    the values of rank >= k (<= k), and at_least ends in 0. So the values
    weakly above the i-th are at_least[ranks[i]] and those weakly below it
    are at_most[ranks[i]].
    """
    keys = sorted(set(values))
    rank = dict(zip(keys, range(len(keys))))
    # 4-byte ranks: a row would need 2^32 distinct values to overflow them.
    ranks = array("I", map(rank.__getitem__, values))
    masks = [0] * len(keys)
    for bit, k in zip(bits, ranks):
        masks[k] |= bit
    # Tuples, unlike lists built from an iterator, hold no spare slots.
    at_least = tuple(accumulate(reversed(masks), or_, initial=0))[::-1]
    return at_least, tuple(accumulate(masks, or_)), ranks


def chain_starts(later: list, cols: int, n: int, bits):
    """For t = 0..n, the mask of the columns of cols that start a chain of t
    columns of cols, each in the later mask of the one before; bits[i] is
    column i's bit, as in order_table. None when no chain of n columns
    exists: the last n - t + 1 columns of such a chain each start a chain of
    t, so the search stops at the first layer t that holds fewer columns."""
    out = [cols, cols]
    for t in range(1, n):
        if out[t].bit_count() < n - t + 1:
            return None
        out.append(cols & sum(compress(bits, map(and_, later, repeat(out[t])))))
    return out if out[n] else None


def _first_chain(rel, allowed: int, n: int, bits):
    """The lexicographically smallest rel-chain of n columns inside `allowed`, or None."""
    # The smallest column, then its smallest successor, and so on: when that
    # reaches n columns, no chain of n columns comes before it.
    cols, pick = [], allowed
    while pick and len(cols) < n:
        cols.append((pick & -pick).bit_length() - 1)
        pick = rel[cols[-1]] & allowed
    if len(cols) == n:
        return tuple(cols)
    starts = chain_starts(rel, allowed, n, bits)
    if starts is None:
        return None
    # Each pick is the smallest successor of the last that starts a chain
    # of the columns still to pick.
    cols, pick = [], -1
    for layer in reversed(starts[1:]):
        pick &= layer
        cols.append((pick & -pick).bit_length() - 1)
        pick = rel[cols[-1]]
    return tuple(cols)


def chain_search(m: Matrix, n: int, kind: str, max_row_sets: int | None = None):
    """First n x n witness of the kind, rows outer and columns inner, or None.

    Exact, and equal field for field to the first witness of a plain loop
    over row subsets and, per row subset, column subsets, both in
    lexicographic order: row sets are visited depth first in lexicographic
    order. A node keeps, per column, the later columns weakly above it in
    every chosen row (up) and weakly below it (down); for MONOTONE also the
    columns weakly increasing and weakly decreasing down the chosen rows. A
    column set fits the chosen rows exactly when it is a chain of one
    relation inside one allowed column mask. Adding a row only shrinks the
    relations and the masks, so a node with no chain of n columns is pruned.
    At n rows the lexicographically smallest chain wins, and ties in
    direction go to increasing.

    A pruned node with k rows whose last row is r rules out the
    C(d - 1 - r, n - k) row sets that extend it, and those before it are
    ruled out already. It raises BudgetExceededError past MAX_WIDTH columns
    (n >= 2), and with max_row_sets once it has ruled out that many.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if n > m.rows or n > m.cols:
        return None
    if n == 1:  # every entry is a witness, increasing both ways
        col_direction = INCREASING if kind == MONOTONE else None
        return SubmatrixWitness((0,), (0,), kind, INCREASING, col_direction)
    _refuse_past_width(m)
    entries, rows, size = m.entries, m.rows, m.cols
    full = (1 << size) - 1
    bits = [1 << i for i in range(size)]
    # A whole-row order table holds up to N^2/4 bytes of masks. Each row's is
    # kept once built while all d of them fit in 64 MiB; past that, every node
    # builds its new row's table again.
    tables = [None] * rows if rows * size * size <= 1 << 28 else None
    later = [full ^ ((2 << i) - 1) for i in range(size)]
    # A constant row has every column above and below the others.
    varied = [row.count(row[0]) < size for row in entries]
    # Each entry is a node (its rows and their masks) and the next row to try
    # below it. A node goes back on the stack only while it has rows left to
    # try, so the stack holds the nodes of the current path that still branch.
    stack = [((), (later, later, full, full), 0)]
    ruled_out = 0
    while stack:
        chosen, state, r = stack.pop()
        if r < rows - n + len(chosen):
            stack.append((chosen, state, r + 1))
        up, down, inc, dec = state
        row = entries[r]
        if narrowed := varied[r]:
            if tables is None:
                table = order_table(row, bits)
            elif (table := tables[r]) is None:
                table = tables[r] = order_table(row, bits)
            at_least, at_most, ranks = table
            up = [u & at_least[k] for u, k in zip(up, ranks)]
            down = [u & at_most[k] for u, k in zip(down, ranks)]
        if chosen and kind == MONOTONE and (prev := entries[chosen[-1]]) != row:
            inc &= sum(compress(bits, map(le, prev, row)))
            dec &= sum(compress(bits, map(ge, prev, row)))
            narrowed = True
        chosen += (r,)
        state = up, down, inc, dec
        # Every node on the stack holds a chain of n columns (the root too,
        # as n <= N), so a row that narrows no mask keeps one.
        if not narrowed and len(chosen) < n:
            stack.append((chosen, state, r + 1))
            continue
        chains = (
            cols
            for mask in {inc, dec}
            for rel in (up, down)
            if (cols := _first_chain(rel, mask, n, bits))
        )
        first = next(chains, None)
        if first is None:
            if max_row_sets is not None:
                ruled_out += comb(rows - 1 - r, n - len(chosen))
                if ruled_out >= max_row_sets:
                    raise BudgetExceededError(f"row-subset budget {max_row_sets} exhausted")
            continue
        if len(chosen) < n:
            stack.append((chosen, state, r + 1))
            continue
        cols = min([first, *chains])
        rising = all(up[a] >> b & 1 for a, b in zip(cols, cols[1:]))
        col_direction = None
        if kind == MONOTONE:
            col_direction = INCREASING if all(inc >> c & 1 for c in cols) else DECREASING
        return SubmatrixWitness(
            rows=chosen,
            cols=cols,
            kind=kind,
            row_direction=INCREASING if rising else DECREASING,
            col_direction=col_direction,
        )
    return None


def _first_witness(m: Matrix, n: int, budget: SearchBudget, kind: str):
    """chain_search under the budget, raising where the plain loop would.

    That loop restarts its column count with each row subset, so once
    C(N, n) passes the column budget it never gets past rows 0..n-1: their
    first column set is the witness when its rank is within the budget.
    Otherwise the row budget binds only when C(d, n) passes it. The size
    checks come first, so a WitnessMatrix builds entries only for a search.
    """
    if n < 2 or n > m.rows or n > m.cols:  # settled before any entry is read
        return chain_search(m, n, kind)
    _refuse_past_width(m)
    max_rows, max_cols = budget.max_row_subsets, budget.max_col_subsets
    if comb(m.cols, n) > max_cols:
        found = chain_search(Matrix(m.entries[:n]), n, kind)
        if found is None or lex_rank(found.cols, m.cols) > max_cols:
            raise BudgetExceededError(f"column-subset budget {max_cols} exhausted")
        return found
    return chain_search(m, n, kind, max_rows if comb(m.rows, n) > max_rows else None)


def brute_force_row_monotone(m: Matrix, n: int, budget: SearchBudget = SearchBudget()):
    """First n x n row-monotone submatrix in lexicographic order, or None.

    None means the whole space was searched; a truncated search raises
    BudgetExceededError instead.
    """
    return _first_witness(m, n, budget, ROW_MONOTONE)


def brute_force_monotone(m: Matrix, n: int, budget: SearchBudget = SearchBudget()):
    """First n x n monotone submatrix in lexicographic order, or None.

    Column directions are read down the chosen rows.
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
