"""Exact searches for n x n (row-)monotone submatrices.

The oracles enumerate index subsets lexicographically (rows outer, columns
inner), so "first witness" is canonical and runs are reproducible. Exceeding
a budget raises instead of returning absent: "not found" is never conflated
with "does not exist". chain_search, the pipelines' exhaustive fallback,
returns the same first witness by pruning row prefixes. Both read each row
through order_table and narrow their masks by one row with _add_row; the
tests check both against a plain loop over all subset pairs that shares
neither.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import reduce
from itertools import accumulate, combinations, compress, repeat
from math import comb
from operator import and_, ge, getitem, le, or_

from .errors import BudgetExceededError
from .matrix import (
    DECREASING,
    INCREASING,
    MONOTONE,
    ROW_MONOTONE,
    Matrix,
    SubmatrixWitness,
)

_BLOCK = 64  # columns per order table and per mask
_BITS = [1 << i for i in range(_BLOCK)]
_LATER = [(1 << _BLOCK) - (2 << i) for i in range(_BLOCK)]  # the bits above bit i


@dataclass(frozen=True)
class SearchBudget:
    """Caps on subset enumeration; lexicographic order is the canonical one."""

    max_row_subsets: int = 10_000_000
    max_col_subsets: int = 10_000_000

    def __post_init__(self):
        if self.max_row_subsets < 1 or self.max_col_subsets < 1:
            raise ValueError("budgets must be positive")


def order_table(values, bits) -> tuple:
    """(keys, at_least, at_most, ranks) of a row of values, bits[i] marking the i-th.

    keys are the distinct values in increasing order and ranks[i] is the
    index in keys of the i-th value. at_least[k] (at_most[k]) is the OR of
    the bits of the values >= keys[k] (<= keys[k]); at_least ends in 0. So
    the values weakly above a value v are at_least[bisect_left(keys, v)] and
    those strictly above it are at_least[bisect_right(keys, v)]. _block
    passes the bits of a 64-column block, chain_search those of a whole row.
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
    return keys, at_least, tuple(accumulate(masks, or_)), ranks


def chain_starts(later: list, cols: int, n: int, bits) -> list:
    """For t = 0..n, the mask of the columns of cols that start a chain of t
    columns of cols, each in the later mask of the one before; bits[i] is
    column i's bit, as in order_table."""
    ends = cols
    out = [ends, ends]
    for _ in range(n - 1):
        if ends:
            ends = cols & sum(compress(bits, map(and_, later, repeat(ends))))
        out.append(ends)
    return out


def _add_row(state, table, prev, row, bits) -> tuple:
    """state (up, down, inc, dec) narrowed by one more row, read from its order table.
    prev and row hold the values of the row above and of this one, or prev is None
    when inc and dec stay as they are (the row kind, or the first row)."""
    up, down, inc, dec = state
    keys, at_least, at_most, ranks = table
    if len(keys) > 1:  # a constant row has every column above and below the others
        up = [u & at_least[k] for u, k in zip(up, ranks)]
        down = [u & at_most[k] for u, k in zip(down, ranks)]
    if prev is not None:
        inc &= sum(compress(bits, map(le, prev, row)))
        dec &= sum(compress(bits, map(ge, prev, row)))
    return up, down, inc, dec


def _block(m: Matrix, rows, tables: list, shared: list, b: int, kind: str) -> tuple:
    """Block b of the chosen rows: (keys, at_least, up, down, inc, dec, chains).

    keys and at_least hold each row's sequences, to bisect values of earlier
    blocks. up[i] (down[i]) marks the later columns of the block weakly above
    (below) its i-th column in every row. inc (dec) marks its columns weakly
    increasing (decreasing) down the rows: every column for the row kind.
    chains[t] is the pair of masks of the columns of inc | dec that start a
    chain of t such columns, each in the up (down) mask of the one before.
    Only in the last block does every chain end inside the block, so in the
    others chains lets every column through.

    Order tables are kept in tables[b][row] as they are first read.
    shared[b] keeps up, down, inc and dec of the first n - 1 rows, so a row
    subset that shares them with the one before adds only its last row.
    """
    n, lo, end = len(rows), b * _BLOCK, min(b * _BLOCK + _BLOCK, m.cols)
    start = n - 1
    if shared[b] is None:
        full = (1 << end - lo) - 1
        shared[b], start = (_LATER, _LATER, full, full), 0
    state, prev = shared[b], None
    for i in range(start, n):
        if i == n - 1:
            shared[b] = state
        row = m.entries[rows[i]]
        if (table := tables[b][rows[i]]) is None:
            table = tables[b][rows[i]] = order_table(row[lo:end], _BITS)
        if kind == MONOTONE and i:
            prev, row = m.entries[rows[i - 1]][lo:end], row[lo:end]
        state = _add_row(state, table, prev, row, _BITS)
    up, down, inc, dec = state
    keys, at_least = zip(*(tables[b][a][:2] for a in rows))
    if end < m.cols:
        return keys, at_least, up, down, inc, dec, [(-1, -1)] * (n + 1)
    cols = inc | dec
    chains = zip(chain_starts(up, cols, n, _BITS), chain_starts(down, cols, n, _BITS))
    return keys, at_least, up, down, inc, dec, list(chains)


def _first_witness(m: Matrix, n: int, budget: SearchBudget, kind: str):
    """First n x n witness of the kind, rows outer and columns inner, or None.

    Per row subset, column subsets are visited depth first in lexicographic
    order. A node (a picked prefix) gets the columns it can take next as a
    bitmask, 64 columns (a block) at a time, and walks only its set bits. A
    column survives when the chosen rows (and, for the full kind, the picked
    columns) keep a shared weak direction through it and, in the last block,
    when it starts a chain as long as the columns still to pick. A
    subsequence of a weakly monotone sequence is monotone the same way, so
    no skipped subset is a witness. Skipped subsets still count against the
    column budget, so the search raises where a plain loop over all column
    subsets would: with r columns still to pick after a skipped column j,
    C(W - 1 - j, r) subsets extend it, and a run of skipped columns a..b
    counts C(W - a, r + 1) - C(W - b - 1, r + 1) at once.

    The columns weakly above the last pick in every chosen row are the AND
    of one mask per row, read from the row's order table of the block
    (order_table): by the pick's rank in its own block, by one bisect in
    later blocks. Below likewise; the full kind also ANDs one mask per pair
    of adjacent rows. Tables are built as the search first reaches a block
    (their slots, one per row and block, up front), so memory stays linear
    in the columns read.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if n > m.rows or n > m.cols:
        return None
    width = m.cols
    # Counting only matters when the column subsets outnumber the budget.
    cap = budget.max_col_subsets if comb(width, n) > budget.max_col_subsets else 0
    n_blocks = -(-width // _BLOCK)
    tables = [[None] * m.rows for _ in range(n_blocks)]
    last = width - n  # a pick at depth k takes a column up to last + k
    shared_rows = None
    for count, rows in enumerate(combinations(range(m.rows), n), 1):
        if count > budget.max_row_subsets:
            raise BudgetExceededError(f"row-subset budget {budget.max_row_subsets} exhausted")
        if rows[:-1] != shared_rows:
            shared_rows, shared = rows[:-1], [None] * n_blocks
        blocks: list = [None] * n_blocks
        # p is the node's last pick (-1 at the root), hi its last column and
        # dirs the bits of the directions still open: 1 and 2 rows up and
        # down the picks, 4 and 8 columns up and down the rows. In its block
        # b, from column base, rest holds the columns it has yet to take, up
        # (down) those weakly above (below) p in every row and inc (dec)
        # those increasing (decreasing) down the rows, each 0 when its
        # direction is closed. pos is the first column not yet counted.
        picks: list = []
        saved: list = []  # the same state of each shorter prefix
        p, dirs, b, base, hi, pos = -1, 15, -1, -_BLOCK, last, 0
        rest = up = down = inc = dec = skipped = 0
        while True:
            if rest:
                bit = rest & -rest
                rest ^= bit
                j = base + bit.bit_length() - 1
                if cap:
                    skipped += comb(width - pos, width - hi) - comb(width - j, width - hi)
                    if skipped >= cap:
                        raise BudgetExceededError(f"column-subset budget {cap} exhausted")
                pos = j + 1
                state = (bit & up and 1) | (bit & down and 2)
                state |= (bit & inc and 4) | (bit & dec and 8)
                picks.append(j)
                if len(picks) == n:
                    row_dir = INCREASING if state & 1 else DECREASING
                    col_dir = INCREASING if state & 4 else DECREASING
                    return SubmatrixWitness(
                        rows, tuple(picks), kind, row_dir, col_dir if kind == MONOTONE else None
                    )
                saved.append((p, dirs, b, base, hi, rest, up, down, inc, dec, pos))
                p, dirs, b, hi = j, state, pos // _BLOCK, hi + 1
            elif base + _BLOCK <= hi:
                b += 1
            else:  # the node is done: count its skipped tail and go up
                if cap:
                    skipped += comb(width - pos, width - hi)
                    if skipped >= cap:
                        raise BudgetExceededError(f"column-subset budget {cap} exhausted")
                if not saved:
                    break
                picks.pop()
                p, dirs, b, base, hi, rest, up, down, inc, dec, pos = saved.pop()
                continue
            base = b * _BLOCK
            if blocks[b] is None:
                blocks[b] = _block(m, rows, tables, shared, b, kind)
            keys, at_least, ups, downs, inc, dec, chains = blocks[b]
            span = (1 << min(hi + 1 - base, _BLOCK)) - 1
            if p < 0:
                up = down = span
            elif p >= base:
                up, down = ups[p - base] & span, downs[p - base] & span
            else:
                at = [m.entries[a][p] for a in rows]
                up = reduce(and_, map(getitem, at_least, map(bisect_left, keys, at)), span)
                down = span & ~reduce(or_, map(getitem, at_least, map(bisect_right, keys, at)))
            up, down = (up if dirs & 1 else 0), (down if dirs & 2 else 0)
            inc, dec = (inc if dirs & 4 else 0), (dec if dirs & 8 else 0)
            above, below = chains[width - hi]
            rest = (up & above | down & below) & (inc | dec)
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
    if allowed.bit_count() < n:
        return None
    starts = chain_starts(rel, allowed, n, bits)
    if not starts[n]:
        return None
    # Each pick is the smallest successor of the last that starts a chain
    # of the columns still to pick.
    cols, pick = [], -1
    for layer in reversed(starts[1:]):
        pick &= layer
        cols.append((pick & -pick).bit_length() - 1)
        pick = rel[cols[-1]]
    return tuple(cols)


def chain_search(m: Matrix, n: int, kind: str):
    """First n x n witness of the kind in the oracle's order, or None.

    Exact, and equal field for field to brute_force_row_monotone or
    brute_force_monotone: row sets are visited depth first in lexicographic
    order. A node keeps, per column, the later columns weakly above it in
    every chosen row (up) and weakly below it (down); for MONOTONE also the
    columns weakly increasing and weakly decreasing down the chosen rows. A
    column set fits the chosen rows exactly when it is a chain of one
    relation inside one allowed column mask. Adding a row only shrinks the
    relations and the masks, so a node with no chain of n columns is pruned.
    At n rows the lexicographically smallest chain wins, and ties in
    direction go to increasing.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if n > m.rows or n > m.cols:
        return None
    entries, rows, size = m.entries, m.rows, m.cols
    full = (1 << size) - 1
    bits = [1 << i for i in range(size)]
    # A whole-row order table holds up to N^2/4 bytes of masks. Each row's is
    # kept once built while all d of them fit in 64 MiB; past that, every node
    # builds its new row's table again.
    tables = [None] * rows if rows * size * size <= 1 << 28 else None
    later = [full ^ ((2 << i) - 1) for i in range(size)]
    # Each entry is a node (its rows and their masks) and the next row to try
    # below it. A node goes back on the stack only while it has rows left to
    # try, so the stack holds the nodes of the current path that still branch.
    stack = [((), (later, later, full, full), 0)]
    while stack:
        chosen, state, r = stack.pop()
        if r < rows - n + len(chosen):
            stack.append((chosen, state, r + 1))
        if tables is None:
            table = order_table(entries[r], bits)
        elif (table := tables[r]) is None:
            table = tables[r] = order_table(entries[r], bits)
        prev = entries[chosen[-1]] if chosen and kind == MONOTONE else None
        up, down, inc, dec = state = _add_row(state, table, prev, entries[r], bits)
        chosen += (r,)
        chains = (
            cols
            for mask in {inc, dec}
            for rel in (up, down)
            if (cols := _first_chain(rel, mask, n, bits))
        )
        first = next(chains, None)
        if first is None:
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
