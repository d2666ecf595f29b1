"""Independent brute-force searchers used as ground truth for everything else.

Enumeration is lexicographic over index subsets (rows outer, columns inner),
so "first witness" is canonical and runs are reproducible. Exceeding a budget
raises instead of returning absent: "not found" is never conflated with "does
not exist".
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, repeat
from math import comb, lcm
from operator import attrgetter, ge, le, lshift, mul, or_, sub

from .errors import BudgetExceededError
from .matrix import (
    DECREASING,
    INCREASING,
    MONOTONE,
    ROW_MONOTONE,
    Matrix,
    SubmatrixWitness,
)

_BLOCK = 64  # columns packed at a time, as the search first reaches them


@dataclass(frozen=True)
class SearchBudget:
    """Caps on subset enumeration; lexicographic order is the canonical one."""

    max_row_subsets: int = 10_000_000
    max_col_subsets: int = 10_000_000

    def __post_init__(self):
        if self.max_row_subsets < 1 or self.max_col_subsets < 1:
            raise ValueError("budgets must be positive")


def _code_rule(row) -> tuple:
    """(low, scale, bits) of a row: its codes (v - low) * scale are non-negative
    ints in the order of its entries, none wider than bits. low is the row's
    minimum and scale the lcm of its denominators, or 0 when every entry is an
    int and the codes are v - low.
    """
    low, high = min(row), max(row)
    # An int plus a Fraction is a Fraction, so the sum is an int only if every entry is.
    if type(sum(row)) is int:
        return low, 0, (high - low).bit_length()
    scale = lcm(*map(attrgetter("denominator"), row))
    return low, scale, int((high - low) * scale).bit_length()


def _first_witness(m: Matrix, n: int, budget: SearchBudget, kind: str):
    """First n x n witness of the kind, rows outer and columns inner, or None.

    Per row subset, column subsets are visited depth first in lexicographic
    order, and a prefix is extended only while its rows (and, for the full
    kind, its columns) share a weak direction. A subsequence of a weakly
    monotone sequence is monotone the same way, so no skipped subset is a
    witness. Skipped subsets still count against the column budget, so the
    search raises where a plain loop over all column subsets would.

    Rows are compared on codes, not entries: each row's entries map to
    non-negative ints in the same order (_code_rule), and a column's codes in
    the chosen rows are packed into one int, b bits a field, where b is one
    more than the widest code. The top bit of each field is a guard, and G is
    the mask of them all. Column j is weakly above column p in every chosen
    row exactly when ((P[j] | G) - P[p]) & G == G: each field computes
    2^(b-1) + x_j - x_p, which lies in [1, 2^b) because both codes are below
    2^(b-1), so no field borrows from the next and its guard survives exactly
    when x_j >= x_p. Columns are packed a block at a time as the search first
    reaches them, so a search that stops early packs only what it read.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if n > m.rows or n > m.cols:
        return None
    width = m.cols
    # Counting only matters when the column subsets outnumber the budget.
    cap = budget.max_col_subsets if comb(width, n) > budget.max_col_subsets else 0
    rules: list = [None] * m.rows  # made when a row subset first uses the row
    codes: list = [[] for _ in range(m.rows)]  # extended a block at a time
    for count, rows in enumerate(combinations(range(m.rows), n), 1):
        if count > budget.max_row_subsets:
            raise BudgetExceededError(f"row-subset budget {budget.max_row_subsets} exhausted")
        for a in rows:
            if rules[a] is None:
                rules[a] = _code_rule(m.entries[a])
        b = max(rules[a][2] for a in rows) + 1
        guard = ((1 << n * b) - 1) // ((1 << b) - 1) << (b - 1)
        # Bits of the directions still open: 1 and 2 rows up and down the
        # picked columns, 4 and 8 columns up and down the picked rows.
        packed, guarded, opens, end = [], [], [], 0
        # top is the picked prefix's state, states the states of its shorter
        # prefixes, and prev and prev_guarded its last column's packed codes.
        picks, states, top, skipped, j, depth = [], [], 15, 0, 0, 0
        last = width - n  # a pick at depth k takes a column up to last + k
        while depth < n:
            if j > last + depth:
                if not depth:
                    break
                j = picks.pop() + 1
                top = states.pop()
                depth -= 1
                if depth:
                    prev, prev_guarded = packed[picks[-1]], guarded[picks[-1]]
                continue
            if j == end:
                end = min(j + _BLOCK, width)
                for a in rows:
                    if len(codes[a]) < end:
                        low, scale, _ = rules[a]
                        shifted = map(sub, m.entries[a][j:end], repeat(low))
                        if scale:
                            shifted = map(int, map(mul, shifted, repeat(scale)))
                        codes[a] += shifted
                block = codes[rows[0]][j:end]
                for k in range(1, n):
                    shifted = map(lshift, codes[rows[k]][j:end], repeat(k * b))
                    block = list(map(or_, block, shifted))
                packed += block
                guarded += map(or_, block, repeat(guard))
                if kind == MONOTONE:
                    opens += [
                        3 | 4 * all(map(le, v, v[1:])) | 8 * all(map(ge, v, v[1:]))
                        for v in zip(*(m.entries[a][j:end] for a in rows))
                    ]
                else:
                    opens += repeat(15, end - j)
            state = top & opens[j]
            if depth:
                if state & 1 and (guarded[j] - prev) & guard != guard:
                    state ^= 1
                if state & 2 and (prev_guarded - packed[j]) & guard != guard:
                    state ^= 2
            if state & 3 and state & 12:
                picks.append(j)
                states.append(top)
                top, prev, prev_guarded = state, packed[j], guarded[j]
                depth += 1
            elif cap:  # count every subset that extends the pruned prefix
                skipped += comb(width - j - 1, n - depth - 1)
                if skipped >= cap:
                    raise BudgetExceededError(f"column-subset budget {cap} exhausted")
            j += 1
        else:
            col_dir = (INCREASING if top & 4 else DECREASING) if kind == MONOTONE else None
            row_dir = INCREASING if top & 1 else DECREASING
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
