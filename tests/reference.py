"""Reference enumerations the tests check the package against; not part of the package."""

from itertools import combinations

from monomat.errors import BudgetExceededError, FormatError
from monomat.matrix import (
    DECREASING,
    INCREASING,
    MONOTONE,
    ROW_MONOTONE,
    Matrix,
    SubmatrixWitness,
    _parse_value,
    meaningful_lines,
)


def brute_force_monochromatic(sm, n: int, s: int):
    """First n x s single-sign block of a SignMatrix over column subsets, +1 before -1.

    For each s-subset of columns (lexicographic), the rows constant in each
    sign are collected; the first subset with n such rows wins.
    """
    if n > sm.rows or s > sm.cols:
        return None
    entries = sm.entries
    for cols in combinations(range(sm.cols), s):
        for sign in (1, -1):
            rows = [a for a in range(sm.rows) if all(entries[a][j] == sign for j in cols)]
            if len(rows) >= n:
                return tuple(rows[:n]), cols, sign
    return None


def row_set_profiles(w, n: int):
    """Yield (row set, all-plus columns, all-minus columns) over all n-row sets of a witness.

    Column indices are 0-based positions in the sign matrix.
    """
    entries = w.signs.entries
    for rows in combinations(range(w.rows), n):
        plus = tuple(j for j in range(w.t) if all(entries[r][j] > 0 for r in rows))
        minus = tuple(j for j in range(w.t) if all(entries[r][j] < 0 for r in rows))
        yield rows, plus, minus


def parse_matrix_per_token(text: str) -> Matrix:
    """The matrix text format read one token at a time, as parse_matrix reads
    any row its JSON fast path refuses; same values, types and error messages."""
    lines = list(meaningful_lines(text))
    if not lines:
        raise FormatError(1, "empty matrix file")
    lineno, header = lines[0]
    parts = header.split()
    if len(parts) != 2 or "_" in header:
        raise FormatError(lineno, "header must be 'd N'")
    try:
        d, n_cols = int(parts[0]), int(parts[1])
    except ValueError:
        raise FormatError(lineno, "header must be 'd N'") from None
    if d < 1 or n_cols < 1:
        raise FormatError(lineno, "dimensions must be positive")
    if len(lines) - 1 != d:
        raise FormatError(lineno, f"expected {d} data rows, found {len(lines) - 1}")
    rows = []
    for lineno, content in lines[1:]:
        tokens = content.split()
        if len(tokens) != n_cols:
            raise FormatError(lineno, f"expected {n_cols} values, found {len(tokens)}")
        if "_" in content:
            raise FormatError(lineno, "'_' is not allowed in a value")
        rows.append(tuple(_parse_value(tok, lineno) for tok in tokens))
    return Matrix(tuple(rows))


def _direction(lines, picks, steps):
    """Weak direction shared by the picked lines along the steps, increasing preferred."""
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


def plain_first_witness(m, n, budget, kind):
    """Reference: every row subset times every column subset, both lexicographic.

    Each subset counts against its budget before it is tested, so a search
    raises as soon as it would test subset number budget + 1.
    """
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


def split_by_sort(coords, positions):
    """One round of the bipartite split on tie-free values, each coordinate cut by a full sort.

    Returns (sign, first, second) as the package's split does: the group's
    halves shrink per coordinate to the side of the median cut each keeps.
    """
    half = len(positions) // 2
    first, second = positions[:half], positions[len(positions) - half :]
    signs = []
    for col in coords:
        cut = sorted(col[p] for p in first + second)[len(first)]
        first_low = [p for p in first if col[p] < cut]
        if 2 * len(first_low) >= len(first):
            first, second = first_low, [p for p in second if col[p] >= cut]
            signs.append(1)
        else:
            first = [p for p in first if col[p] >= cut]
            second = [p for p in second if col[p] < cut]
            signs.append(-1)
    return tuple(signs), first, second


def deepest_tree_like_by_sort(m):
    """(labels, representative columns) of the deepest tree-like descent by split_by_sort."""
    groups, labels, height = [list(range(m.cols))], {}, 0
    while all(len(group) >= 2 for group in groups):
        splits = [split_by_sort(m.entries, group) for group in groups]
        labels.update(((height, gi + 1), sign) for gi, (sign, _, _) in enumerate(splits))
        groups = [half for _, first, second in splits for half in (first, second)]
        height += 1
    return labels, tuple(group[0] for group in groups)
