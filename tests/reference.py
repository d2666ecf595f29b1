"""Reference enumerations the tests check the package against; not part of the package."""

from itertools import combinations

from monomat.extraction import BLUE, RED


def brute_force_monochromatic(cm, n: int, s: int):
    """First n x s single-color block over column subsets, red before blue.

    For each s-subset of columns (lexicographic), the rows constant in each
    color are collected; the first subset with n such rows wins.
    """
    if n > cm.rows or s > cm.cols:
        return None
    entries = cm.entries
    for cols in combinations(range(cm.cols), s):
        for color in (RED, BLUE):
            rows = [a for a in range(cm.rows) if all(entries[a][j] == color for j in cols)]
            if len(rows) >= n:
                return tuple(rows[:n]), cols, color
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
