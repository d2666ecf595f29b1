"""Reference enumerations the tests check the package against; not part of the package."""

from itertools import combinations

from monomat.errors import FormatError
from monomat.extraction import BLUE, RED
from monomat.matrix import Matrix, _parse_value, meaningful_lines


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


def is_sign_row_by_tokens(line: str) -> bool:
    """The sign-row test spelled out: every character a sign, or some whitespace token a bare sign."""
    return set(line) <= {"+", "-"} or any(tok in ("+", "-") for tok in line.split())
