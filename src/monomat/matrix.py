"""Exact matrices, sign comparisons, monotonicity predicates, and the text format.

Entries are exact integers or fractions, never floats. Row and column indices
are 0-based throughout the Python API.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from functools import cache
from fractions import Fraction

from .errors import (
    FormatError,
    IndexOutOfBoundsError,
    LengthMismatchError,
    TiedCoordinateError,
)

INCREASING = "increasing"
DECREASING = "decreasing"

ROW_MONOTONE = "row-monotone"
MONOTONE = "monotone"

# A sign vector is a tuple over {-1, +1}, one entry per matrix row.
SignVector = tuple[int, ...]


def sign_diff(v, w) -> SignVector:
    """Coordinatewise sign of w - v.

    Raises TiedCoordinateError if the vectors agree on any coordinate, since
    the comparison pattern is undefined there.
    """
    if len(v) != len(w):
        raise LengthMismatchError(f"dimension mismatch: {len(v)} vs {len(w)}")
    out = []
    for a, (x, y) in enumerate(zip(v, w)):
        if x == y:
            raise TiedCoordinateError(a)
        out.append(1 if y > x else -1)
    return tuple(out)


def sign_str(s: SignVector) -> str:
    """Render a sign vector as a '+'/'-' string."""
    return "".join("+" if x > 0 else "-" for x in s)


@dataclass(frozen=True)
class SignMatrix:
    """d x t matrix over {-1, +1}, stored row-major."""

    entries: tuple[tuple[int, ...], ...]

    @classmethod
    def from_rows(cls, rows) -> "SignMatrix":
        rows = tuple(tuple(row) for row in rows)
        if not rows:
            raise ValueError("need at least one row")
        width = len(rows[0])
        for row in rows:
            if len(row) != width:
                raise ValueError("ragged rows")
            if any(v not in (-1, 1) for v in row):
                raise ValueError("entries must be -1 or +1")
        return cls(rows)

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0])

    def col(self, j: int) -> tuple[int, ...]:
        if not 0 <= j < self.cols:
            raise IndexOutOfBoundsError(f"column {j} outside 0..{self.cols - 1}")
        return tuple(row[j] for row in self.entries)


_EXACT_TYPES = (int, Fraction)


@dataclass(frozen=True)
class Matrix:
    """Dense matrix of exact values, stored row-major as nested tuples."""

    entries: tuple[tuple, ...]

    @classmethod
    def from_rows(cls, rows) -> "Matrix":
        rows = tuple(tuple(row) for row in rows)
        if not rows or not rows[0]:
            raise ValueError("matrix needs at least one row and one column")
        width = len(rows[0])
        for row in rows:
            if len(row) != width:
                raise ValueError("ragged rows")
            for value in row:
                if isinstance(value, bool) or not isinstance(value, _EXACT_TYPES):
                    raise TypeError(f"entries must be int or Fraction, got {value!r}")
        return cls(rows)

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0])

    def entry(self, a: int, i: int):
        if not (0 <= a < self.rows and 0 <= i < self.cols):
            raise IndexOutOfBoundsError(f"entry ({a}, {i}) outside {self.rows}x{self.cols}")
        return self.entries[a][i]

    def column(self, i: int) -> tuple:
        if not 0 <= i < self.cols:
            raise IndexOutOfBoundsError(f"column {i} outside {self.rows}x{self.cols}")
        return tuple(row[i] for row in self.entries)

    def transpose(self) -> "Matrix":
        return Matrix(tuple(zip(*self.entries)))


def submatrix(m: Matrix, rows, cols) -> Matrix:
    """Induced submatrix on the given strictly sorted index sets."""
    rows = tuple(rows)
    cols = tuple(cols)
    for name, idx, bound in (("row", rows, m.rows), ("column", cols, m.cols)):
        if not idx:
            raise ValueError(f"empty {name} selection")
        if any(b <= a for a, b in zip(idx, idx[1:])):
            raise ValueError(f"{name} indices must be strictly sorted")
        if idx[0] < 0 or idx[-1] >= bound:
            raise IndexOutOfBoundsError(f"{name} index outside matrix of {bound}")
    return Matrix(tuple(tuple(m.entries[a][i] for i in cols) for a in rows))


def _non_decreasing(seq) -> bool:
    return all(x <= y for x, y in zip(seq, seq[1:]))


def _non_increasing(seq) -> bool:
    return all(x >= y for x, y in zip(seq, seq[1:]))


def is_row_monotone(m: Matrix):
    """Common weak direction of all rows, or None.

    Constant rows count as increasing, so an all-constant matrix reports
    'increasing'.
    """
    if all(_non_decreasing(row) for row in m.entries):
        return INCREASING
    if all(_non_increasing(row) for row in m.entries):
        return DECREASING
    return None


def is_monotone(m: Matrix):
    """(row direction, column direction) when both axes are uniform, else None.

    Columns are read top to bottom; the two directions are independent.
    """
    row_dir = is_row_monotone(m)
    if row_dir is None:
        return None
    col_dir = is_row_monotone(m.transpose())
    if col_dir is None:
        return None
    return row_dir, col_dir


@dataclass(frozen=True)
class SubmatrixWitness:
    """Row set, column set, and directions certifying a found submatrix.

    kind is 'row-monotone' (col_direction is None) or 'monotone' (both
    directions set). Directions are claims under the weak predicates: a
    constant row satisfies either direction.
    """

    rows: tuple[int, ...]
    cols: tuple[int, ...]
    kind: str
    row_direction: str
    col_direction: str | None = None

    def __post_init__(self):
        if self.kind not in (ROW_MONOTONE, MONOTONE):
            raise ValueError(f"unknown witness kind {self.kind!r}")
        if (self.kind == MONOTONE) != (self.col_direction is not None):
            raise ValueError("col_direction is set exactly for kind 'monotone'")
        for idx in (self.rows, self.cols):
            if not idx or any(b <= a for a, b in zip(idx, idx[1:])):
                raise ValueError("witness index sets must be non-empty and strictly sorted")

    def validate(self, m: Matrix) -> bool:
        """True iff the claimed kind holds weakly on the induced submatrix."""
        if self.rows[-1] >= m.rows or self.cols[-1] >= m.cols or self.rows[0] < 0 or self.cols[0] < 0:
            return False
        sub = submatrix(m, self.rows, self.cols)
        row_ok = _non_decreasing if self.row_direction == INCREASING else _non_increasing
        if not all(row_ok(row) for row in sub.entries):
            return False
        if self.kind == MONOTONE:
            col_ok = _non_decreasing if self.col_direction == INCREASING else _non_increasing
            if not all(col_ok(col) for col in zip(*sub.entries)):
                return False
        return True


def ceil_log2(n: int) -> int:
    """Smallest s with 2^s >= n, for n >= 1."""
    if n < 1:
        raise ValueError("n must be positive")
    return (n - 1).bit_length()


@cache
def _digit_bound(limit: int) -> int:
    """10**limit, the least integer that str() refuses under a digit limit of `limit`."""
    return 10**limit


def _parse_value(token: str, lineno: int):
    try:
        return int(token)
    except ValueError:
        pass
    limit = sys.get_int_max_str_digits()  # int()'s digit limit for str; 0 means none
    try:
        if "/" in token:
            num, den = token.split("/")
            value = Fraction(int(num), int(den))
        elif "." in token or "e" in token or "E" in token:
            # Fraction computes 10**exponent whatever its size; hold it to the limit.
            exponent = token.lower().partition("e")[2]
            if exponent and limit and abs(int(exponent)) > limit:
                raise FormatError(lineno, f"exponent of {token!r} is out of range (limit {limit})")
            value = Fraction(token)
        else:
            raise ValueError(token)
    except (ValueError, ZeroDivisionError):
        raise FormatError(lineno, f"bad value {token!r}") from None
    # format_matrix writes the value back with str(), which refuses more digits than the limit.
    if limit and max(abs(value.numerator), value.denominator) >= _digit_bound(limit):
        raise FormatError(lineno, f"{token!r} has more than {limit} digits")
    return value


_INT_ROW_BYTES = b"0123456789 -"  # the only bytes of a row the JSON scanner reads


def meaningful_lines(text: str):
    """(line number, stripped content) of each non-blank line that is not a '#' comment."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if stripped and not stripped.startswith("#"):
            yield lineno, stripped


def parse_matrix(text: str) -> Matrix:
    """Parse the matrix text format: 'd N' then d rows of N values.

    '#' comment lines are ignored. Errors name the offending line.
    """
    return parse_matrix_lines(list(meaningful_lines(text)))


def parse_matrix_lines(lines: list) -> Matrix:
    """parse_matrix on a file's list of meaningful_lines."""
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
        # A row of integers separated by single spaces is a JSON array once the
        # spaces become commas, and the stdlib scanner reads it about twice as
        # fast as int() per token. Whatever it refuses ('05', '1-2', runs of
        # spaces, over-limit digit counts) or reads to the wrong length takes the
        # per-token path below, which reads the same values and words every error.
        if content.isascii() and not content.encode().translate(None, _INT_ROW_BYTES):
            try:
                values = json.loads("[" + content.replace(" ", ",") + "]")
            except ValueError:
                values = ()
            if len(values) == n_cols:
                rows.append(tuple(values))
                continue
        tokens = content.split()
        if len(tokens) != n_cols:
            raise FormatError(lineno, f"expected {n_cols} values, found {len(tokens)}")
        if "_" in content:  # int() and Fraction() would read '1_0' as 10
            raise FormatError(lineno, "'_' is not allowed in a value")
        try:
            rows.append(tuple(map(int, tokens)))
        except ValueError:
            rows.append(tuple(_parse_value(tok, lineno) for tok in tokens))
    # Every row has n_cols >= 1 values and each is an int or a Fraction: no from_rows checks.
    return Matrix(tuple(rows))


def format_matrix(m: Matrix) -> str:
    """Inverse of parse_matrix; str() of a Fraction is already 'p/q', or 'p' when integral."""
    lines = [f"{m.rows} {m.cols}"]
    lines.extend(" ".join(map(str, row)) for row in m.entries)
    return "\n".join(lines) + "\n"

