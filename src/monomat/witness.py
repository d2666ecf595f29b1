"""Lower-bound witness matrices: colex machinery, sampled sign matrices, checks, file formats.

A witness matrix is defined implicitly by a d x t sign matrix: column k of the
witness is u_k = sum_i 2^i * y_k(i) * s_i, where y_k is the k-th bit vector of
length t in colexicographic order and s_i is the i-th sign-matrix column. The
comparison pattern of any two witness columns equals the sign-matrix column at
the highest coordinate where their bit vectors differ, so a sign matrix with
no large single-sign block yields a matrix with no large row-monotone
submatrix. Entries are exact integers below 2^(t+1) in magnitude.

Bit-vector coordinates and colex ranks are 1-based, matching the weight 2^i of
coordinate i; matrix row indices stay 0-based.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import comb
from operator import itemgetter
from typing import ClassVar

from .errors import (
    EqualVectorsError,
    ExhaustedAttemptsError,
    FormatError,
    IndexOutOfBoundsError,
    LengthMismatchError,
    MonomatError,
    RankOutOfRangeError,
)
from .extraction import lowest_rows, single_sign_levels
from .matrix import (
    DECREASING,
    INCREASING,
    Matrix,
    SignMatrix,
    ceil_log2,
    meaningful_lines,
    sign_str,
)

BitVector = tuple[int, ...]

# Largest t whose 2^t witness columns are materialized; beyond it only the
# structural check runs.
MAX_MATERIALIZE_T = 20

GENERATOR = "mt19937"  # random.Random's generator, named in every generated file
WITNESS_HEADER = "witness t="
_SIGN_ENTRIES = {"+": 1, "+1": 1, "-": -1, "-1": -1}


def colex_delta(x: BitVector, y: BitVector) -> int:
    """Largest coordinate (1-based) where two bit vectors differ."""
    if len(x) != len(y):
        raise LengthMismatchError(f"length mismatch: {len(x)} vs {len(y)}")
    for i in range(len(x) - 1, -1, -1):
        if x[i] != y[i]:
            return i + 1
    raise EqualVectorsError("vectors are equal")


def colex_unrank(t: int, k: int) -> BitVector:
    """k-th bit vector of length t in colex order, k in 1..2^t.

    Coordinate i holds bit i-1 of k-1, so coordinate 1 is the least
    significant bit.
    """
    if t < 0:
        raise ValueError("t must be non-negative")
    if not 1 <= k <= 1 << t:
        raise RankOutOfRangeError(f"rank {k} outside 1..2^{t}")
    return tuple((k - 1) >> i & 1 for i in range(t))


def parse_sign_matrix(text: str) -> SignMatrix:
    """Parse the sign-matrix format: 'd t' then d rows of +/- entries."""
    return _parse_sign_lines(list(meaningful_lines(text)))


def _parse_sign_lines(lines, empty_lineno: int = 1) -> SignMatrix:
    if not lines:
        raise FormatError(empty_lineno, "empty sign-matrix file")
    lineno, header = lines[0]
    parts = header.split()
    try:
        d, t = int(parts[0]), int(parts[1])
    except (ValueError, IndexError):
        raise FormatError(lineno, "header must be 'd t'") from None
    if len(parts) != 2 or d < 1 or t < 0:
        raise FormatError(lineno, "header must be 'd t' with d >= 1, t >= 0")
    if "_" in header:  # int() read '1_0' as 10
        raise FormatError(lineno, "header must be 'd t'")
    if len(lines) - 1 != d:
        raise FormatError(lineno, f"expected {d} data rows, found {len(lines) - 1}")
    rows = []
    for lineno, content in lines[1:]:
        tokens = content.split()
        if len(tokens) == 1:  # a compact row: one entry per character
            tokens = list(content)
        if len(tokens) != t:
            raise FormatError(lineno, f"expected {t} entries, found {len(tokens)}")
        for tok in tokens:
            if tok not in _SIGN_ENTRIES:
                raise FormatError(lineno, f"bad sign entry {tok!r}")
        rows.append(tuple(_SIGN_ENTRIES[tok] for tok in tokens))
    # d >= 1 rows of t entries, each -1 or +1: no from_rows checks.
    return SignMatrix(tuple(rows))


def is_sign_row(line: str) -> bool:
    """Whether a data row is in the sign format rather than numeric.

    parse_sign_matrix reads a row with no whitespace one character per entry,
    so such a compact row is a sign row when every character is '+' or '-'; a
    row of whitespace-separated tokens is one when some token is a bare sign.
    A numeric row such as '-5' is neither.
    """
    return not line.strip("+-") or any(tok in ("+", "-") for tok in line.split())


def format_sign_matrix(sm: SignMatrix) -> str:
    lines = [f"{sm.rows} {sm.cols}"]
    lines.extend(" ".join(sign_str(row)) for row in sm.entries)
    return "\n".join(lines) + "\n"


def format_sign_file(sm: SignMatrix, seed: int) -> str:
    return f"# generator {GENERATOR} seed={seed}\n" + format_sign_matrix(sm)


def format_witness_file(w: WitnessMatrix, seed: int) -> str:
    return f"{WITNESS_HEADER}{w.t}\n" + format_sign_file(w.signs, seed)


def parse_witness_or_signs(text: str) -> WitnessMatrix | None:
    """The witness a .witness or sign file defines, or None for a numeric matrix file.

    A sign file has a sign row below its header. One pass over the lines, so
    errors name the file's own line.
    """
    return parse_witness_or_sign_lines(list(meaningful_lines(text)))


def parse_witness_or_sign_lines(lines: list) -> WitnessMatrix | None:
    """parse_witness_or_signs on a file's list of meaningful_lines."""
    if not lines:
        raise FormatError(1, "empty input file")
    lineno, header = lines[0]
    if not header.startswith(WITNESS_HEADER):
        signs = any(is_sign_row(content) for _, content in lines[1:])
        return build_witness(_parse_sign_lines(lines)) if signs else None
    try:
        t = int(header[len(WITNESS_HEADER):])
    except ValueError:
        raise FormatError(lineno, "bad t in witness header") from None
    if "_" in header:  # int() read '0_2' as 2
        raise FormatError(lineno, "bad t in witness header")
    sm = _parse_sign_lines(lines[1:], lineno + 1)
    if sm.cols != t:
        raise FormatError(lineno, f"header says t={t} but sign matrix has {sm.cols} columns")
    return build_witness(sm)


@dataclass(frozen=True)
class WitnessMatrix:
    """Implicit integer matrix with 2^t columns driven by a sign matrix."""

    signs: SignMatrix

    @property
    def rows(self) -> int:
        return self.signs.rows

    @property
    def t(self) -> int:
        return self.signs.cols

    @property
    def cols(self) -> int:
        return 1 << self.t

    def entry(self, a: int, k: int) -> int:
        """Entry at row a (0-based) and colex rank k (1-based)."""
        if not 0 <= a < self.rows:
            raise IndexOutOfBoundsError(f"row {a} outside 0..{self.rows - 1}")
        if not 1 <= k <= self.cols:
            raise IndexOutOfBoundsError(f"column rank {k} outside 1..{self.cols}")
        bits = k - 1
        row = self.signs.entries[a]
        return sum(1 << (i + 1) for i in range(self.t) if bits >> i & 1 and row[i] > 0) - sum(
            1 << (i + 1) for i in range(self.t) if bits >> i & 1 and row[i] < 0
        )

    def column(self, k: int) -> tuple[int, ...]:
        return tuple(self.entry(a, k) for a in range(self.rows))

    def _refuse_past_cap(self):
        """Both dense forms hold 2^t columns per row, so they stop at t = MAX_MATERIALIZE_T."""
        if self.t > MAX_MATERIALIZE_T:
            raise MonomatError(
                f"refusing to materialize 2^{self.t} columns (limit 2^{MAX_MATERIALIZE_T})"
            )

    def dense_lines(self):
        """format_matrix's text of the dense form one line at a time: 'd N', then each row.

        Every entry is an even int in (-2^(t+1), 2^(t+1)), so the decimal text
        of all 2^(t+1) - 1 of them is built once, by splitting one %-format of
        the 2^t values >= 0 and one " -".join of its reverse: slot u of the
        table holds 2u - 2^(t+1) + 2. With m the bitmask of a row's negative
        signs, the entry in 0-based colex column k is 2((k ^ m) - m), at slot
        2^t - 1 - m + (k ^ m), so the row is one window of 2^t slots read in
        the order k ^ m. Columns go in blocks of 2^L, L = max(t - 4, 1): the
        high bits of k ^ m pick a block's slice of the window, and one
        itemgetter per row reads every slice in the order of the low bits of
        k ^ m. One row and the table are held.
        """
        self._refuse_past_cap()
        t = self.t
        yield f"{self.rows} {self.cols}\n"
        if t == 0:
            yield from ["0\n"] * self.rows
            return
        size = 1 << max(t - 4, 1)
        pos = ("%d " * (1 << t) % tuple(range(0, 2 << t, 2))).split()
        text = ("-" + " -".join(pos[:0:-1])).split() + pos
        for signs in self.signs.entries:
            mask = sum(1 << i for i, sign in enumerate(signs) if sign < 0)
            base = (1 << t) - 1 - mask
            low = mask & (size - 1)
            read = itemgetter(*[k ^ low for k in range(size)])
            starts = [base + (k ^ (mask & -size)) for k in range(0, 1 << t, size)]
            blocks = (read(text[s : s + size]) for s in starts)
            yield " ".join(map(" ".join, blocks)) + "\n"

    def materialize(self) -> Matrix:
        """Dense form, the whole d x 2^t matrix; entry() is the defining formula.

        A row is built in colex order, O(2^t): columns 2^i + 1..2^(i+1)
        repeat columns 1..2^i shifted by 2^(i+1) * s_i.
        """
        self._refuse_past_cap()
        rows = []
        for signs in self.signs.entries:
            row = [0]
            for i, sign in enumerate(signs):
                step = (2 << i) * sign
                row += [v + step for v in row]
            rows.append(tuple(row))
        return Matrix(tuple(rows))


def build_witness(sm: SignMatrix) -> WitnessMatrix:
    """Implicit witness with 2^t columns; nothing is materialized."""
    return WitnessMatrix(signs=sm)


def sample_sign_matrix(
    d: int, t: int, n: int, s: int, seed: int = 0, max_attempts: int = 1000
) -> SignMatrix:
    """Uniform d x t sign matrix certified free of n x s single-sign blocks.

    Rejection sampling; the certificate is the exact single-sign tally
    (extraction.single_sign_levels) that verify_witness and the pipeline's
    block search share, which reaches depth s exactly when some n rows share
    s single-sign columns. Raises ExhaustedAttemptsError when no sample
    passes, which signals parameters where such matrices are rare or
    nonexistent.
    """
    if d < 1 or t < 1 or n < 1 or s < 1:
        raise ValueError("dimensions and targets must be positive")
    rng = random.Random(seed)
    for _ in range(max_attempts):
        candidate = SignMatrix.from_rows(
            [[1 - 2 * rng.getrandbits(1) for _ in range(t)] for _ in range(d)]
        )
        if len(list(single_sign_levels(candidate, n, s))) <= s:
            return candidate
    raise ExhaustedAttemptsError(max_attempts)


@dataclass(frozen=True)
class WitnessCheckReport:
    """Result of the structural no-row-monotone-submatrix check; every verdict is exact.

    row_sets_tested counts the n-row sets in lexicographic order up to the
    first failing one, or all of them on PASS. On FAIL, max_plus, max_minus
    and worst_* describe that row set.
    """

    mode: ClassVar[str] = "exhaustive"  # printed by the CLI as check_mode
    verdict: str  # 'PASS' | 'FAIL'
    target: int
    row_sets_tested: int
    row_sets_total: int
    max_plus: int
    max_minus: int
    clique_bound: int  # 2^max(|B+|, |B-|): cap on any row-monotone column clique
    worst_rows: tuple[int, ...]
    worst_plus: tuple[int, ...]
    worst_minus: tuple[int, ...]

    @property
    def coverage(self) -> float:
        if self.row_sets_total == 0:
            return 1.0
        return self.row_sets_tested / self.row_sets_total


def verify_witness(w: WitnessMatrix, n: int, max_col_subsets: int = 10**6) -> WitnessCheckReport:
    """Certify structurally that the witness has no n x n row-monotone submatrix.

    For a row set R let B+ (B-) be the sign-matrix columns constant +1 (-1)
    on R: witness columns monotone on R pairwise differ inside one of them,
    so at most 2^max(|B+|, |B-|) qualify. The verdict is FAIL exactly when n
    rows share s = ceil(log2 n) single-sign columns. For j = 0..s the shared
    tally single_sign_levels finds the rows constant in each sign on each
    j-subset of columns, extending a subset only while some sign keeps n
    rows. The first failing row set is the least of the first n rows of the
    deepest tallies, so the report equals that of enumerating all C(d, n)
    row sets at a cost of at most sum_{1<=j<=s} C(t, j)
    tallies of d rows. Raises BudgetExceededError past max_col_subsets
    tallied column subsets.
    """
    if n < 1:
        raise ValueError("n must be positive")
    d, t = w.rows, w.t
    if n > d:  # no row set to test
        return WitnessCheckReport("PASS", n, 0, 0, 0, 0, 1, (), (), ())
    entries = w.signs.entries
    s = ceil_log2(n)
    max_plus = max_minus = 0
    for depth, level in enumerate(single_sign_levels(w.signs, n, s, max_col_subsets)):
        max_plus = depth if any(p for _, p, _ in level) else max_plus
        max_minus = depth if any(m for _, _, m in level) else max_minus

    rows = min(lowest_rows(mask, n) for _, p, m in level for mask in (p, m) if mask)
    plus = tuple(j for j in range(t) if all(entries[r][j] > 0 for r in rows))
    minus = tuple(j for j in range(t) if all(entries[r][j] < 0 for r in rows))
    failed = depth == s
    if failed:
        max_plus, max_minus = len(plus), len(minus)
    total = comb(d, n)
    # Row sets up to `rows` in lexicographic order: all but those after it.
    later = sum(comb(d - 1 - r, n - i) for i, r in enumerate(rows))
    return WitnessCheckReport(
        verdict="FAIL" if failed else "PASS",
        target=n,
        row_sets_tested=total - later if failed else total,
        row_sets_total=total,
        max_plus=max_plus,
        max_minus=max_minus,
        clique_bound=1 << max(max_plus, max_minus),
        worst_rows=rows if plus or minus else (),
        worst_plus=plus,
        worst_minus=minus,
    )


def structural_counterexample(w: WitnessMatrix, report: WitnessCheckReport):
    """Concrete row-monotone submatrix realizing a FAIL report.

    The offending row set together with columns whose bit vectors vary only
    inside the constant-sign coordinate set give 2^|B| columns that are
    monotone on those rows. Returns (rows, colex ranks, direction).
    """
    if report.verdict != "FAIL":
        raise ValueError("no counterexample: report verdict is PASS")
    if len(report.worst_plus) >= len(report.worst_minus):
        coords, direction = report.worst_plus, INCREASING
    else:
        coords, direction = report.worst_minus, DECREASING
    ranks = [1]
    for j in coords:
        ranks += [k + (1 << j) for k in ranks]
    return report.worst_rows, tuple(sorted(ranks)), direction
