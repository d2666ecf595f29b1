"""Matrix core: sign comparisons, monotonicity predicates, selection, text format."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monomat.errors import (
    FormatError,
    IndexOutOfBoundsError,
    TiedCoordinateError,
)
from monomat.matrix import (
    DECREASING,
    INCREASING,
    Matrix,
    SubmatrixWitness,
    ceil_log2,
    format_matrix,
    is_monotone,
    is_row_monotone,
    parse_matrix,
    sign_diff,
    submatrix,
)


def test_sign_diff_examples():
    assert sign_diff((3, 6, 3), (4, 5, 4)) == (1, -1, 1)
    assert sign_diff((1, 8, 1), (5, 1, 6)) == (1, -1, 1)
    with pytest.raises(TiedCoordinateError):
        sign_diff((1,), (1,))


def test_sign_diff_reports_tied_coordinate():
    with pytest.raises(TiedCoordinateError) as err:
        sign_diff((0, 5), (1, 5))
    assert err.value.coordinate == 1


@given(
    st.lists(
        st.tuples(st.integers(-50, 50), st.integers(-50, 50)).filter(lambda p: p[0] != p[1]),
        min_size=1,
        max_size=6,
    )
)
@settings(max_examples=200)
def test_sign_diff_antisymmetry(pairs):
    v = tuple(p[0] for p in pairs)
    w = tuple(p[1] for p in pairs)
    assert sign_diff(v, w) == tuple(-x for x in sign_diff(w, v))


def test_is_row_monotone_examples():
    assert is_row_monotone(Matrix.from_rows([[1, 2], [3, 4]])) == INCREASING
    assert is_row_monotone(Matrix.from_rows([[1, 2], [5, 3]])) is None
    assert is_row_monotone(Matrix.from_rows([[7]])) == INCREASING
    assert is_row_monotone(Matrix.from_rows([[2, 2], [5, 5]])) == INCREASING
    assert is_row_monotone(Matrix.from_rows([[9, 4], [4, 0]])) == DECREASING


def test_is_monotone_examples():
    assert is_monotone(Matrix.from_rows([[1, 2], [3, 4]])) == (INCREASING, INCREASING)
    assert is_monotone(Matrix.from_rows([[4, 3], [2, 1]])) == (DECREASING, DECREASING)
    assert is_monotone(Matrix.from_rows([[1, 2], [4, 3]])) is None


def test_is_monotone_mixed_axes():
    assert is_monotone(Matrix.from_rows([[3, 4], [1, 2]])) == (INCREASING, DECREASING)


def test_submatrix_examples():
    m = Matrix.from_rows([[1, 2, 3], [4, 5, 6]])
    assert submatrix(m, [0, 1], [0, 1, 2]) == m
    assert submatrix(m, [1], [0, 2]).entries == ((4, 6),)
    with pytest.raises(IndexOutOfBoundsError):
        submatrix(m, [8], [0])
    with pytest.raises(ValueError):
        submatrix(m, [1, 0], [0])


@given(st.data())
@settings(max_examples=150)
def test_row_monotone_passes_to_submatrices(data):
    rows = data.draw(st.integers(1, 4))
    cols = data.draw(st.integers(1, 5))
    direction = data.draw(st.sampled_from([INCREASING, DECREASING]))
    base = [sorted(data.draw(st.lists(st.integers(0, 20), min_size=cols, max_size=cols)))
            for _ in range(rows)]
    if direction == DECREASING:
        base = [list(reversed(r)) for r in base]
    m = Matrix.from_rows(base)
    assert is_row_monotone(m) in (direction, INCREASING)  # constant rows report increasing
    row_sel = sorted(data.draw(st.sets(st.integers(0, rows - 1), min_size=1)))
    col_sel = sorted(data.draw(st.sets(st.integers(0, cols - 1), min_size=1)))
    sub = submatrix(m, row_sel, col_sel)
    # a direction is still present, and the original direction still holds weakly
    assert is_row_monotone(sub) is not None
    witness = SubmatrixWitness(
        rows=tuple(range(sub.rows)),
        cols=tuple(range(sub.cols)),
        kind="row-monotone",
        row_direction=is_row_monotone(m),
    )
    assert witness.validate(sub)


def test_monotone_implies_row_monotone():
    for rows in ([[1, 2], [3, 4]], [[4, 3], [2, 1]], [[3, 4], [1, 2]], [[5]]):
        m = Matrix.from_rows(rows)
        if is_monotone(m) is not None:
            assert is_row_monotone(m) is not None


def test_entries_must_be_exact():
    with pytest.raises(TypeError):
        Matrix.from_rows([[1.5]])
    m = Matrix.from_rows([[Fraction(3, 2), 2]])
    assert m.entry(0, 0) == Fraction(3, 2)


def test_witness_validation():
    m = Matrix.from_rows([[1, 2], [4, 3]])
    w = SubmatrixWitness(rows=(0,), cols=(0, 1), kind="row-monotone", row_direction=INCREASING)
    assert w.validate(m)
    bad = SubmatrixWitness(rows=(0, 1), cols=(0, 1), kind="row-monotone", row_direction=INCREASING)
    assert not bad.validate(m)
    with pytest.raises(ValueError):
        SubmatrixWitness(rows=(1, 0), cols=(0,), kind="row-monotone", row_direction=INCREASING)


@pytest.mark.parametrize("rows, cols", [((0, 2), (0, 1)), ((0, 1), (1, 2)), ((-1, 0), (0, 1))])
def test_witness_outside_the_matrix_is_invalid(rows, cols):
    m = Matrix.from_rows([[1, 2], [3, 4]])
    assert not SubmatrixWitness(rows, cols, "row-monotone", INCREASING).validate(m)


def test_monotone_witness_needs_monotone_columns():
    # Both rows increase, but column 0 falls down the rows while column 1 rises.
    m = Matrix.from_rows([[1, 2], [0, 3]])
    assert SubmatrixWitness((0, 1), (0, 1), "row-monotone", INCREASING).validate(m)
    for col_direction in (INCREASING, DECREASING):
        claim = SubmatrixWitness((0, 1), (0, 1), "monotone", INCREASING, col_direction)
        assert not claim.validate(m)


def test_parse_format_round_trip():
    text = "2 3\n1 2 3\n4 5/2 6\n"
    m = parse_matrix(text)
    assert m.entry(1, 1) == Fraction(5, 2)
    assert parse_matrix(format_matrix(m)) == m


def test_parse_accepts_comments_and_decimals():
    m = parse_matrix("# header\n1 2\n# mid\n0.5 -3\n")
    assert m.entries == ((Fraction(1, 2), -3),)
    # an all-integer row and a mixed row parse to the same exact types as from_rows gives
    m = parse_matrix("2 3\n+4 -0 7\n2/4 1e1 3\n")
    assert m == Matrix.from_rows([[4, 0, 7], [Fraction(1, 2), Fraction(10), 3]])
    assert [type(v) for v in m.entries[1]] == [Fraction, Fraction, int]


@pytest.mark.parametrize(
    "text,line",
    [
        ("", 1),
        ("2 2\n1 2\n", 1),
        ("2 2\n1 2\n3\n", 3),
        ("2 2\n1 2\n3 x\n", 3),
        ("0 2\n", 1),
        ("2 2\n1 2\n3 1_0\n", 3),
        ("2 2\n1 2\n1/2 1_0.5\n", 3),
        ("1_0 2\n" + "1 2\n" * 10, 1),
        ("2 2\n1 2\n3 1e99999\n", 3),
        ("1 2\n1 -2.5E-4301\n", 2),
        ("1 1\n1e4300\n", 2),
        ("2 2\n1 2\n3 12e4299\n", 3),
        ("1 2\n1e-4300 1\n", 2),
    ],
)
def test_parse_errors_name_lines(text, line):
    with pytest.raises(FormatError) as err:
        parse_matrix(text)
    assert err.value.line == line


def test_parse_keeps_values_that_format_writes_back():
    # 10**4299 has 4,300 digits, int()'s default str limit; one digit more is refused above
    m = parse_matrix("1 3\n1e4299 -1e-4299 7.5e-4298\n")
    assert m.entries == ((Fraction(10**4299), Fraction(-1, 10**4299), Fraction(3, 4 * 10**4297)),)
    assert parse_matrix(format_matrix(m)) == m


@given(
    st.lists(
        st.lists(st.integers(-99, 99), min_size=1, max_size=5),
        min_size=1,
        max_size=4,
    ).filter(lambda rows: len({len(r) for r in rows}) == 1)
)
@settings(max_examples=100)
def test_round_trip_property(rows):
    m = Matrix.from_rows(rows)
    assert parse_matrix(format_matrix(m)) == m


def test_ceil_log2():
    assert [ceil_log2(n) for n in (1, 2, 3, 4, 5, 8, 9)] == [0, 1, 2, 2, 3, 3, 4]
