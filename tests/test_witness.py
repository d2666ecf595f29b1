"""Colex machinery, implicit witness matrices, sampling, and structural checks."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monomat.errors import (
    BudgetExceededError,
    EqualVectorsError,
    ExhaustedAttemptsError,
    FormatError,
    LengthMismatchError,
    RankOutOfRangeError,
)
from monomat.matrix import (
    DECREASING,
    INCREASING,
    ROW_MONOTONE,
    Matrix,
    SubmatrixWitness,
    format_matrix,
    sign_diff,
)
from monomat.oracle import SearchBudget, brute_force_row_monotone
from monomat.witness import (
    SignMatrix,
    WitnessMatrix,
    build_witness,
    colex_delta,
    colex_unrank,
    format_sign_matrix,
    is_sign_row,
    parse_sign_matrix,
    parse_witness_or_signs,
    sample_sign_matrix,
    structural_counterexample,
    verify_witness,
)
from reference import brute_force_monochromatic, row_set_profiles


def test_colex_delta():
    assert colex_delta((0, 0), (1, 0)) == 1
    assert colex_delta((1, 0), (0, 1)) == 2
    with pytest.raises(EqualVectorsError):
        colex_delta((1, 1), (1, 1))
    with pytest.raises(LengthMismatchError):
        colex_delta((0,), (0, 1))


def test_colex_delta_matches_linear_scan():
    rng = random.Random(2)
    for _ in range(300):
        t = rng.randrange(1, 12)
        x = tuple(rng.getrandbits(1) for _ in range(t))
        y = tuple(rng.getrandbits(1) for _ in range(t))
        if x == y:
            continue
        expected = max(i + 1 for i in range(t) if x[i] != y[i])
        assert colex_delta(x, y) == expected


def test_colex_unrank_examples():
    assert colex_unrank(2, 1) == (0, 0)
    assert colex_unrank(2, 3) == (0, 1)
    with pytest.raises(RankOutOfRangeError):
        colex_unrank(2, 5)
    with pytest.raises(RankOutOfRangeError):
        colex_unrank(2, 0)


@pytest.mark.parametrize("t", range(0, 11))
def test_colex_sort_reproduces_rank_order(t):
    vectors = [colex_unrank(t, k) for k in range(1, (1 << t) + 1)]
    assert sorted(vectors, key=lambda v: v[::-1]) == vectors


def test_build_witness_small_instance():
    sm = SignMatrix.from_rows([[1, -1]])
    w = build_witness(sm)
    assert [w.entry(0, k) for k in range(1, 5)] == [0, 2, -4, -2]
    assert w.entry(0, 3) == -4
    for k in range(1, 5):
        for l in range(k + 1, 5):
            b = colex_delta(colex_unrank(2, k), colex_unrank(2, l))
            assert sign_diff(w.column(k), w.column(l)) == sm.col(b - 1)


def test_witness_t0_single_zero_column():
    w = build_witness(SignMatrix.from_rows([[], []]))
    assert w.cols == 1
    assert w.column(1) == (0, 0)


def test_sign_identity_exhaustive_t8():
    rng = random.Random(8)
    sm = SignMatrix.from_rows(
        [[1 - 2 * rng.getrandbits(1) for _ in range(8)] for _ in range(4)]
    )
    w = build_witness(sm)
    cols = [w.column(k) for k in range(1, 257)]
    bits = [colex_unrank(8, k) for k in range(1, 257)]
    for k in range(256):
        for l in range(k + 1, 256):
            b = colex_delta(bits[k], bits[l])
            assert sign_diff(cols[k], cols[l]) == sm.col(b - 1)


def test_entry_magnitude_bound():
    rng = random.Random(13)
    sm = SignMatrix.from_rows(
        [[1 - 2 * rng.getrandbits(1) for _ in range(12)] for _ in range(3)]
    )
    w = build_witness(sm)
    bound = (1 << 13) - 2
    for k in rng.sample(range(1, w.cols + 1), 200):
        for a in range(3):
            assert abs(w.entry(a, k)) <= bound


def test_materialize_limit():
    from monomat.errors import MonomatError

    sm = SignMatrix.from_rows([[1] * 21])
    # Both dense forms give the same refusal.
    for dense in (build_witness(sm).materialize, lambda: next(build_witness(sm).dense_lines())):
        with pytest.raises(MonomatError) as exc:
            dense()
        assert str(exc.value) == "refusing to materialize 2^21 columns (limit 2^20)"


def test_streamed_rows_equal_the_materialized_matrix_text():
    rng = random.Random(11)
    shapes = [(d, t) for d in range(1, 7) for t in range(1, 11)] + [(16, 11), (16, 12)]
    shapes += [(d, t) for d in (1, 2) for t in range(13, 17)]
    cases = [
        SignMatrix.from_rows([[1 - 2 * rng.getrandbits(1) for _ in range(t)] for _ in range(d)])
        for d, t in shapes
    ]
    cases += [SignMatrix.from_rows([[1] * 6, [-1] * 6]), SignMatrix.from_rows([[-1] * 9])]
    # Negative-sign masks 0, all ones, 1010... and 0101...: dense_lines reads blocks of
    # 2^max(t - 4, 1) columns, so at these t the low and high parts of an alternating mask differ.
    for t in (2, 5, 7, 10, 13):
        alternating = [(-1) ** i for i in range(t)]
        rows = [[1] * t, [-1] * t, alternating, [-sign for sign in alternating]]
        cases.append(SignMatrix.from_rows(rows))
    cases.append(SignMatrix.from_rows([[]]))
    # Rows reaching both ends of the t = 12 table, -8190 and 8190.
    cases.append(SignMatrix.from_rows([[-1] * 12, [1] * 12]))
    for sm in cases:
        w = build_witness(sm)
        dense = w.materialize()
        text = "".join(w.dense_lines())
        assert text == format_matrix(dense)
        assert [list(row) for row in dense.entries] == [
            [w.entry(a, k) for k in range(1, w.cols + 1)] for a in range(w.rows)
        ]
    assert [line.split()[-1] for line in text.splitlines()[1:]] == ["-8190", "8190"]
    assert list(build_witness(SignMatrix.from_rows([[]])).dense_lines()) == ["1 1\n", "0\n"]


def test_dense_lines_are_the_materialized_matrix_text():
    rng = random.Random(23)
    for d in (1, 2, 16):
        for t in range(15):
            rows = [[1 - 2 * rng.getrandbits(1) for _ in range(t)] for _ in range(d)]
            w = build_witness(SignMatrix.from_rows(rows))
            assert "".join(w.dense_lines()) == format_matrix(w.materialize())


def test_sample_sign_matrix_verified_and_deterministic():
    first = sample_sign_matrix(6, 5, 3, 2, seed=1)
    second = sample_sign_matrix(6, 5, 3, 2, seed=1)
    assert first == second
    other = sample_sign_matrix(6, 5, 3, 2, seed=2)
    assert isinstance(other, SignMatrix)


def test_sample_sign_matrix_trivially_small():
    sm = sample_sign_matrix(1, 1, 2, 2, seed=0)
    assert sm.rows == 1 and sm.cols == 1  # no 2x2 submatrix exists at all


def rejection_sample(d, t, n, s, seed, max_attempts):
    """The sampler by definition: the first uniform draw with no n x s block."""
    rng = random.Random(seed)
    for _ in range(max_attempts):
        rows = [[1 - 2 * rng.getrandbits(1) for _ in range(t)] for _ in range(d)]
        sm = SignMatrix.from_rows(rows)
        if brute_force_monochromatic(sm, n, s) is None:
            return sm
    return None


@pytest.mark.parametrize(
    "d,t,n,s,seeds",
    # Some seeds exhaust their attempts; the last two have n > d and s > t.
    [(16, 12, 8, 3, 6), (6, 5, 3, 2, 40), (12, 6, 3, 3, 20), (10, 8, 4, 3, 20), (4, 3, 5, 1, 3),
     (3, 2, 2, 3, 3)],
)
def test_sample_sign_matrix_matches_rejection_over_brute_force(d, t, n, s, seeds):
    for seed in range(seeds):
        try:
            got = sample_sign_matrix(d, t, n, s, seed=seed, max_attempts=50)
        except ExhaustedAttemptsError:
            got = None
        assert got == rejection_sample(d, t, n, s, seed, 50)


def test_sample_sign_matrix_impossible_target():
    with pytest.raises(ExhaustedAttemptsError):
        sample_sign_matrix(2, 2, 1, 1, seed=0, max_attempts=20)


def test_verify_witness_boundary_fail():
    sm = SignMatrix.from_rows([[1, -1], [1, 1]])  # column 0 is all +1
    report = verify_witness(build_witness(sm), 2)
    assert report.verdict == "FAIL"
    assert report.clique_bound >= 2
    rows, ranks, direction = structural_counterexample(build_witness(sm), report)
    assert len(ranks) >= 2
    dense = build_witness(sm).materialize()
    picked = [dense.column(k - 1) for k in ranks]
    for r in rows:
        run = [col[r] for col in picked]
        if direction == INCREASING:
            assert all(x <= y for x, y in zip(run, run[1:]))
        else:
            assert all(x >= y for x, y in zip(run, run[1:]))


def test_structural_counterexample_on_the_minus_side():
    # Every sign is -1, so all three coordinates form the minus block and the
    # 2^3 columns found fall along every row.
    w = build_witness(SignMatrix.from_rows([[-1] * 3] * 4))
    report = verify_witness(w, 2)
    assert report.verdict == "FAIL"
    rows, ranks, direction = structural_counterexample(w, report)
    assert (direction, len(ranks)) == (DECREASING, 8)
    cols = tuple(k - 1 for k in ranks)
    assert SubmatrixWitness(tuple(rows), cols, ROW_MONOTONE, DECREASING).validate(w.materialize())


def test_verify_witness_pass_for_sampled_matrix():
    # no n x s single-sign block with s = ceil(log2 n) forces |B| < log2 n
    sm = sample_sign_matrix(8, 6, 4, 2, seed=3)
    report = verify_witness(build_witness(sm), 4)
    assert report.verdict == "PASS"
    assert report.mode == "exhaustive"
    assert report.clique_bound < 4
    for rows, plus, minus in row_set_profiles(build_witness(sm), 4):
        assert len(plus) < 2 and len(minus) < 2


def test_verify_witness_pass_agrees_with_oracle():
    sm = sample_sign_matrix(6, 5, 3, 2, seed=1)
    w = build_witness(sm)
    assert verify_witness(w, 3).verdict == "PASS"
    assert brute_force_row_monotone(w.materialize(), 3, SearchBudget(10**6, 10**6)) is None


def test_verify_witness_more_rows_than_matrix():
    sm = SignMatrix.from_rows([[1, -1]])
    report = verify_witness(build_witness(sm), 5)
    assert report.verdict == "PASS" and report.row_sets_total == 0


def test_verify_witness_exact_on_400_rows():
    # Rows alternate +-/-+ and the last three are ++, so the only 3 x 2 block is at the
    # end; a check that sampled a million of the C(400, 3) row sets printed PASS here.
    rows = [[1, -1] if a % 2 == 0 else [-1, 1] for a in range(397)] + [[1, 1]] * 3
    report = verify_witness(build_witness(SignMatrix.from_rows(rows)), 3)
    assert report.verdict == "FAIL" and report.mode == "exhaustive"
    assert report.worst_rows == (397, 398, 399) and report.worst_plus == (0, 1)
    assert report.row_sets_tested == report.row_sets_total  # the last row set
    assert report.clique_bound == 4


def test_verify_witness_budget_caps_column_subsets():
    w = build_witness(SignMatrix.from_rows([[1, 1]] * 3))
    with pytest.raises(BudgetExceededError):
        verify_witness(w, 2, max_col_subsets=1)
    assert verify_witness(w, 2, max_col_subsets=2).verdict == "FAIL"


def test_sign_matrix_round_trip():
    sm = SignMatrix.from_rows([[1, -1, 1], [-1, -1, 1]])
    text = format_sign_matrix(sm)
    assert parse_sign_matrix(text) == sm
    assert parse_sign_matrix("1 2\n+1 -1\n") == SignMatrix.from_rows([[1, -1]])
    assert parse_sign_matrix("1 2\n+-\n") == SignMatrix.from_rows([[1, -1]])
    assert parse_sign_matrix("1 2\n+\t-1\n") == SignMatrix.from_rows([[1, -1]])
    with pytest.raises(FormatError):
        parse_sign_matrix("1 2\n+ x\n")
    with pytest.raises(FormatError):
        parse_sign_matrix("")
    with pytest.raises(FormatError) as exc:
        parse_sign_matrix("0 3\n")
    assert str(exc.value) == "line 1: header must be 'd t' with d >= 1, t >= 0"


@pytest.mark.parametrize(
    "text, line, message",
    [
        ("# c\n\nwitness t=2\n2 2\n+ -\n+ x\n", 6, "bad sign entry 'x'"),
        ("witness t=2\n# generator mt19937 seed=0\n1 2\n+ x\n", 4, "bad sign entry 'x'"),
        ("# c\n\nwitness t=2\n1 2\n+ - +\n", 5, "expected 2 entries, found 3"),
        ("witness t=3\n#\n2 3\n+-+\n\n+ -\n", 6, "expected 3 entries, found 2"),
        ("\nwitness t=2\n\n3 2\n+ -\n- +\n", 4, "expected 3 data rows, found 2"),
        ("# c\n\nwitness t=2\n# c\n2 x\n", 5, "header must be 'd t'"),
        ("# c\nwitness t=2\n", 3, "empty sign-matrix file"),
        ("\n# c\nwitness t=3\n1 2\n+-\n", 3, "header says t=3 but sign matrix has 2 columns"),
        ("# c\nwitness t=x\n1 2\n+-\n", 2, "bad t in witness header"),
    ],
)
def test_witness_file_errors_name_the_files_own_line(text, line, message):
    with pytest.raises(FormatError) as exc:
        parse_witness_or_signs(text)
    assert (exc.value.line, str(exc.value)) == (line, f"line {line}: {message}")


@pytest.mark.parametrize(
    "text, line, message",
    [
        ("witness t=0_2\n1_0 2\n" + "+ -\n" * 10, 1, "bad t in witness header"),
        ("witness t=2\n1_0 2\n" + "+ -\n" * 10, 2, "header must be 'd t'"),
        ("# c\n1_0 2\n" + "+ -\n" * 10, 2, "header must be 'd t'"),
        ("1 0_2\n+ -\n", 1, "header must be 'd t'"),
    ],
)
def test_sign_headers_refuse_underscore(text, line, message):
    # int() reads '1_0' as 10 and '0_2' as 2, so each of these would parse.
    with pytest.raises(FormatError) as exc:
        parse_witness_or_signs(text)
    assert str(exc.value) == f"line {line}: {message}"


def test_reader_tells_numeric_matrices_from_sign_files():
    assert parse_witness_or_signs("2 2\n1 2\n-5 +1\n") is None
    assert parse_witness_or_signs("1 2\n+1 -1\n") is None  # no bare sign: a matrix
    assert parse_witness_or_signs("1 2\n+ -1\n").signs == SignMatrix.from_rows([[1, -1]])
    with pytest.raises(FormatError, match="line 1: empty input file"):
        parse_witness_or_signs("# c\n\n")


def test_is_sign_row():
    assert is_sign_row("+-+") and is_sign_row("+ - +") and is_sign_row("-")
    assert is_sign_row("+ -1")  # one bare sign marks the row
    assert is_sign_row("+\t-") and not is_sign_row("-1\t+1")
    assert not is_sign_row("-5") and not is_sign_row("-1 +1") and not is_sign_row("+1")
    assert is_sign_row("1\xa0-") and not is_sign_row("1-\xa0-1")  # any whitespace splits
    assert not is_sign_row("5" * 1000) and not is_sign_row("-5 +5 5- 5+ +-5 -+")


def test_row_set_profiles_definition():
    sm = SignMatrix.from_rows([[1, -1], [1, 1], [-1, -1]])
    w = build_witness(sm)
    profiles = {rows: (plus, minus) for rows, plus, minus in row_set_profiles(w, 2)}
    assert profiles[(0, 1)] == ((0,), ())
    assert profiles[(0, 2)] == ((), (1,))
    assert profiles[(1, 2)] == ((), ())


def test_witness_column_count():
    sm = SignMatrix.from_rows([[1] * 5, [-1] * 5])
    w = build_witness(sm)
    assert w.cols == 32 and w.rows == 2


def test_sampled_witness_end_to_end_no_submatrix():
    sm = sample_sign_matrix(6, 5, 3, 2, seed=1)
    w = build_witness(sm)
    dense = w.materialize()
    assert dense.rows == 6 and dense.cols == 32
    found = brute_force_row_monotone(dense, 3, SearchBudget(10**7, 10**7))
    assert found is None


def enumerated_report(w: WitnessMatrix, n: int) -> dict:
    """The structural check by enumerating every n-row set in lexicographic order."""
    tested, worst, max_plus, max_minus = 0, ((), (), ()), 0, 0
    verdict = "PASS"
    for rows, plus, minus in row_set_profiles(w, n):
        tested += 1
        if max(len(plus), len(minus)) > max(max_plus, max_minus):
            worst = (rows, plus, minus)
        max_plus, max_minus = max(max_plus, len(plus)), max(max_minus, len(minus))
        if 1 << max(len(plus), len(minus)) >= n:
            verdict = "FAIL"
            break
    return {
        "verdict": verdict,
        "row_sets_tested": tested,
        "clique_bound": 1 << max(max_plus, max_minus),
        "worst": worst,
        "max": (max_plus, max_minus),
    }


def format_value(v) -> str:
    """The matrix text format of one exact value."""
    if isinstance(v, Fraction) and v.denominator != 1:
        return f"{v.numerator}/{v.denominator}"
    return str(int(v))


@st.composite
def biased_sign_matrices(draw):
    d, t = draw(st.integers(1, 9)), draw(st.integers(0, 6))
    majority = draw(st.sampled_from((1, -1)))
    odds = draw(st.integers(1, 6))  # one entry in odds + 1 is a minority sign
    entry = st.integers(0, odds).map(lambda v: -majority if v == 0 else majority)
    rows = draw(st.lists(st.lists(entry, min_size=t, max_size=t), min_size=d, max_size=d))
    return SignMatrix.from_rows(rows), draw(st.integers(1, 10))


@settings(max_examples=400, deadline=None)
@given(biased_sign_matrices())
def test_verify_witness_matches_enumeration(instance):
    sm, n = instance
    w = build_witness(sm)
    report, expected = verify_witness(w, n), enumerated_report(w, n)
    assert report.verdict == expected["verdict"]
    assert report.row_sets_tested == expected["row_sets_tested"]
    assert report.clique_bound == expected["clique_bound"]
    assert (report.worst_rows, report.worst_plus, report.worst_minus) == expected["worst"]
    if report.verdict == "PASS":
        assert (report.max_plus, report.max_minus) == expected["max"]

    dense = w.materialize()
    assert [list(row) for row in dense.entries] == [
        [w.entry(a, k) for k in range(1, w.cols + 1)] for a in range(w.rows)
    ]
    halves = Matrix.from_rows([[Fraction(v, 2) for v in row] for row in dense.entries])
    for m in (dense, halves):
        assert format_matrix(m).splitlines()[1:] == [
            " ".join(format_value(v) for v in row) for row in m.entries
        ]
