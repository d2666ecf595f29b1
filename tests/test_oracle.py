"""Brute-force ground truth: completeness, soundness, budgets, extremal sequences."""

import random
import tracemalloc
from fractions import Fraction
from itertools import combinations, permutations

import pytest

from monomat.errors import BudgetExceededError
from monomat.extraction import (
    monochromatic_submatrix,
    monotone_subsequence_1d,
    single_sign_levels,
)
from monomat.matrix import (
    INCREASING,
    MONOTONE,
    ROW_MONOTONE,
    Matrix,
    SignMatrix,
    SubmatrixWitness,
    is_monotone,
    is_row_monotone,
    submatrix,
)
from monomat.oracle import (
    SearchBudget,
    brute_force_monotone,
    brute_force_row_monotone,
    es_extremal_sequence,
)
from reference import brute_force_monochromatic, plain_first_witness


def second_opinion_row_monotone(m, n):
    """Independent implementation: columns outer, rows inner, via the public predicate."""
    hits = []
    for cols in combinations(range(m.cols), n):
        for rows in combinations(range(m.rows), n):
            if is_row_monotone(submatrix(m, rows, cols)) is not None:
                hits.append((rows, cols))
    return hits


def second_opinion_monotone(m, n):
    hits = []
    for cols in combinations(range(m.cols), n):
        for rows in combinations(range(m.rows), n):
            if is_monotone(submatrix(m, rows, cols)) is not None:
                hits.append((rows, cols))
    return hits


def outcome(search, *args):
    """A search's witness (or None), or the message of the budget it exhausted."""
    try:
        return search(*args)
    except BudgetExceededError as exc:
        return f"raised {exc}"


def random_row(rng, width, values, style):
    """One row of a random matrix, with ties common when values is small.

    The styles reach every kind of value the oracle orders: rows below zero,
    ints wider than 64 bits, and Fractions (some of them ints) whose
    denominators differ within a row and from row to row.
    """
    if style == "fraction":
        den = rng.choice((2, 3, 7, 2**70))
        row = [Fraction(rng.randrange(values), rng.choice((1, den))) for _ in range(width)]
        return [int(x) if x.denominator == 1 and rng.random() < 0.5 else x for x in row]
    if style == "negative":
        return [rng.randrange(values) - values for _ in range(width)]
    if style == "wide":
        return [(rng.randrange(values) - values // 2) << 64 for _ in range(width)]
    return [rng.randrange(values) for _ in range(width)]


def test_pruned_search_matches_plain_loop_with_budgets():
    rng = random.Random(17)
    searches = {ROW_MONOTONE: brute_force_row_monotone, MONOTONE: brute_force_monotone}
    budgets = (1, 4, 20, 300, 10**7)
    raised = found = 0
    for _ in range(3000):
        d, width, n = rng.randint(1, 7), rng.randint(1, 14), rng.randint(1, 5)
        values = rng.choice((2, 3, 10, 1000))
        style = rng.choice(("int", "negative", "wide", "fraction"))
        m = Matrix.from_rows([random_row(rng, width, values, style) for _ in range(d)])
        budget = SearchBudget(rng.choice(budgets), rng.choice(budgets))
        for kind, search in searches.items():
            expected = outcome(plain_first_witness, m, n, budget, kind)
            assert outcome(search, m, n, budget) == expected, (m, n, budget, kind)
            raised += isinstance(expected, str)
            found += isinstance(expected, SubmatrixWitness)
    # All three outcomes occur often, so each path is exercised.
    assert raised > 500 and found > 500 and 6000 - raised - found > 500
    # A shorter draw past 64 columns, at n <= 2 (n = 3 only with d = 3) so
    # the plain loop stays cheap. Odd rows reverse the row above up to a
    # cut, so few column pairs agree before it: witnesses and budget cuts
    # fall past column 64 too.
    beyond = cut_short = 0
    for _ in range(150):
        n = rng.randint(1, 3)
        d, width = rng.randint(n, 4 if n < 3 else 3), rng.randint(65, 140)
        values, style = rng.choice((2, 1000)), rng.choice(("int", "negative", "wide", "fraction"))
        rows = [random_row(rng, width, values, style) for _ in range(d)]
        cut = rng.randint(32, width)
        for a in range(1, d, 2):
            rows[a][:cut] = [-v for v in rows[a - 1][:cut]]
        m = Matrix.from_rows(rows)
        budget = SearchBudget(rng.choice((1, 3, 10**7)), rng.choice((1, 40, 300, 2000, 10**7)))
        for kind, search in searches.items():
            expected = outcome(plain_first_witness, m, n, budget, kind)
            assert outcome(search, m, n, budget) == expected, (m, n, budget, kind)
            beyond += isinstance(expected, SubmatrixWitness) and expected.cols[-1] >= 64
            cut_short += isinstance(expected, str) and budget.max_col_subsets in (300, 2000)
    assert beyond > 10 and cut_short > 10


def test_search_memory_stays_linear_in_width():
    # No two columns agree (row 0 rises, row 1 strictly falls). Masks of
    # every later column per column and row would take about 100 MB here, so
    # the search refuses past its width cap before it builds any.
    m = Matrix.from_rows([list(range(20000)), list(range(20000, 0, -1))])
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError):
            brute_force_row_monotone(m, 2, SearchBudget(10**6, 10**6))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_brute_force_row_monotone_trivial():
    m = Matrix.from_rows([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    found = brute_force_row_monotone(m, 2)
    assert found.rows == (0, 1) and found.cols == (0, 1)
    assert found.row_direction == INCREASING
    assert found.validate(m)


def test_brute_force_completeness_vs_second_opinion():
    rng = random.Random(3)
    for _ in range(120):
        d = rng.randrange(2, 5)
        cols = rng.randrange(2, 5)
        n = 2
        m = Matrix.from_rows([[rng.randrange(5) for _ in range(cols)] for _ in range(d)])
        hits = second_opinion_row_monotone(m, n)
        found = brute_force_row_monotone(m, n)
        assert (found is None) == (not hits)
        if found is not None:
            assert (found.rows, found.cols) in hits
        hits_full = second_opinion_monotone(m, n)
        found_full = brute_force_monotone(m, n)
        assert (found_full is None) == (not hits_full)
        if found_full is not None:
            assert found_full.validate(m)


def test_brute_force_monotone_examples():
    m = Matrix.from_rows([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    whole = brute_force_monotone(m, 3)
    assert whole.rows == (0, 1, 2) and whole.cols == (0, 1, 2)
    assert brute_force_monotone(Matrix.from_rows([[1, 2], [4, 3]]), 2) is None


def test_brute_force_monotone_pairwise_direct_check():
    rng = random.Random(5)
    for _ in range(60):
        m = Matrix.from_rows([[rng.randrange(6) for _ in range(5)] for _ in range(5)])
        found = brute_force_monotone(m, 2)
        direct = any(
            is_monotone(submatrix(m, [a, b], [i, j])) is not None
            for a in range(5)
            for b in range(a + 1, 5)
            for i in range(5)
            for j in range(i + 1, 5)
        )
        assert (found is not None) == direct


def test_brute_force_returns_lexicographically_first():
    m = Matrix.from_rows([[3, 1, 2], [1, 2, 3], [9, 8, 7]])
    found = brute_force_row_monotone(m, 2)
    # rows (0,1) offer no common direction on any column pair before (0,2) does?
    # verify canonicality directly against enumeration order
    for rows in combinations(range(3), 2):
        for cols in combinations(range(3), 2):
            if is_row_monotone(submatrix(m, rows, cols)) is not None:
                assert (found.rows, found.cols) == (rows, cols)
                return
    raise AssertionError("expected a witness")


def test_budget_exceeded_is_distinct_from_absent():
    m = Matrix.from_rows([[1, 2], [2, 1], [1, 2]])
    with pytest.raises(BudgetExceededError):
        brute_force_row_monotone(m, 2, SearchBudget(max_row_subsets=1, max_col_subsets=1))
    cols_heavy = Matrix.from_rows([[1, 2, 3], [3, 2, 1]])
    with pytest.raises(BudgetExceededError):
        brute_force_row_monotone(cols_heavy, 2, SearchBudget(max_col_subsets=1))
    with pytest.raises(ValueError):
        SearchBudget(max_row_subsets=0)


def test_oversized_target_is_absent():
    m = Matrix.from_rows([[1, 2], [3, 4]])
    assert brute_force_row_monotone(m, 3) is None
    assert brute_force_monotone(m, 3) is None


def test_brute_force_monochromatic_examples():
    all_plus = SignMatrix.from_rows([[1, 1], [1, 1]])
    assert brute_force_monochromatic(all_plus, 2, 2) == ((0, 1), (0, 1), 1)
    one_minus = SignMatrix.from_rows([[1, 1], [1, -1]])
    assert brute_force_monochromatic(one_minus, 2, 2) is None


def first_block_by_row_scan(sm, n, s):
    """Reference block search: scan rows top down, tallying each row's s-subsets per sign.

    +1 before -1; the first subset seen in n rows wins, with those n rows.
    """
    if n > sm.rows or s > sm.cols:
        return None
    for sign in (1, -1):
        table: dict[tuple, list[int]] = {}
        for a in range(sm.rows):
            row = sm.entries[a]
            signed_cols = [j for j in range(sm.cols) if row[j] == sign]
            for subset in combinations(signed_cols, s):
                rows_seen = table.setdefault(subset, [])
                rows_seen.append(a)
                if len(rows_seen) == n:
                    return tuple(rows_seen), subset, sign
    return None


def test_brute_force_monochromatic_agrees_with_constructive():
    rng = random.Random(9)
    for _ in range(1500):
        d = rng.randrange(1, 9)
        t = rng.randrange(0, 8)  # n > d and s > t both occur
        n = rng.randrange(1, 5)
        s = rng.randrange(0, 4)
        plus = rng.choice((0.15, 0.5, 0.85))
        sm = SignMatrix.from_rows(
            [[1 if rng.random() < plus else -1 for _ in range(t)] for _ in range(d)]
        )
        expected = first_block_by_row_scan(sm, n, s)
        assert monochromatic_submatrix(sm, n, s) == expected
        oracle = brute_force_monochromatic(sm, n, s)
        assert (oracle is None) == (expected is None)
        if oracle is not None:
            rows, cols, sign = oracle
            assert len(rows) == n and len(cols) == s
            assert all(sm.entries[a][j] == sign for a in rows for j in cols)
        # The tally's depth-s level lists every s-subset some sign holds on n rows.
        levels = list(single_sign_levels(sm, n, s))
        held = []
        for cols in combinations(range(t), s):
            masks = [
                sum(1 << a for a in range(d) if all(sm.entries[a][j] == sign for j in cols))
                for sign in (1, -1)
            ]
            masks = [mask if mask.bit_count() >= n else 0 for mask in masks]
            if any(masks):
                held.append((cols, *masks))
        assert (levels[s] if len(levels) > s else []) == held


def exhaustive_has_monotone(seq, n):
    for idx in combinations(range(len(seq)), n):
        values = [seq[i] for i in idx]
        if all(x <= y for x, y in zip(values, values[1:])):
            return True
        if all(x >= y for x, y in zip(values, values[1:])):
            return True
    return False


def test_es_extremal_sequence_examples():
    assert es_extremal_sequence(2) == (1,)
    assert es_extremal_sequence(3) == (2, 1, 4, 3)
    assert len(es_extremal_sequence(4)) == 9


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_es_extremal_sequence_has_no_length_n_run(n):
    seq = es_extremal_sequence(n)
    assert len(seq) == (n - 1) ** 2
    assert not exhaustive_has_monotone(seq, n)
    assert monotone_subsequence_1d(seq, n) is None


def test_m1_sharpness_all_windows():
    # every permutation of length (n-1)^2 + 1 contains a monotone run of length n
    for n in (2, 3):
        width = (n - 1) ** 2 + 1
        for perm in permutations(range(width)):
            assert monotone_subsequence_1d(perm, n) is not None


def test_oracle_witnesses_are_sound():
    rng = random.Random(11)
    for _ in range(100):
        m = Matrix.from_rows([[rng.randrange(4) for _ in range(4)] for _ in range(4)])
        found = brute_force_row_monotone(m, 2)
        if found is not None:
            assert found.validate(m)
        found_full = brute_force_monotone(m, 2)
        if found_full is not None:
            assert found_full.validate(m)
