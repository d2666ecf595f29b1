"""Extraction machinery: splits, tree-like subsequences, blocks, 1-D runs, pipelines."""

import random
import sys
from itertools import combinations

import pytest

from monomat.errors import (
    GuaranteeUnmetError,
    InsufficientLengthError,
    InsufficientTreeError,
    NotPowerOfTwoError,
    TiedCoordinateError,
    TooShortError,
)
from monomat import extraction
from monomat.extraction import (
    _descend_tree_like,
    _split_positions,
    bipartite_split,
    find_monotone,
    find_row_monotone,
    is_binary_tree_like,
    monochromatic_submatrix,
    monotone_subsequence_1d,
    perfect_leafset_extract,
    tree_like_subsequence,
)
from monomat import oracle
from monomat.matrix import (
    DECREASING,
    INCREASING,
    MONOTONE,
    ROW_MONOTONE,
    Matrix,
    SignMatrix,
    SubmatrixWitness,
    is_monotone,
    is_row_monotone,
    sign_diff,
    submatrix,
)
from monomat.oracle import (
    SearchBudget,
    brute_force_monotone,
    brute_force_row_monotone,
    chain_search,
)
from monomat.trees import LabeledBinaryTree, is_perfect_leafset
from reference import deepest_tree_like_by_sort, plain_first_witness, split_by_sort

FIGURE_VECTORS = [
    (3, 6, 3),
    (4, 5, 4),
    (2, 7, 2),
    (1, 8, 1),
    (5, 1, 6),
    (6, 2, 5),
    (7, 4, 8),
    (8, 3, 7),
]

FIGURE_LABELS = {
    (0, 1): (1, -1, 1),
    (1, 1): (-1, 1, -1),
    (1, 2): (1, 1, 1),
    (2, 1): (1, -1, 1),
    (2, 2): (-1, 1, -1),
    (2, 3): (1, 1, -1),
    (2, 4): (1, -1, -1),
}


def distinct_columns(rng, d, count):
    """d x count matrix whose columns have pairwise distinct values on every row."""
    return Matrix.from_rows(rng.sample(range(10 * count), count) for _ in range(d))


def columns(vectors):
    """The matrix whose columns are the given vectors."""
    return Matrix.from_rows(zip(*vectors))


def check_split(m, sign, first, second):
    assert len(first) == len(second)
    for i in first:
        for j in second:
            assert i < j
            assert sign_diff(m.column(i), m.column(j)) == sign


def test_bipartite_split_forced_pair():
    assert bipartite_split(columns([(5,), (7,)])) == ((1,), (0,), (1,))


def test_bipartite_split_increasing_run():
    m = columns([(v,) for v in range(1, 9)])
    sign, first, second = bipartite_split(m)
    assert sign == (1,)
    assert first == (0, 1, 2, 3)
    assert second == (4, 5, 6, 7)
    check_split(m, sign, first, second)


def test_bipartite_split_fuzz_with_exhaustive_verification():
    rng = random.Random(11)
    for _ in range(150):
        d = rng.randrange(1, 4)
        count = rng.choice([16, 64, 128])
        m = distinct_columns(rng, d, count)
        sign, first, second = bipartite_split(m)
        check_split(m, sign, first, second)
        assert len(first) >= -(-count // (1 << (d + 1)))


def test_bipartite_split_too_short():
    with pytest.raises(TooShortError):
        bipartite_split(columns([(1,)]))


def test_tree_like_height_zero():
    tree, cols = tree_like_subsequence(columns([(3,), (1,), (2,)]), 0)
    assert cols == (0,)
    assert tree.height == 0


def test_tree_like_at_the_guaranteed_bound():
    rng = random.Random(2)
    for _ in range(30):
        m = distinct_columns(rng, 1, 64)
        tree, cols = tree_like_subsequence(m, 3)
        assert len(cols) == 8
        kept = submatrix(m, range(m.rows), cols)
        recovered = is_binary_tree_like(kept)
        assert recovered == tree
        # One flipped label breaks the certificate.
        flipped = dict(tree.labels)
        flipped[(0, 1)] = tuple(-x for x in flipped[(0, 1)])
        assert recovered != LabeledBinaryTree(height=3, dim=1, labels=flipped)


def test_tree_like_insufficient_length():
    # coordinate 2 interleaves the halves, so the first split keeps only 2+2
    # and the singleton groups cannot split again at depth 3
    vectors = [(1, 1), (2, 5), (3, 2), (4, 6), (5, 3), (6, 7), (7, 4), (8, 8)]
    with pytest.raises(InsufficientLengthError):
        tree_like_subsequence(columns(vectors), 3)


def test_tree_like_rejects_a_negative_height():
    with pytest.raises(ValueError):
        tree_like_subsequence(columns([(1,), (2,)]), -1)


def test_is_binary_tree_like_figure():
    tree = is_binary_tree_like(columns(FIGURE_VECTORS))
    assert tree is not None
    assert tree.labels == FIGURE_LABELS


def test_is_binary_tree_like_small():
    assert is_binary_tree_like(columns([(1, 9), (4, 2)])) is not None
    assert is_binary_tree_like(columns([(1,), (3,), (2,), (4,)])) is None
    with pytest.raises(NotPowerOfTwoError):
        is_binary_tree_like(columns([(1,), (2,), (3,)]))


def random_labeled_tree(rng, m, d):
    labels = {
        (depth, pos): tuple(1 - 2 * rng.getrandbits(1) for _ in range(d))
        for depth in range(m)
        for pos in range(1, (1 << depth) + 1)
    }
    return LabeledBinaryTree(height=m, dim=d, labels=labels)


def test_perfect_leafset_trivial_cases():
    rng = random.Random(4)
    tree = random_labeled_tree(rng, 4, 2)
    assert perfect_leafset_extract(tree, 0) == (1,)
    constant = LabeledBinaryTree(
        height=3,
        dim=1,
        labels={(k, p): (1,) for k in range(3) for p in range(1, (1 << k) + 1)},
    )
    assert perfect_leafset_extract(constant, 2) == (1, 2, 3, 4)
    assert is_perfect_leafset(constant, (1, 2, 3, 4))


def test_perfect_leafset_random_runs():
    rng = random.Random(9)
    for _ in range(50):
        tree = random_labeled_tree(rng, 11, 1)
        leaf_set = perfect_leafset_extract(tree, 2)
        assert len(leaf_set) == 4
        assert is_perfect_leafset(tree, leaf_set)


def test_perfect_leafset_insufficient():
    # height-1 tree cannot host a perfect set of 4 leaves
    rng = random.Random(5)
    tree = random_labeled_tree(rng, 1, 1)
    with pytest.raises(InsufficientTreeError) as exc:
        perfect_leafset_extract(tree, 2)
    assert (exc.value.achieved, exc.value.target) == (1, 2)


def test_monochromatic_all_red():
    sm = SignMatrix.from_rows([[1] * 4] * 4)
    assert monochromatic_submatrix(sm, 2, 2) == ((0, 1), (0, 1), 1)


def test_monochromatic_checkerboard():
    for d in (4, 5):
        sm = SignMatrix.from_rows(
            [[1 if (a + j) % 2 == 0 else -1 for j in range(6)] for a in range(d)]
        )
        n = -(-d // 2)
        rows, cols, sign = monochromatic_submatrix(sm, n, 1)
        assert cols == (0,)
        assert sign == 1
        assert rows == tuple(a for a in range(d) if a % 2 == 0)


def test_monochromatic_within_guaranteed_bounds():
    rng = random.Random(17)
    for _ in range(50):
        sm = SignMatrix.from_rows(
            [[1 if rng.getrandbits(1) else -1 for _ in range(16)] for _ in range(48)]
        )
        found = monochromatic_submatrix(sm, 3, 2)
        assert found is not None
        rows, cols, sign = found
        assert len(rows) == 3 and len(cols) == 2
        assert all(sm.entries[a][j] == sign for a in rows for j in cols)


def test_monochromatic_absent_is_a_value():
    sm = SignMatrix.from_rows([[1, -1], [-1, 1]])
    assert monochromatic_submatrix(sm, 2, 2) is None
    assert monochromatic_submatrix(sm, 2, 0) == ((0, 1), (), 1)


def lex_first_monotone(seq, n):
    """Independent oracle: first monotone index tuple in lexicographic order."""
    for direction in (INCREASING, DECREASING):
        for idx in combinations(range(len(seq)), n):
            values = [seq[i] for i in idx]
            if direction == INCREASING and all(x <= y for x, y in zip(values, values[1:])):
                return idx, direction
            if direction == DECREASING and all(x > y for x, y in zip(values, values[1:])):
                return idx, direction
    return None


def test_monotone_subsequence_all_permutations_len5():
    from itertools import permutations

    for perm in permutations(range(5)):
        found = monotone_subsequence_1d(perm, 3)
        assert found is not None
        assert found == lex_first_monotone(perm, 3)


def test_monotone_subsequence_examples():
    assert monotone_subsequence_1d((3, 2, 1), 3) == ((0, 1, 2), DECREASING)
    assert monotone_subsequence_1d((2, 1, 4, 3), 3) is None
    assert monotone_subsequence_1d((5, 5, 5), 2) == ((0, 1), INCREASING)  # ties go up


def test_monotone_subsequence_matches_oracle_fuzz():
    rng = random.Random(23)
    for _ in range(300):
        seq = [rng.randrange(8) for _ in range(rng.randrange(1, 11))]
        n = rng.randrange(1, 5)
        assert monotone_subsequence_1d(seq, n) == lex_first_monotone(seq, n)


def test_find_row_monotone_trivial():
    m = Matrix.from_rows([[1, 2, 3, 4], [7, 8, 9, 10], [0, 1, 2, 3]])
    res = find_row_monotone(m, 2)
    assert res.met_target and res.achieved == 2
    assert res.witness.rows == (0, 1) and res.witness.cols == (0, 1)
    assert res.witness.row_direction == INCREASING


def test_find_row_monotone_fuzz_valid_and_sizeable():
    rng = random.Random(31)
    for _ in range(100):
        m = Matrix.from_rows(
            [[rng.randrange(10**6) for _ in range(512)] for _ in range(8)]
        )
        res = find_row_monotone(m, 4)
        assert res.witness.validate(m)
        assert res.achieved >= 2


def test_find_row_monotone_agrees_with_oracle_small():
    rng = random.Random(37)
    for _ in range(200):
        d = rng.randrange(1, 6)
        cols = rng.randrange(1, 13)
        m = Matrix.from_rows([[rng.randrange(10) for _ in range(cols)] for _ in range(d)])
        res = find_row_monotone(m, 2)
        exists = brute_force_row_monotone(m, 2) is not None
        assert res.met_target == exists
        if res.witness is not None:
            assert res.witness.validate(m)


def test_find_row_monotone_guaranteed_refuses_small_input():
    m = Matrix.from_rows([[1, 2], [3, 4]])
    with pytest.raises(GuaranteeUnmetError):
        find_row_monotone(m, 3, mode="guaranteed")


@pytest.mark.parametrize(
    "finder, n, needs",
    [
        (find_row_monotone, 1, "at least 32 rows and more than 2^16000"),
        (find_row_monotone, 3, "at least 72 rows and more than 2^324000"),
        (find_monotone, 1, "at least 64 rows and more than 2^32000"),
        (find_monotone, 3, "at least 5184 rows and more than 2^648000"),
    ],
)
def test_guaranteed_mode_names_its_thresholds(finder, n, needs):
    with pytest.raises(GuaranteeUnmetError) as exc:
        finder(Matrix.from_rows([[1, 2], [2, 1]]), n, mode="guaranteed")
    assert str(exc.value) == f"guaranteed mode needs {needs} columns for n={n}; got 2x2"


def test_find_row_monotone_determinism():
    rng = random.Random(41)
    m = Matrix.from_rows([[rng.randrange(100) for _ in range(64)] for _ in range(6)])
    first = find_row_monotone(m, 3)
    second = find_row_monotone(m, 3)
    assert first == second


def test_find_monotone_trivial():
    m = Matrix.from_rows([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    res = find_monotone(m, 3)
    assert res.met_target
    assert res.witness.rows == (0, 1, 2) and res.witness.cols == (0, 1, 2)
    assert (res.witness.row_direction, res.witness.col_direction) == (INCREASING, INCREASING)


def test_find_monotone_identical_decreasing_columns():
    col = [9, 7, 5]
    m = Matrix.from_rows([[v] * 4 for v in col])
    res = find_monotone(m, 3)
    assert res.met_target
    assert res.witness.col_direction == DECREASING
    assert res.witness.validate(m)
    narrow = Matrix.from_rows([[v] * 2 for v in col])
    assert not find_monotone(narrow, 3).met_target


def test_find_monotone_fuzz_valid():
    rng = random.Random(43)
    for _ in range(50):
        m = Matrix.from_rows(
            [[rng.randrange(10**6) for _ in range(4096)] for _ in range(16)]
        )
        res = find_monotone(m, 2)
        assert res.witness.validate(m)
        assert is_monotone(
            submatrix(m, res.witness.rows, res.witness.cols)
        ) is not None


def test_find_monotone_agrees_with_oracle_small():
    rng = random.Random(47)
    for _ in range(200):
        d = rng.randrange(1, 6)
        cols = rng.randrange(1, 13)
        m = Matrix.from_rows([[rng.randrange(10) for _ in range(cols)] for _ in range(d)])
        res = find_monotone(m, 2)
        exists = brute_force_monotone(m, 2) is not None
        assert res.met_target == exists


_TREE = ("tree_like_subsequence", "height 1")
_LEAVES = ("perfect_leafset_extract", "height 1")
_BLOCK_RED = ("monochromatic_submatrix", "2 rows x 1 layers, red")
_NO_WITNESS = ("exhaustive_fallback", "no witness exists")


def _row_stage(*stages):
    return tuple((f"row_stage:{name}", detail) for name, detail in stages)


@pytest.mark.parametrize(
    "finder, rows, n, stages, bottleneck",
    [
        (
            find_row_monotone,
            [[1, 2, 3], [4, 5, 6]],
            2,
            (("fast_path", "whole matrix is row-monotone (increasing)"),),
            None,
        ),
        (
            find_monotone,
            [[1, 2, 3], [4, 5, 6]],
            2,
            (("fast_path", "whole matrix is monotone (increasing/increasing)"),),
            None,
        ),
        (
            find_row_monotone,
            [[1, 2, 3], [4, 5, 6]],
            3,
            (("fast_path", "whole matrix is row-monotone (increasing)"),),
            "matrix size",
        ),
        (
            find_monotone,
            [[1, 2, 3], [4, 5, 6]],
            3,
            (("fast_path", "whole matrix is monotone (increasing/increasing)"),),
            "matrix size",
        ),
        (
            find_row_monotone,
            [[7, 4], [4, 9]],
            3,
            (_TREE, _LEAVES, ("monochromatic_submatrix", "1 rows x 0 layers, red"), _NO_WITNESS),
            "matrix size",
        ),
        (
            find_monotone,
            [[7, 4], [4, 9]],
            3,
            (
                ("column_runs", "length 2, 2/2 columns"),
                ("pigeonhole_group", "1 columns, decreasing"),
                *_row_stage(("fast_path", "whole matrix is row-monotone (increasing)")),
                _NO_WITNESS,
            ),
            "matrix size",
        ),
        # n > N with n <= d: the row kind reports the matrix size like the full kind.
        (
            find_row_monotone,
            [[0, 1], [2, 0], [2, 0]],
            3,
            (_TREE, _LEAVES, ("monochromatic_submatrix", "2 rows x 1 layers, blue"), _NO_WITNESS),
            "matrix size",
        ),
        (
            find_monotone,
            [[0, 1], [2, 0], [2, 0]],
            3,
            (
                ("column_runs", "length 3, 1/2 columns"),
                ("pigeonhole_group", "1 columns, increasing"),
                *_row_stage(("fast_path", "whole matrix is row-monotone (increasing)")),
                _NO_WITNESS,
            ),
            "matrix size",
        ),
        # A column with runs both ways groups under its increasing run.
        (
            find_monotone,
            [[2], [1], [3]],
            2,
            (
                ("column_runs", "length 2, 1/1 columns"),
                ("pigeonhole_group", "1 columns, increasing"),
                *_row_stage(("fast_path", "whole matrix is row-monotone (increasing)")),
                _NO_WITNESS,
            ),
            "matrix size",
        ),
        (
            find_row_monotone,
            [[1, 0, 1], [1, 0, 1], [0, 1, 1]],
            3,
            (_TREE, _LEAVES, _BLOCK_RED, _NO_WITNESS),
            "tree_like_subsequence",
        ),
        (
            find_row_monotone,
            [[1, 1, 1, 1], [0, 0, 0, 1], [0, 0, 1, 0]],
            3,
            (("tree_like_subsequence", "height 2"), _LEAVES, _BLOCK_RED),
            "perfect_leafset_extract",
        ),
        (
            find_row_monotone,
            [[7, 4], [4, 9]],
            2,
            (_TREE, _LEAVES, ("monochromatic_submatrix", "1 rows x 0 layers, red"), _NO_WITNESS),
            "monochromatic_submatrix",
        ),
        (
            find_monotone,
            [[7, 4], [4, 9]],
            2,
            (
                ("column_runs", "length 2, 2/2 columns"),
                ("pigeonhole_group", "1 columns, decreasing"),
                *_row_stage(("fast_path", "whole matrix is row-monotone (increasing)")),
                _NO_WITNESS,
            ),
            "pigeonhole_group",
        ),
        (
            find_monotone,
            [[1, 0, 0], [1, 1, 1], [1, 1, 2]],
            3,
            (
                ("column_runs", "length 3, 3/3 columns"),
                ("pigeonhole_group", "3 columns, increasing"),
                *_row_stage(_TREE, _LEAVES, _BLOCK_RED, _NO_WITNESS),
                _NO_WITNESS,
            ),
            "row_stage:tree_like_subsequence",
        ),
        (
            find_monotone,
            [[0, 0, 0, 0], [0, 0, 1, 0], [0, 2, 2, 2]],
            3,
            (
                ("column_runs", "length 3, 4/4 columns"),
                ("pigeonhole_group", "4 columns, increasing"),
                *_row_stage(("tree_like_subsequence", "height 2"), _LEAVES, _BLOCK_RED),
            ),
            "row_stage:perfect_leafset_extract",
        ),
        (
            find_monotone,
            [[8, 7], [0, 6]],
            2,
            (
                ("column_runs", "length 2, 2/2 columns"),
                ("pigeonhole_group", "2 columns, decreasing"),
                *_row_stage(
                    _TREE,
                    _LEAVES,
                    ("monochromatic_submatrix", "1 rows x 0 layers, red"),
                    _NO_WITNESS,
                ),
                _NO_WITNESS,
            ),
            "row_stage:monochromatic_submatrix",
        ),
    ],
)
def test_pipeline_stages_and_bottleneck(finder, rows, n, stages, bottleneck):
    # A budget of one subset pair keeps the fallback from meeting the target.
    res = finder(Matrix.from_rows(rows), n, fallback_budget=1)
    assert res.stages == stages
    assert res.bottleneck == bottleneck
    assert res.met_target == (bottleneck is None)


def test_pipeline_witnesses_always_validate():
    # mixed shapes, including degenerate single row / single column
    rng = random.Random(53)
    shapes = [(1, 1), (1, 12), (12, 1), (2, 2), (5, 40), (16, 100)]
    for d, cols in shapes:
        m = Matrix.from_rows([[rng.randrange(50) for _ in range(cols)] for _ in range(d)])
        for finder, pred in ((find_row_monotone, is_row_monotone), (find_monotone, is_monotone)):
            res = finder(m, 3)
            assert res.witness is not None
            assert res.witness.validate(m)
            sub = submatrix(m, res.witness.rows, res.witness.cols)
            assert pred(sub) is not None


def test_deepest_tree_like_matches_stepwise_construction():
    rng = random.Random(59)
    m = distinct_columns(rng, 2, 200)
    tree, cols = tree_like_subsequence(m, None)
    assert is_binary_tree_like(submatrix(m, range(m.rows), cols)) == tree
    # the same height must be reachable directly, and one more must fail
    assert tree_like_subsequence(m, tree.height) == (tree, cols)
    with pytest.raises(InsufficientLengthError):
        tree_like_subsequence(m, tree.height + 1)


def test_split_ignores_ties_outside_the_group_it_cuts():
    # Coordinate 0 keeps columns 0 and 3, so the tie between columns 1 and 2
    # on coordinate 1 is never cut.
    assert bipartite_split(columns([(1, 5), (4, 7), (2, 7), (3, 9)])) == ((1, 1), (0,), (3,))
    # The middle column of an odd count joins neither half.
    assert bipartite_split(columns([(1,), (1,), (2,)])) == ((1,), (0,), (2,))
    tree, cols = tree_like_subsequence(columns([(1,), (1,), (2,)]), None)
    assert (tree.height, cols) == (1, (0, 2))


def test_vector_split_raises_on_any_tie():
    with pytest.raises(TiedCoordinateError) as err:
        bipartite_split(columns([(1, 2), (1, 5)]))
    assert err.value.coordinate == 0
    # the tie is away from the median, between the two low values
    with pytest.raises(TiedCoordinateError):
        bipartite_split(columns([(1,), (1,), (2,), (3,)]))


def lifted(m):
    """m with every entry lifted to v * cols + column: tie-free, ordered as (v, column)."""
    return Matrix.from_rows([v * m.cols + i for i, v in enumerate(row)] for row in m.entries)


def test_row_split_tie_at_the_median():
    # sorted values 3 4 4 4 4 4 4 5: the cut falls inside the run of 4s, so
    # the earliest three 4s (columns 1-3) go low with the 3 at column 7
    m = Matrix.from_rows([[5, 4, 4, 4, 4, 4, 4, 3]])
    sign, first, second = _split_positions(m.entries, list(range(8)), strict=False)
    assert (sign, first, second) == ((1,), [1, 2, 3], [4, 5, 6])
    assert bipartite_split(lifted(m)) == (sign, (1, 2, 3), (4, 5, 6))
    with pytest.raises(TiedCoordinateError):
        _split_positions(m.entries, list(range(8)), strict=True)
    # when the first half splits evenly around the cut, its low part is kept
    assert _split_positions(((1, 4, 2, 3),), [0, 1, 2, 3], strict=False) == ((1,), [0], [3])


def test_row_descent_matches_lifted_vector_path():
    # small value ranges, so ties land on the cut at every level
    rng = random.Random(61)
    for _ in range(400):
        d = rng.randrange(1, 7)
        cols = rng.randrange(1, 300)
        spread = rng.choice([1, 2, 3, 5, 1000])
        m = Matrix.from_rows([[rng.randrange(spread) for _ in range(cols)] for _ in range(d)])
        tree, reps = _descend_tree_like(m.entries, m.cols, None, strict=False)
        assert tree_like_subsequence(lifted(m), None) == (tree, tuple(reps))
        target = rng.randrange(tree.height + 1)
        tree, reps = _descend_tree_like(m.entries, m.cols, target, strict=False)
        assert tree_like_subsequence(lifted(m), target) == (tree, tuple(reps))


def test_chain_search_matches_both_oracles():
    # tied values, d = 1, n = 1, and n past the rows or the columns all occur.
    # chain_search and the oracle share the oracle module's order_table,
    # chain_starts and row step, so the plain loop is the reference independent of both.
    rng = random.Random(67)
    kinds = ((ROW_MONOTONE, brute_force_row_monotone), (MONOTONE, brute_force_monotone))
    outcomes = set()
    for _ in range(1500):
        d, cols, n = rng.randrange(1, 8), rng.randrange(1, 15), rng.randrange(1, 6)
        spread = rng.choice([1, 2, 3, 10, 1000])
        m = Matrix.from_rows([[rng.randrange(spread) for _ in range(cols)] for _ in range(d)])
        for kind, brute in kinds:
            found = chain_search(m, n, kind)
            assert found == brute(m, n) == plain_first_witness(m, n, SearchBudget(), kind)
            outcomes.add(found and (found.row_direction, found.col_direction))
    assert {None, (INCREASING, None), (DECREASING, None)} <= outcomes
    assert {(a, b) for a in (INCREASING, DECREASING) for b in (INCREASING, DECREASING)} <= outcomes
    # Past one 64-column block, and past 255 distinct values in a row. Odd
    # rows reverse the row above up to a cut, so witnesses fall late or not at all.
    beyond = absent = 0
    for _ in range(120):
        n = rng.randint(1, 3)
        d, cols = rng.randint(1, 5), rng.choice((rng.randint(65, 140), rng.randint(256, 320)))
        rows = [[rng.randrange(10**6) for _ in range(cols)] for _ in range(d)]
        cut = rng.choice((cols, rng.randint(0, cols)))
        for a in range(1, d, 2):
            rows[a][:cut] = [-v for v in rows[a - 1][:cut]]
        m = Matrix.from_rows(rows)
        assert max(len(set(row)) for row in rows) > 255 or cols < 256
        for kind, brute in kinds:
            found = chain_search(m, n, kind)
            assert found == brute(m, n), (m, n, kind)
            beyond += found is not None and found.cols[-1] >= 64
            absent += found is None and d >= n
    assert beyond > 20 and absent > 20


def test_chain_search_hand_cases():
    constant = Matrix.from_rows([[5, 5, 5], [5, 5, 5], [2, 2, 2]])
    # a constant row fits both directions, and increasing wins
    assert chain_search(constant, 2, ROW_MONOTONE) == SubmatrixWitness(
        (0, 1), (0, 1), ROW_MONOTONE, INCREASING
    )
    # every column reads 5, 5, 2 downwards
    assert chain_search(constant, 3, MONOTONE) == SubmatrixWitness(
        (0, 1, 2), (0, 1, 2), MONOTONE, INCREASING, DECREASING
    )
    falling = Matrix.from_rows([[9, 3, 7, 1]] * 3)
    assert chain_search(falling, 1, MONOTONE) == SubmatrixWitness(
        (0,), (0,), MONOTONE, INCREASING, INCREASING
    )
    # no increasing triple exists; the first decreasing one is (0, 1, 3)
    triple = chain_search(falling, 3, ROW_MONOTONE)
    assert (triple.rows, triple.cols, triple.row_direction) == ((0, 1, 2), (0, 1, 3), DECREASING)
    # the first decreasing pair (0, 1) comes before the first increasing pair (1, 2)
    assert chain_search(falling, 2, ROW_MONOTONE).cols == (0, 1)
    rising = chain_search(Matrix.from_rows([[1, 5, 0]] * 2), 2, ROW_MONOTONE)
    assert (rising.cols, rising.row_direction) == ((0, 1), INCREASING)
    assert chain_search(falling, 4, ROW_MONOTONE) is None
    assert chain_search(Matrix.from_rows([[1], [2]]), 2, MONOTONE) is None
    with pytest.raises(ValueError):
        chain_search(falling, 0, ROW_MONOTONE)


def test_chain_search_deeper_than_the_recursion_limit():
    # d = N = n: one subset pair, n rows deep. Constant rows fit every chain;
    # the alternating last row leaves none of n columns.
    n = sys.getrecursionlimit() + 50
    rows = [[1] * n] * (n - 1) + [[i % 2 for i in range(n)]]
    assert chain_search(Matrix.from_rows(rows), n, ROW_MONOTONE) is None
    assert chain_search(Matrix.from_rows(rows), n, MONOTONE) is None
    first = tuple(range(n - 1))
    assert chain_search(Matrix.from_rows(rows[:-1]), n - 1, MONOTONE) == SubmatrixWitness(
        first, first, MONOTONE, INCREASING, INCREASING
    )


def test_fallback_does_not_call_the_oracle(monkeypatch):
    rng = random.Random(71)
    cases = []
    for _ in range(150):
        d, cols = rng.randrange(3, 7), rng.randrange(4, 13)
        m = Matrix.from_rows([[rng.randrange(4) for _ in range(cols)] for _ in range(d)])
        cases.append((m, brute_force_row_monotone(m, 3), brute_force_monotone(m, 3)))

    def refuse(*args, **kwargs):
        raise AssertionError("the fallback called the brute-force oracle")

    monkeypatch.setattr(oracle, "brute_force_row_monotone", refuse)
    monkeypatch.setattr(oracle, "brute_force_monotone", refuse)
    settled = set()
    for m, row_truth, full_truth in cases:
        for finder, truth in ((find_row_monotone, row_truth), (find_monotone, full_truth)):
            res = finder(m, 3)
            assert res.met_target == (truth is not None)
            fallback = [detail for name, detail in res.stages if name == "exhaustive_fallback"]
            if fallback:
                assert res.witness == truth or not res.met_target
                settled.add((finder.__name__, fallback[0]))
    assert settled == {
        (name, outcome)
        for name in ("find_row_monotone", "find_monotone")
        for outcome in ("witness found", "no witness exists")
    }


def test_wide_split_matches_lifted_vector_path_by_selection_and_by_sort(monkeypatch):
    # Groups of 4096 and more are cut by sampled selection, which falls back to
    # a full sort when its bracket misses the median. Heavy ties put the cut
    # inside long runs of equal values; a row whose every 32nd value is its
    # minimum fools the sample, so the bracket misses.
    rng = random.Random(97)
    sorted_lengths = []

    def recording_sorted(values, **kwargs):
        sorted_lengths.append(len(values))
        return sorted(values, **kwargs)

    ways = {"selection": 0, "full sort": 0}
    for case in range(24):
        cols = rng.choice([4096, 4097, 6000, 8192])
        spread = rng.choice([2, 3, 7, 50, 10**6])
        rows = [[rng.randrange(spread) for _ in range(cols)] for _ in range(rng.randrange(1, 4))]
        if case % 3 == 0:
            rows = [[-1 if p % 32 == 0 else v for p, v in enumerate(row)] for row in rows]
        m = Matrix.from_rows(rows)
        sorted_lengths.clear()
        with monkeypatch.context() as patch:
            patch.setattr(extraction, "sorted", recording_sorted, raising=False)
            got = _split_positions(m.entries, list(range(cols)), strict=False)
        tie_free = lifted(m)
        sign, first, second = bipartite_split(tie_free)
        assert got == (sign, list(first), list(second))
        ways["full sort" if cols in sorted_lengths else "selection"] += 1
        # The tie-free vector API takes the same cut, so it must match a full sort.
        assert got == split_by_sort(tie_free.entries, list(range(cols)))
        tree, reps = tree_like_subsequence(tie_free, None)
        assert (tree.labels, reps) == deepest_tree_like_by_sort(tie_free)
    assert all(ways.values()), ways


def test_pipelines_without_fallback_agree_with_the_oracle():
    # With fallback_budget=0 a met target comes from the pipeline's own stages:
    # it must validate, and the oracle must find a witness too. With the default
    # budget every small case settles, so a proven absence is the oracle's; a
    # whole-matrix fast path smaller than n proves it by the matrix's size.
    rng = random.Random(101)
    met = {find_row_monotone: 0, find_monotone: 0}
    for _ in range(150):
        d, cols = rng.randrange(1, 7), rng.randrange(1, 13)
        m = Matrix.from_rows([[rng.randrange(6) for _ in range(cols)] for _ in range(d)])
        n = rng.randrange(1, 5)
        for finder, brute in (
            (find_row_monotone, brute_force_row_monotone),
            (find_monotone, brute_force_monotone),
        ):
            truth = brute(m, n)
            res = finder(m, n, fallback_budget=0)
            if res.met_target:
                assert res.witness.validate(m) and truth is not None
                met[finder] += 1
            res = finder(m, n)
            assert res.met_target == (truth is not None)
            absent = (
                ("exhaustive_fallback", "no witness exists") in res.stages
                or res.bottleneck == "matrix size"
            )
            assert absent == (truth is None)
    assert all(met.values()), met
