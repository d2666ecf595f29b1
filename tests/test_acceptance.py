"""Acceptance suite: one test per quantitative criterion, each printing a
pass/fail line with its elapsed time (run with `pytest -v -s` to see them).

The headline guarantees hold only for column counts around 2^(1000 n^4 log^2 n),
which no memory can hold, so acceptance is per-lemma quantitative at small
parameters plus property-based soundness of the end-to-end pipelines.
"""

import random
import time
from itertools import combinations, permutations

from monomat.cli import main
from monomat.extraction import (
    bipartite_split,
    find_monotone,
    find_row_monotone,
    monochromatic_submatrix,
    monotone_subsequence_1d,
    tree_like_subsequence,
)
from monomat.matrix import Matrix, SignMatrix, sign_diff
from monomat.oracle import (
    SearchBudget,
    brute_force_monotone,
    brute_force_row_monotone,
    es_extremal_sequence,
)
from monomat.trees import LabeledBinaryTree, is_perfect_leafset
from monomat.witness import (
    build_witness,
    colex_delta,
    colex_unrank,
    sample_sign_matrix,
    verify_witness,
)


def _report(name, start, limit):
    elapsed = time.perf_counter() - start
    print(f"[acceptance] {name}: PASS ({elapsed:.2f}s / limit {limit:.0f}s)")
    assert elapsed < limit, f"{name} exceeded its {limit}s budget ({elapsed:.2f}s)"


def _distinct_columns(rng, d, count):
    """d x count matrix whose columns are vectors with pairwise distinct coordinates."""
    return Matrix.from_rows(rng.sample(range(10 * count), count) for _ in range(d))


def test_lemma_3_1_bound():
    start = time.perf_counter()
    rng = random.Random(101)
    cases = [(d, n_cols) for d in (1, 2, 3) for n_cols in (16, 64, 128)]
    for trial in range(1000):
        d, n_cols = cases[trial % len(cases)]
        m = _distinct_columns(rng, d, n_cols)
        sign, first, second = bipartite_split(m)
        bound = -(-n_cols // (1 << (d + 1)))
        assert len(first) == len(second) >= bound
        for i in first:
            for j in second:
                assert i < j
                assert sign_diff(m.column(i), m.column(j)) == sign
    _report("lemma 3.1 split bound (1000 instances)", start, 10)


def test_lemma_3_2_tree_like():
    start = time.perf_counter()
    rng = random.Random(102)
    cases = [(1, 3), (2, 2)]
    for trial in range(200):
        d, m = cases[trial % 2]
        n_cols = 1 << (m * (d + 1))
        matrix = _distinct_columns(rng, d, n_cols)
        tree, cols = tree_like_subsequence(matrix, m)
        assert len(cols) == 1 << m
        for i in range(1 << m):
            for j in range(i + 1, 1 << m):
                assert (
                    sign_diff(matrix.column(cols[i]), matrix.column(cols[j]))
                    == tree.leaf_label(i + 1, j + 1)
                )
    _report("lemma 3.2 tree-like identity (200 instances)", start, 10)


def test_lemma_3_3_perfect_leafsets():
    start = time.perf_counter()
    rng = random.Random(103)
    from monomat.extraction import perfect_leafset_extract

    for _ in range(500):
        labels = {
            (depth, pos): (1 - 2 * rng.getrandbits(1),)
            for depth in range(11)
            for pos in range(1, (1 << depth) + 1)
        }
        tree = LabeledBinaryTree(height=11, dim=1, labels=labels)
        leaf_set = perfect_leafset_extract(tree, 2)
        assert len(leaf_set) == 4
        assert is_perfect_leafset(tree, leaf_set)
    _report("lemma 3.3 perfect leaf sets (500 labelings)", start, 60)


def test_lemma_2_4_monochromatic_blocks():
    start = time.perf_counter()
    rng = random.Random(104)
    for _ in range(200):
        sm = SignMatrix.from_rows(
            [[1 if rng.getrandbits(1) else -1 for _ in range(16)] for _ in range(48)]
        )
        found = monochromatic_submatrix(sm, 3, 2)
        assert found is not None
        rows, cols, sign = found
        assert len(rows) == 3 and len(cols) == 2
        assert all(sm.entries[a][j] == sign for a in rows for j in cols)
    _report("lemma 2.4 monochromatic blocks (200 colorings)", start, 10)


def _has_monotone_exhaustive(seq, n):
    for idx in combinations(range(len(seq)), n):
        values = [seq[i] for i in idx]
        if all(x <= y for x, y in zip(values, values[1:])):
            return True
        if all(x >= y for x, y in zip(values, values[1:])):
            return True
    return False


def test_m1_sharpness():
    start = time.perf_counter()
    for perm in permutations(range(5)):
        assert monotone_subsequence_1d(perm, 3) is not None
    extremal3 = es_extremal_sequence(3)
    assert len(extremal3) == 4
    assert not _has_monotone_exhaustive(extremal3, 3)
    assert monotone_subsequence_1d(extremal3, 3) is None

    rng = random.Random(105)
    base = list(range(10))
    for _ in range(10**4):
        rng.shuffle(base)
        assert monotone_subsequence_1d(base, 4) is not None
    extremal4 = es_extremal_sequence(4)
    assert len(extremal4) == 9
    assert not _has_monotone_exhaustive(extremal4, 4)
    assert monotone_subsequence_1d(extremal4, 4) is None
    _report("Erdos-Szekeres sharpness at n=3 and n=4", start, 30)


def test_sign_identity_t8():
    start = time.perf_counter()
    rng = random.Random(106)
    for d in (3, 5):
        sm = SignMatrix.from_rows(
            [[1 - 2 * rng.getrandbits(1) for _ in range(8)] for _ in range(d)]
        )
        w = build_witness(sm)
        cols = [w.column(k) for k in range(1, 257)]
        bits = [colex_unrank(8, k) for k in range(1, 257)]
        checked = 0
        for k in range(256):
            for l in range(k + 1, 256):
                b = colex_delta(bits[k], bits[l])
                assert sign_diff(cols[k], cols[l]) == sm.col(b - 1)
                checked += 1
        assert checked == 32640
    _report("implicit witness sign identity at t=8 (32640 pairs)", start, 10)


def test_lower_bound_witness_end_to_end():
    start = time.perf_counter()
    sm = sample_sign_matrix(6, 5, 3, 2, seed=1)
    w = build_witness(sm)
    report = verify_witness(w, 3)
    assert report.verdict == "PASS"
    assert report.mode == "exhaustive"
    dense = w.materialize()
    assert dense.rows == 6 and dense.cols == 32
    found = brute_force_row_monotone(dense, 3, SearchBudget(10**7, 10**7))
    assert found is None
    _report("lower-bound witness end-to-end (6x32, ~99k subset pairs)", start, 120)


def test_pipeline_soundness_fuzz():
    start = time.perf_counter()
    rng = random.Random(108)
    for trial in range(500):
        d = rng.randrange(1, 17)
        n_cols = rng.randrange(1, 4097)
        m = Matrix.from_rows(
            [[rng.randrange(10**6) for _ in range(n_cols)] for _ in range(d)]
        )
        target = rng.randrange(1, 5)
        row_res = find_row_monotone(m, target)
        assert row_res.witness is not None and row_res.witness.validate(m)
        full_res = find_monotone(m, max(1, target - 1))
        assert full_res.witness is not None and full_res.witness.validate(m)

    for _ in range(300):
        d = rng.randrange(1, 6)
        n_cols = rng.randrange(1, 13)
        m = Matrix.from_rows([[rng.randrange(10) for _ in range(n_cols)] for _ in range(d)])
        assert find_row_monotone(m, 2).met_target == (
            brute_force_row_monotone(m, 2) is not None
        )
        assert find_monotone(m, 2).met_target == (brute_force_monotone(m, 2) is not None)
    _report("pipeline soundness fuzz (500 + 300 agreement instances)", start, 300)


def test_tree_module_exhaustives():
    start = time.perf_counter()
    from test_trees import (
        test_claim_distinct_roots_exhaustive,
        test_claim_union_exhaustive_m4,
        test_claim_union_exhaustive_m_le_3,
        test_leaf_ancestor_matches_path_walking_exhaustively,
        test_levels_leafset_postcondition_exhaustive,
    )

    test_claim_union_exhaustive_m_le_3()
    test_claim_union_exhaustive_m4()
    test_claim_distinct_roots_exhaustive()
    test_levels_leafset_postcondition_exhaustive()
    test_leaf_ancestor_matches_path_walking_exhaustively()
    _report("tree module exhaustives (claims, depth sets, ancestors)", start, 60)


def test_cli_determinism(tmp_path, capsys):
    start = time.perf_counter()
    matrix_path = tmp_path / "m.txt"
    rng = random.Random(110)
    rows = [" ".join(str(rng.randrange(100)) for _ in range(32)) for _ in range(6)]
    matrix_path.write_text("6 32\n" + "\n".join(rows) + "\n")

    pairs = []
    for tag in ("a", "b"):
        out = tmp_path / f"find-{tag}.json"
        assert main(["find", str(matrix_path), "--n", "2", "--output", str(out)]) in (0, 3)
        pairs.append(out.read_bytes())
    assert pairs[0] == pairs[1]

    for tag in ("a", "b"):
        prefix = tmp_path / f"wit-{tag}"
        assert (
            main(
                ["witness", "--d", "6", "--t", "5", "--n", "3", "--s", "2",
                 "--seed", "4", "--output-prefix", str(prefix), "--materialize"]
            )
            == 0
        )
    for suffix in (".signs", ".witness", ".matrix"):
        assert (
            tmp_path / f"wit-a{suffix}").read_bytes() == (tmp_path / f"wit-b{suffix}").read_bytes()
    capsys.readouterr()
    _report("CLI determinism (byte-identical artifacts)", start, 60)
