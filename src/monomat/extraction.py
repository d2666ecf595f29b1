"""Constructive extraction of (row-)monotone submatrices from wide matrices.

The chain of tools: split the columns of a matrix, read as a vector sequence,
into two halves with a uniform comparison pattern, iterate that into a
tree-like subsequence, thin the associated labeled tree to a perfect leaf set
with a layered labeling, find a single-sign block in the layer labels, and
read off a witness. The end-to-end pipelines run in best-effort mode on any
matrix and report the largest square witness they can certify.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

from .errors import (
    BudgetExceededError,
    InsufficientLengthError,
    InsufficientTreeError,
    InternalCheckError,
    GuaranteeUnmetError,
    NotPowerOfTwoError,
    TiedCoordinateError,
    TooShortError,
)
from .matrix import (
    DECREASING,
    INCREASING,
    MONOTONE,
    ROW_MONOTONE,
    Matrix,
    SignMatrix,
    SubmatrixWitness,
    ceil_log2,
    is_monotone,
    is_row_monotone,
    sign_diff,
    sign_str,
    submatrix,
)
from .oracle import chain_search
from .trees import (
    LabeledBinaryTree,
    levels_leafset,
    vertex_ancestor,
)


def _below(col, positions, cut, last):
    """Split positions into those with (value, position) <= (cut, last) and the rest."""
    low, high = [], []
    for p in positions:
        v = col[p]
        (low if v < cut or v == cut and p <= last else high).append(p)
    return low, high


_SELECT_MIN = 4096  # smaller groups are cut by a full sort
_SAMPLE_STEP = 32


def _rank_cut(values, k: int):
    """(cut, below): the value of 0-based rank k in values and how many values lie below it.

    Large groups are cut by sampled selection (Floyd and Rivest, 1975): sort
    every 32nd value, bracket rank k between two sample values a few standard
    deviations either side of it, count the values below the bracket and sort
    only the values inside it. A full sort answers small groups and brackets
    that miss rank k; both give the same answer.
    """
    if len(values) >= _SELECT_MIN:
        sample = sorted(values[::_SAMPLE_STEP])
        j = k // _SAMPLE_STEP
        reach = 2 * math.isqrt(len(sample)) + 8
        lo = sample[max(j - reach, 0)]
        hi = sample[min(j + reach, len(sample) - 1)]
        upto = [v for v in values if v <= hi]
        band = [v for v in upto if v >= lo]
        below = len(upto) - len(band)
        if below <= k < len(upto):
            band.sort()
            cut = band[k - below]
            return cut, below + bisect_left(band, cut)
    values = sorted(values)
    cut = values[k]
    return cut, bisect_left(values, cut)


def _split_positions(coords, positions, strict: bool):
    """One splitting round: two equal-size sub-groups with a uniform sign pattern.

    coords holds one value sequence per coordinate, indexed by position (the
    rows of a matrix already are). Returns (sign, first_positions,
    second_positions). Every element of the first group precedes every
    element of the second, and the sign of (second - first) is the returned
    vector on every coordinate. A tie at a coordinate's median sends its
    earliest positions to the low half, which orders equal values by position
    exactly as a (value, position) lift would; with strict set, a tie among
    the group's values raises TiedCoordinateError instead. Sizes shrink by
    at most half per coordinate, so both groups keep at least
    ceil(len/2^(d+1)) elements whenever 2^(d+1) divides len.
    """
    if len(positions) < 2:
        raise TooShortError(f"cannot split a group of {len(positions)}")
    half = len(positions) // 2
    first = positions[:half]
    second = positions[len(positions) - half :]
    signs = []
    for a, col in enumerate(coords):
        group = first + second
        values = [col[p] for p in group]
        if strict and len(set(values)) < len(values):
            raise TiedCoordinateError(a)
        k = len(first)
        cut, below = _rank_cut(values, k)
        last = -1  # the latest position valued at the cut that still goes low
        if below < k:
            last = [p for p in group if col[p] == cut][k - below - 1]
        first_low, first_high = _below(col, first, cut, last)
        second_low, second_high = _below(col, second, cut, last)
        if len(first_low) >= len(first_high):
            first, second = first_low, second_high
            signs.append(1)
        else:
            first, second = first_high, second_low
            signs.append(-1)
        if len(first) != len(second):
            raise InternalCheckError("split halves lost size parity")
    return tuple(signs), first, second


def bipartite_split(m: Matrix):
    """Split the columns of m into halves A, B with A before B and one sign pattern.

    Returns (sign, A, B): A and B are equal-size tuples of 0-based column
    indices, and sign_diff(m.column(i), m.column(j)) == sign for every i in A
    and j in B. The guarantee |A| >= N/2^(d+1) is exact whenever 2^(d+1)
    divides N. Tied values on a coordinate raise TiedCoordinateError.
    """
    sign, first, second = _split_positions(m.entries, list(range(m.cols)), strict=True)
    return sign, tuple(first), tuple(second)


def _descend_tree_like(coords, count: int, target: int | None, strict: bool):
    """Iterate the halving construction level by level over `count` positions.

    Stops after `target` levels, or as deep as possible when target is None.
    Returns the labeled tree and the earliest position of each surviving
    group, its representative.
    """
    groups = [list(range(count))]
    labels = {}
    height = 0
    while target is None or height < target:
        new_groups = []
        new_labels = {}
        try:
            for gi, group in enumerate(groups):
                sign, first, second = _split_positions(coords, group, strict)
                new_labels[(height, gi + 1)] = sign
                new_groups.append(first)
                new_groups.append(second)
        except TooShortError:
            if target is not None:
                raise InsufficientLengthError(achieved=height, target=target) from None
            break
        labels.update(new_labels)
        groups = new_groups
        height += 1
    tree = LabeledBinaryTree(height=height, dim=len(coords), labels=labels)
    return tree, [group[0] for group in groups]


def tree_like_subsequence(m: Matrix, height: int | None):
    """Columns of m, 2^height of them, whose sign patterns follow one labeled tree.

    Returns (tree, cols) with cols the 0-based column indices. Success is
    guaranteed when m has at least 2^(height(d+1)) columns; on fewer the
    construction may die early, raising InsufficientLengthError. With height
    None it goes as deep as it can. The earliest column of each surviving
    group is kept as its representative.
    """
    if height is not None and height < 0:
        raise ValueError("height must be non-negative")
    tree, reps = _descend_tree_like(m.entries, m.cols, height, strict=True)
    return tree, tuple(reps)


def is_binary_tree_like(m: Matrix):
    """The unique labeled tree consistent with all pairwise column signs, or None.

    The column count must be a power of two. Each pair (i, j) proposes the
    label sign(column j - column i) for the common ancestor of leaves i and j;
    the columns are tree-like exactly when no vertex receives two conflicting
    proposals.
    """
    n = m.cols
    if n < 1 or n & (n - 1):
        raise NotPowerOfTwoError(f"length {n} is not a power of two")
    height = n.bit_length() - 1
    columns = list(zip(*m.entries))
    labels = {}
    for i in range(n):
        for j in range(i + 1, n):
            vertex = vertex_ancestor(height, (height, i + 1), (height, j + 1))
            proposed = sign_diff(columns[i], columns[j])
            if labels.setdefault(vertex, proposed) != proposed:
                return None
    return LabeledBinaryTree(height=height, dim=m.rows, labels=labels)


def _perfect_descent(tree: LabeledBinaryTree, max_height: int | None = None):
    """Pair-and-group induction producing a perfect leaf set.

    Consecutive perfect subtrees are joined; the joined roots are grouped by
    (ambient depth, label) and the largest group survives, ties broken by the
    lexicographically smallest (depth, label string). Returns (the leaf set,
    per-round chosen labels); the set's height is the number of rounds.
    """
    m = tree.height
    sets = [(leaf,) for leaf in range(1, (1 << m) + 1)]
    roots = [(m, leaf) for leaf in range(1, (1 << m) + 1)]
    round_labels = []
    while len(sets) >= 2 and (max_height is None or len(round_labels) < max_height):
        joined = []
        for j in range(len(sets) // 2):
            q = vertex_ancestor(m, roots[2 * j], roots[2 * j + 1])
            joined.append((q, tree.label(q)))
        groups: dict[tuple, list[int]] = {}
        for j, (q, label) in enumerate(joined):
            groups.setdefault((q[0], label), []).append(j)
        best_key = min(groups, key=lambda k: (-len(groups[k]), k[0], sign_str(k[1])))
        chosen = groups[best_key]
        sets = [sets[2 * j] + sets[2 * j + 1] for j in chosen]
        roots = [joined[j][0] for j in chosen]
        round_labels.append(best_key[1])
    return sets[0], round_labels


def perfect_leafset_extract(tree: LabeledBinaryTree, target: int):
    """Perfect leaf set of size 2^target with a layered induced labeling.

    Guaranteed to exist when 2^m >= (2^(d+1) * m)^target; otherwise the
    induction may run out of subtrees, raising InsufficientTreeError.
    """
    if target < 0:
        raise ValueError("target height must be non-negative")
    leaf_set, round_labels = _perfect_descent(tree, max_height=target)
    if len(round_labels) < target:
        raise InsufficientTreeError(achieved=len(round_labels), target=target)
    return leaf_set


def single_sign_levels(sm: SignMatrix, n: int, s: int, max_col_subsets: int | None = None):
    """Column subsets of size 0, 1, ..., s on which n rows of sm share one sign.

    Yields one list per depth: the (subset, plus rows, minus rows) of every
    subset of that size, in lexicographic order, on which some sign keeps n
    rows. The masks are row bitmasks, and a sign holding fewer than n rows
    reads 0. Only those subsets are extended, and the levels stop at the
    first empty one, so a level of depth s is yielded exactly when n rows
    share s single-sign columns. Raises BudgetExceededError once more than
    max_col_subsets column extensions have been tallied.
    """
    full = (1 << sm.rows) - 1
    plus_rows = [sum(1 << a for a, v in enumerate(col) if v > 0) for col in zip(*sm.entries)]
    minus_rows = [full ^ p for p in plus_rows]
    t = len(plus_rows)
    level = [((), full, full)] if n <= sm.rows else []
    tallied = 0
    for depth in range(s + 1):
        if not level:
            return
        yield level
        if depth == s:
            return
        tallied += sum(t - (c[-1] + 1 if c else 0) for c, _, _ in level)
        if max_col_subsets is not None and tallied > max_col_subsets:
            raise BudgetExceededError(f"column-subset budget {max_col_subsets} exhausted")
        nxt = []
        for subset, plus, minus in level:
            for j in range(subset[-1] + 1 if subset else 0, t):
                p, m = plus & plus_rows[j], minus & minus_rows[j]
                p, m = p if p.bit_count() >= n else 0, m if m.bit_count() >= n else 0
                if p or m:
                    nxt.append((subset + (j,), p, m))
        level = nxt


def lowest_rows(mask: int, n: int) -> tuple[int, ...]:
    """The first n rows of a row bitmask."""
    return tuple(a for a in range(mask.bit_length()) if mask >> a & 1)[:n]


def monochromatic_submatrix(sm: SignMatrix, n: int, s: int):
    """First n x s single-sign block as (rows, cols, sign), or None.

    Guaranteed to exist when t >= 4s^2 and d >= 4n * 2^s. The sign +1 is
    tried before -1. Within a sign the block is the s-subset of columns whose
    n-th row comes first, then the lexicographically first such subset, with
    its first n rows: the first subset a top-down scan of the rows sees n
    times.
    """
    if n < 1 or s < 0:
        raise ValueError("need n >= 1 and s >= 0")
    levels = list(single_sign_levels(sm, n, s))
    if len(levels) <= s:
        return None
    for sign, side in ((1, 1), (-1, 2)):
        blocks = [(lowest_rows(entry[side], n), entry[0]) for entry in levels[s] if entry[side]]
        if blocks:
            rows, subset = min(blocks, key=lambda block: block[0][-1])
            return rows, subset, sign
    return None


def monotone_subsequence_1d(seq, n: int):
    """Length-n monotone subsequence with the lexicographically smallest indices.

    Ties count as increasing (the symbolic perturbation by position), so
    'increasing' means non-decreasing values and 'decreasing' means strictly
    decreasing. Increasing wins when both directions admit length n. Always
    succeeds when len(seq) >= (n-1)^2 + 1; returns None otherwise when no
    direction reaches length n.
    """
    if n < 1:
        raise ValueError("n must be positive")
    values = tuple(seq)
    for direction, run in zip((INCREASING, DECREASING), _run_lengths(values)):
        if max(run, default=0) >= n:
            return _smallest_run(values, run, n, direction), direction
    return None


def _run_lengths(values):
    """Per position, the longest increasing and the longest decreasing run starting there.

    Patience sorting read right to left (Fredman 1975), O(len log len).
    Increasing runs may repeat a value; decreasing runs are strict.
    """
    inc, dec = [0] * len(values), [0] * len(values)
    # Among the positions read so far, tops[k] is minus the largest value that
    # starts an increasing run of k + 1, and lows[k] the smallest value that
    # starts a decreasing one. Both lists ascend.
    tops, lows = [], []
    for i in range(len(values) - 1, -1, -1):
        v = values[i]
        k = bisect_right(tops, -v)
        tops[k : k + 1] = [-v]
        inc[i] = k + 1
        k = bisect_left(lows, v)
        lows[k : k + 1] = [v]
        dec[i] = k + 1
    return inc, dec


def _smallest_run(values, run, n: int, direction: str):
    """The lexicographically smallest run of n positions; some run[i] must reach n.

    Each position is the first one after the previous pick that continues
    the direction and still starts a run long enough to finish.
    """
    rising = direction == INCREASING
    out = []
    for i, length in enumerate(run):
        if length >= n - len(out) and (not out or (values[i] >= values[out[-1]]) == rising):
            out.append(i)
            if len(out) == n:
                break
    return tuple(out)


@dataclass(frozen=True)
class PipelineResult:
    """Outcome of a best-effort pipeline run; guaranteed mode always refuses."""

    witness: SubmatrixWitness | None
    target: int
    achieved: int
    met_target: bool
    stages: tuple[tuple[str, str], ...]
    bottleneck: str | None


def _fallback_search(m: Matrix, n: int, kind: str, budget: int, stages: list):
    """Exact chain search for an n x n witness when the whole space fits the budget.

    The budget caps C(d, n) * C(N, n), the space a brute-force search would
    enumerate. Records the outcome in stages when the search runs; returns
    the witness or None.
    """
    if math.comb(m.rows, n) * math.comb(m.cols, n) > budget:
        return None
    try:
        found = chain_search(m, n, kind)
    except BudgetExceededError:  # past its width cap: refused like the budget
        return None
    stages.append(("exhaustive_fallback", "witness found" if found else "no witness exists"))
    return found


def _find(m: Matrix, n: int, mode: str, fallback_budget: int, kind: str, construct):
    """Run either pipeline: the steps both kinds share.

    Checks n and mode, always refuses guaranteed mode, and takes the whole
    matrix when it already is of the kind. Otherwise construct(m, n,
    fallback_budget, stages) runs the kind's stages, appends their records
    and returns (witness, achieved, bottleneck), and a missed target goes to
    the exhaustive fallback. The bottleneck is reported only for a missed
    target, as "matrix size" whenever n > d or n > N.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if mode not in ("best-effort", "guaranteed"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "guaranteed":
        # The mode needs 2^(c * n^4 * s^2) columns, s = ceil(log2 n), with c = 1000
        # (row) or 2000 (full) and n >= 2, so more than 2^16000: no column count fits.
        n2 = max(n, 2)
        c, rows = (1000, 8 * n2 * n2) if kind == ROW_MONOTONE else (2000, 64 * n**4)
        raise GuaranteeUnmetError(
            f"guaranteed mode needs at least {rows} rows and more than "
            f"2^{c * n2**4 * ceil_log2(n2) ** 2} columns for n={n}; got {m.rows}x{m.cols}"
        )

    stages = []
    bottleneck = None
    whole = is_row_monotone(m) if kind == ROW_MONOTONE else is_monotone(m)
    if whole is not None:
        row_direction, col_direction = (whole, None) if kind == ROW_MONOTONE else whole
        achieved = min(n, m.rows, m.cols)
        witness = SubmatrixWitness(
            tuple(range(achieved)), tuple(range(achieved)), kind, row_direction, col_direction
        )
        detail = whole if kind == ROW_MONOTONE else "/".join(whole)
        stages.append(("fast_path", f"whole matrix is {kind} ({detail})"))
    else:
        witness, achieved, bottleneck = construct(m, n, fallback_budget, stages)
        if achieved < n and (found := _fallback_search(m, n, kind, fallback_budget, stages)):
            witness, achieved = found, n
    if n > m.rows or n > m.cols:
        bottleneck = "matrix size"
    met = achieved >= n
    return PipelineResult(
        witness=witness,
        target=n,
        achieved=achieved,
        met_target=met,
        stages=tuple(stages),
        bottleneck=None if met else bottleneck,
    )


def _row_stages(m: Matrix, n: int, fallback_budget: int, stages: list):
    """Tree-like descent, perfect descent and block search of the row kind."""
    tree, reps = _descend_tree_like(m.entries, m.cols, None, strict=False)
    stages.append(("tree_like_subsequence", f"height {tree.height}"))

    leaf_pool, round_labels = _perfect_descent(tree)
    layers = len(round_labels)
    stages.append(("perfect_leafset_extract", f"height {layers}"))

    s_target = ceil_log2(n)
    if tree.height < s_target:
        bottleneck = "tree_like_subsequence"
    elif layers < s_target:
        bottleneck = "perfect_leafset_extract"
    else:
        bottleneck = "monochromatic_submatrix"

    # Layer q of the height-`layers` leaf set carries the label chosen in
    # round (layers - q), so depth 0 holds the newest root label.
    depth_labels = list(reversed(round_labels))
    # Built row by row, so zero layers still give m.rows rows of no column.
    grid = SignMatrix(tuple(tuple(label[a] for label in depth_labels) for a in range(m.rows)))
    # Past d rows or 2^layers a block of k rows and ceil(log2 k) layers cannot exist.
    for k in range(min(n, m.rows, 1 << layers), 0, -1):
        s_k = ceil_log2(k)
        block = monochromatic_submatrix(grid, k, s_k)
        if block is None:
            continue
        row_set, depth_set, sign = block
        positions = levels_leafset(layers, depth_set)
        chosen_cols = tuple(sorted(reps[leaf_pool[q - 1] - 1] for q in positions))[:k]
        direction, color = (INCREASING, "red") if sign > 0 else (DECREASING, "blue")
        witness = SubmatrixWitness(
            rows=row_set, cols=chosen_cols, kind=ROW_MONOTONE, row_direction=direction
        )
        if not witness.validate(m):
            raise InternalCheckError("pipeline produced an invalid row-monotone witness")
        stages.append(("monochromatic_submatrix", f"{k} rows x {s_k} layers, {color}"))
        return witness, k, bottleneck
    # k = 1 needs one row and no layer, so the loop always returns.
    raise InternalCheckError("block search found no 1 x 1 block")


def _full_stages(m: Matrix, n: int, fallback_budget: int, stages: list):
    """Column runs, the pigeonhole group and the row kind inside it."""
    columns = list(zip(*m.entries))
    runs = [_run_lengths(col) for col in columns]
    longest = max(max(run) for pair in runs for run in pair)
    run_length = min(max(n, math.isqrt(m.rows - 1) + 1), longest)
    table: dict[tuple, list[int]] = {}
    for i, (col, pair) in enumerate(zip(columns, runs)):
        for direction, run in zip((INCREASING, DECREASING), pair):
            if max(run) >= run_length:
                key = (direction, _smallest_run(col, run, run_length, direction))
                table.setdefault(key, []).append(i)
                break
    qualifying = sum(map(len, table.values()))
    stages.append(("column_runs", f"length {run_length}, {qualifying}/{m.cols} columns"))

    direction, row_set = best_key = max(table, key=lambda key: len(table[key]))
    group_cols = table[best_key]
    stages.append(("pigeonhole_group", f"{len(group_cols)} columns, {direction}"))

    inner = find_row_monotone(
        submatrix(m, row_set, group_cols), n, fallback_budget=fallback_budget
    )
    stages.extend((f"row_stage:{name}", detail) for name, detail in inner.stages)
    if run_length < n or len(group_cols) < n:
        bottleneck = "pigeonhole_group"
    else:
        bottleneck = f"row_stage:{inner.bottleneck}"
    witness = SubmatrixWitness(
        rows=tuple(row_set[r] for r in inner.witness.rows),
        cols=tuple(group_cols[c] for c in inner.witness.cols),
        kind=MONOTONE,
        row_direction=inner.witness.row_direction,
        col_direction=direction,
    )
    if not witness.validate(m):
        raise InternalCheckError("pipeline produced an invalid monotone witness")
    return witness, inner.achieved, bottleneck


def find_row_monotone(
    m: Matrix, n: int, mode: str = "best-effort", fallback_budget: int = 200_000
) -> PipelineResult:
    """Search for an n x n row-monotone submatrix.

    Pipeline: build the deepest tree-like subsequence of the columns (the
    split orders tied entries by column index), thin it to a perfect leaf
    set, find a single-sign block in the layer labels, and select columns
    through the depth-set leaf formula.
    Best-effort mode accepts any matrix and degrades the target; when the
    target is missed and the n x n search space fits the fallback budget, an
    exhaustive pass settles existence. Guaranteed mode always refuses: its
    thresholds need more than 2^16000 columns.
    """
    return _find(m, n, mode, fallback_budget, ROW_MONOTONE, _row_stages)


def find_monotone(
    m: Matrix, n: int, mode: str = "best-effort", fallback_budget: int = 200_000
) -> PipelineResult:
    """Search for an n x n monotone submatrix (rows and columns both uniform).

    Every column is reduced to its canonical monotone run of a common length,
    columns are grouped by (direction, exact row tuple), and the row-monotone
    pipeline runs inside the largest group; since all surviving columns are
    monotone over those rows, the combined witness is fully monotone.
    """
    return _find(m, n, mode, fallback_budget, MONOTONE, _full_stages)
