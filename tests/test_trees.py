"""Rooted trees: ancestors, induced subtrees, depth-set leaf selection, layering."""

import random
from itertools import combinations

import pytest

from monomat.errors import (
    DepthOutOfRangeError,
    EmptySetError,
    LeafOutOfRangeError,
    NotPerfectError,
)
from monomat.trees import (
    InducedTree,
    LabeledBinaryTree,
    common_ancestor,
    induced_subtree,
    is_ancestor,
    is_layered,
    is_perfect_leafset,
    leaf_ancestor,
    levels_leafset,
    vertex_ancestor,
)


def path_to_root(m, leaf):
    """Ancestor chain of a leaf, deepest first, by repeated halving."""
    return [(depth, ((leaf - 1) >> (m - depth)) + 1) for depth in range(m, -1, -1)]


def leaf_ancestor_by_walking(m, a, b):
    on_a = set(path_to_root(m, a))
    for v in path_to_root(m, b):
        if v in on_a:
            return v
    raise AssertionError("no common ancestor found")


def test_leaf_ancestor_examples():
    assert leaf_ancestor(3, 1, 8) == (0, 1)
    assert leaf_ancestor(3, 5, 6) == leaf_ancestor_by_walking(3, 5, 6) == (2, 3)
    assert leaf_ancestor(3, 4, 4) == (3, 4)
    with pytest.raises(LeafOutOfRangeError):
        leaf_ancestor(3, 0, 1)
    with pytest.raises(LeafOutOfRangeError):
        leaf_ancestor(3, 1, 9)


def test_leaf_ancestor_matches_path_walking_exhaustively():
    # all pairs for m <= 10
    for m in range(0, 11):
        leaves = range(1, (1 << m) + 1)
        for a in leaves:
            for b in range(a, (1 << m) + 1):
                assert leaf_ancestor(m, a, b) == leaf_ancestor_by_walking(m, a, b)


def test_common_ancestor_examples():
    assert common_ancestor(3, range(1, 9)) == (0, 1)
    assert common_ancestor(3, {5, 6, 7}) == (1, 2)
    assert common_ancestor(3, {4}) == (3, 4)
    with pytest.raises(EmptySetError):
        common_ancestor(3, [])


def test_common_ancestor_against_brute_force():
    rng = random.Random(1)
    m = 5
    for _ in range(200):
        leaves = rng.sample(range(1, (1 << m) + 1), rng.randrange(1, 8))
        chains = [set(path_to_root(m, leaf)) for leaf in leaves]
        shared = set.intersection(*chains)
        deepest = max(shared, key=lambda v: v[0])
        assert common_ancestor(m, leaves) == deepest
        # also: the common ancestor of a set equals that of some pair
        pairs = {leaf_ancestor(m, a, b) for a in leaves for b in leaves}
        assert common_ancestor(m, leaves) in pairs


def test_vertex_ancestor_consistent_with_leaf_ancestor():
    for m in range(0, 7):
        for a in range(1, (1 << m) + 1):
            for b in range(1, (1 << m) + 1):
                assert vertex_ancestor(m, (m, a), (m, b)) == leaf_ancestor(m, a, b)


def test_induced_subtree_examples():
    full = induced_subtree(3, range(1, 9))
    assert len(full.vertices) == 2**4 - 1  # the whole tree
    two = induced_subtree(2, [1, 2])
    assert set(two.vertices) == {(2, 1), (2, 2), (1, 1)}
    assert two.root == (1, 1)
    split = induced_subtree(2, [1, 3])
    assert set(split.vertices) == {(2, 1), (2, 3), (0, 1)}
    assert split.root == (0, 1)
    with pytest.raises(EmptySetError):
        induced_subtree(2, [])


def test_induced_subtree_parents_are_nearest_induced_ancestors():
    t = induced_subtree(3, [1, 2, 5])
    # vertices: leaves 1,2,5; delta(1,2) = (2,1); delta(1,5) = delta(2,5) = root
    assert set(t.vertices) == {(3, 1), (3, 2), (3, 5), (2, 1), (0, 1)}
    assert t.parent[(3, 1)] == (2, 1)
    assert t.parent[(3, 2)] == (2, 1)
    assert t.parent[(2, 1)] == (0, 1)
    assert t.parent[(3, 5)] == (0, 1)
    assert t.children[(0, 1)] == [(2, 1), (3, 5)]


def all_nonempty_subsets(items):
    for size in range(1, len(items) + 1):
        yield from combinations(items, size)


def _roots_by_subset(m):
    """Map every nonempty leaf subset (as frozenset) to its induced root."""
    out = {}
    leaves = tuple(range(1, (1 << m) + 1))
    for subset in all_nonempty_subsets(leaves):
        out[subset] = common_ancestor(m, subset)
    return out


def check_union_claim(m, x_set, y_set):
    """Unrelated roots: T[X u Y] = T[X] + T[Y] + new root joined to both."""
    tx = induced_subtree(m, x_set)
    ty = induced_subtree(m, y_set)
    tu = induced_subtree(m, tuple(sorted(set(x_set) | set(y_set))))
    new_root = vertex_ancestor(m, tx.root, ty.root)
    assert set(tu.vertices) == set(tx.vertices) | set(ty.vertices) | {new_root}
    assert tu.root == new_root
    assert set(tu.children[new_root]) == {tx.root, ty.root}
    for t_part in (tx, ty):
        for v, p in t_part.parent.items():
            assert tu.parent[v] == p


def test_claim_union_exhaustive_m_le_3():
    # all pairs of nonempty leaf subsets with unrelated roots
    for m in range(1, 4):
        roots = _roots_by_subset(m)
        subsets = list(roots)
        for x_set in subsets:
            for y_set in subsets:
                if not is_ancestor(roots[x_set], roots[y_set]) and not is_ancestor(
                    roots[y_set], roots[x_set]
                ):
                    check_union_claim(m, x_set, y_set)


def test_claim_union_exhaustive_m4():
    # m = 4: group subsets by root; only cross-pairs of unrelated roots qualify
    m = 4
    by_root = {}
    for subset, root in _roots_by_subset(m).items():
        by_root.setdefault(root, []).append(subset)
    roots = sorted(by_root)
    checked = 0
    for i, r1 in enumerate(roots):
        for r2 in roots[i + 1 :]:
            if is_ancestor(r1, r2) or is_ancestor(r2, r1):
                continue
            for x_set in by_root[r1]:
                for y_set in by_root[r2]:
                    check_union_claim(m, x_set, y_set)
                    checked += 1
    assert checked > 60000  # sanity: the eligible space was actually covered


def test_claim_distinct_roots_exhaustive():
    # A < B (every leaf of A below every leaf of B) forces distinct roots;
    # exhaustive over all eligible pairs for m <= 4
    for m in range(1, 5):
        top = 1 << m
        for a_max in range(1, top):
            a_candidates = list(all_nonempty_subsets(range(1, a_max))) if a_max > 1 else [()]
            for b_min in range(a_max + 1, top + 1):
                b_candidates = (
                    list(all_nonempty_subsets(range(b_min + 1, top + 1)))
                    if b_min < top
                    else [()]
                )
                for a_rest in a_candidates:
                    a_set = tuple(sorted(set(a_rest) | {a_max}))
                    root_a = common_ancestor(m, a_set)
                    for b_rest in b_candidates:
                        b_set = tuple(sorted(set(b_rest) | {b_min}))
                        assert root_a != common_ancestor(m, b_set)


def test_levels_leafset_examples():
    assert levels_leafset(3, {0, 2}) == (1, 2, 5, 6)
    assert levels_leafset(5, ()) == (1,)
    assert levels_leafset(2, {0, 1}) == (1, 2, 3, 4)
    with pytest.raises(DepthOutOfRangeError):
        levels_leafset(3, {3})


def test_levels_leafset_postcondition_exhaustive():
    # every Z for m <= 6: perfect induced tree of height |Z|, depths inside Z
    for m in range(0, 7):
        for z_set in all_nonempty_subsets(range(m)):
            q = levels_leafset(m, z_set)
            assert len(q) == 1 << len(z_set)
            t = induced_subtree(m, q)
            assert t.perfect_height() == len(z_set)
            assert {v[0] for v in t.internal_vertices()} <= set(z_set)
        q = levels_leafset(m, ())
        assert q == (1,)


def test_levels_leafset_matches_brute_force_m3():
    # independent check of the example: search all 4-leaf subsets for Z={0,2}
    m, z_set = 3, {0, 2}
    hits = []
    for subset in combinations(range(1, 9), 4):
        t = induced_subtree(m, subset)
        if t.perfect_height() == 2 and {v[0] for v in t.internal_vertices()} <= z_set:
            hits.append(subset)
    assert levels_leafset(m, z_set) in hits


def constant_tree(m, dim, label_value=1):
    labels = {
        (depth, pos): (label_value,) * dim
        for depth in range(m)
        for pos in range(1, (1 << depth) + 1)
    }
    return LabeledBinaryTree(height=m, dim=dim, labels=labels)


def test_is_layered_examples():
    tree = constant_tree(3, 2)
    single = induced_subtree(3, [5])
    assert is_layered(tree, single) == []
    whole = induced_subtree(3, range(1, 9))
    assert is_layered(tree, whole) == [(1, 1)] * 3
    with pytest.raises(NotPerfectError):
        is_layered(tree, induced_subtree(3, [1, 2, 3]))


def test_is_layered_detects_depth_conflicts():
    labels = {
        (0, 1): (1,),
        (1, 1): (1,),
        (1, 2): (-1,),  # two distinct labels at depth 1
        (2, 1): (1,),
        (2, 2): (1,),
        (2, 3): (1,),
        (2, 4): (1,),
    }
    tree = LabeledBinaryTree(height=3, dim=1, labels=labels)
    induced = induced_subtree(3, [1, 3, 5, 7])
    # induced tree has internal vertices (0,1), (1,1), (1,2): depth-1 labels clash
    assert is_layered(tree, induced) is None


def test_is_perfect_leafset():
    tree = constant_tree(3, 1)
    assert is_perfect_leafset(tree, [4])
    assert is_perfect_leafset(tree, range(1, 9))
    assert not is_perfect_leafset(tree, [1, 2, 3])
    mixed = LabeledBinaryTree(
        height=2,
        dim=1,
        labels={(0, 1): (1,), (1, 1): (1,), (1, 2): (-1,)},
    )
    assert not is_perfect_leafset(mixed, [1, 2, 3, 4])
    assert is_perfect_leafset(mixed, [1, 2])


def test_labeled_tree_validation():
    with pytest.raises(ValueError):
        LabeledBinaryTree(height=1, dim=1, labels={})
    with pytest.raises(ValueError):
        LabeledBinaryTree(height=1, dim=1, labels={(1, 1): (1,)})


def test_induced_tree_small_vertex_bound():
    rng = random.Random(3)
    for _ in range(50):
        m = rng.randrange(1, 7)
        x_set = rng.sample(range(1, (1 << m) + 1), rng.randrange(1, min(9, (1 << m) + 1)))
        t = induced_subtree(m, x_set)
        assert len(t.vertices) <= 2 * len(x_set) - 1
