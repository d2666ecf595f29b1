"""Perfect binary trees, common ancestors, induced subtrees, and layered labelings.

The perfect tree of height m is never materialized: a vertex is the pair
(depth, position) with 1 <= position <= 2^depth, and ancestor arithmetic is
bit arithmetic on leaf numbers. Leaves are numbered 1..2^m left to right, so
the children of leaf i of the height-(m-1) tree are leaves 2i-1 and 2i.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    DepthOutOfRangeError,
    EmptySetError,
    LeafOutOfRangeError,
    NotPerfectError,
)
from .matrix import SignVector

Vertex = tuple[int, int]  # (depth, position)


def _check_leaf(m: int, leaf: int):
    if not 1 <= leaf <= 1 << m:
        raise LeafOutOfRangeError(f"leaf {leaf} outside 1..2^{m}")


def leaf_ancestor(m: int, a: int, b: int) -> Vertex:
    """Common ancestor of leaves a and b of the height-m tree.

    For a != b the depth is determined by the first differing digit of the
    m-digit binary expansions of a-1 and b-1 (most significant first); the
    ancestor of a single leaf is the leaf itself.
    """
    _check_leaf(m, a)
    _check_leaf(m, b)
    return vertex_ancestor(m, (m, a), (m, b))


def common_ancestor(m: int, leaves) -> Vertex:
    """Deepest vertex ancestral to every leaf in the set."""
    leaves = tuple(leaves)
    if not leaves:
        raise EmptySetError("common ancestor of an empty leaf set")
    return leaf_ancestor(m, min(leaves), max(leaves))


def vertex_ancestor(m: int, u: Vertex, v: Vertex) -> Vertex:
    """Common ancestor of two arbitrary vertices of the height-m tree."""
    (du, pu), (dv, pv) = u, v
    if du > dv:
        du, pu, dv, pv = dv, pv, du, pu
    pv_lifted = ((pv - 1) >> (dv - du)) + 1
    if pu == pv_lifted:
        return du, pu
    depth = du - ((pu - 1) ^ (pv_lifted - 1)).bit_length()
    return depth, ((pu - 1) >> (du - depth)) + 1


def is_ancestor(u: Vertex, v: Vertex) -> bool:
    """True iff u is an ancestor of v (every vertex is its own ancestor)."""
    (du, pu), (dv, pv) = u, v
    return du <= dv and ((pv - 1) >> (dv - du)) == pu - 1


class InducedTree:
    """Subtree induced by a leaf set: all pairwise common ancestors.

    Vertices are ambient (depth, position) pairs; parent links connect each
    vertex to its nearest induced proper ancestor. Induced trees are small
    (at most 2|X| - 1 vertices), so they are stored explicitly.
    """

    def __init__(self, height: int, leaf_set):
        leaves = tuple(sorted(set(leaf_set)))
        if not leaves:
            raise EmptySetError("induced subtree of an empty leaf set")
        for leaf in leaves:
            _check_leaf(height, leaf)
        verts = {(height, leaf) for leaf in leaves}
        for i, a in enumerate(leaves):
            for b in leaves[i + 1 :]:
                verts.add(leaf_ancestor(height, a, b))
        self.height = height
        self.leaf_set = leaves
        self.vertices = tuple(sorted(verts))
        self.root = common_ancestor(height, leaves)
        self.parent = {}
        for v in self.vertices:
            best = None
            for u in self.vertices:
                if u != v and is_ancestor(u, v) and (best is None or u[0] > best[0]):
                    best = u
            if best is not None:
                self.parent[v] = best
        self.children = {v: [] for v in self.vertices}
        for v, p in self.parent.items():
            self.children[p].append(v)
        for kids in self.children.values():
            kids.sort(key=lambda v: v[1])

    def __eq__(self, other):
        if not isinstance(other, InducedTree):
            return NotImplemented
        return (
            self.height == other.height
            and self.vertices == other.vertices
            and self.root == other.root
            and self.parent == other.parent
        )

    def __repr__(self):
        return f"InducedTree(height={self.height}, leaves={self.leaf_set})"

    def depth_of(self, v: Vertex) -> int:
        """Depth of an induced vertex within the induced tree."""
        depth = 0
        while v in self.parent:
            v = self.parent[v]
            depth += 1
        return depth

    def internal_vertices(self) -> tuple[Vertex, ...]:
        return tuple(v for v in self.vertices if self.children[v])

    def perfect_height(self) -> int | None:
        """Height when this is a perfect binary tree, else None."""
        depths = set()
        for v in self.vertices:
            kids = self.children[v]
            if len(kids) not in (0, 2):
                return None
            if not kids:
                depths.add(self.depth_of(v))
        if len(depths) != 1:
            return None
        h = depths.pop()
        return h if len(self.vertices) == (1 << (h + 1)) - 1 else None


def induced_subtree(m: int, leaf_set) -> InducedTree:
    return InducedTree(m, leaf_set)


def levels_leafset(m: int, depths) -> tuple[int, ...]:
    """Leaf set whose induced subtree is perfect with internal depths in Z.

    Returns the 2^|Z| leaves 1 + sum of chosen powers 2^(m-1-z); the induced
    subtree has height |Z| and every internal vertex sits at an ambient depth
    in Z.
    """
    z_sorted = tuple(sorted(set(depths)))
    for z in z_sorted:
        if not 0 <= z < m:
            raise DepthOutOfRangeError(f"depth {z} outside 0..{m - 1}")
    leaves = [1]
    for z in z_sorted:
        offset = 1 << (m - 1 - z)
        leaves += [leaf + offset for leaf in leaves]
    return tuple(sorted(leaves))


@dataclass(frozen=True)
class LabeledBinaryTree:
    """Perfect binary tree with a sign vector on every non-leaf vertex."""

    height: int
    dim: int
    labels: dict[Vertex, SignVector]

    def __post_init__(self):
        if self.height < 0:
            raise ValueError("height must be non-negative")
        expected = (1 << self.height) - 1
        if len(self.labels) != expected:
            raise ValueError(f"need {expected} labels, got {len(self.labels)}")
        for (depth, pos), label in self.labels.items():
            if not (0 <= depth < self.height and 1 <= pos <= 1 << depth):
                raise ValueError(f"({depth}, {pos}) is not a non-leaf vertex")
            if len(label) != self.dim:
                raise ValueError("label dimension mismatch")

    def label(self, v: Vertex) -> SignVector:
        return self.labels[v]

    def leaf_label(self, a: int, b: int) -> SignVector:
        """Label of the common ancestor of two distinct leaves."""
        return self.labels[leaf_ancestor(self.height, a, b)]


def is_layered(tree: LabeledBinaryTree, induced: InducedTree):
    """Per-depth label list when the induced labeling is layered, else None.

    The induced tree must be a perfect binary tree (NotPerfectError
    otherwise); its internal vertices inherit labels from the ambient tree.
    """
    h = induced.perfect_height()
    if h is None:
        raise NotPerfectError("induced tree is not a perfect binary tree")
    per_depth: dict[int, SignVector] = {}
    for v in induced.internal_vertices():
        depth = induced.depth_of(v)
        label = tree.label(v)
        if per_depth.setdefault(depth, label) != label:
            return None
    return [per_depth[q] for q in range(h)]


def is_perfect_leafset(tree: LabeledBinaryTree, leaf_set) -> bool:
    """True iff the leaves induce a perfect binary tree with a layered labeling."""
    leaves = tuple(leaf_set)
    if not leaves:
        raise EmptySetError("empty leaf set")
    induced = induced_subtree(tree.height, leaves)
    if induced.perfect_height() is None:
        return False
    return is_layered(tree, induced) is not None
