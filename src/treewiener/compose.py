"""Summary algebra for composing Wiener indices without building trees.

A tree is summarized by the triple (n, w, d_anchor): vertex count, Wiener
index, and the distance sum from a designated anchor vertex.  Two classic
composition rules close over such triples:

* identify(a, b): glue the two anchors into one shared vertex.
* join(a, b): connect the two anchors by a new edge (result anchored at a's
  anchor).

Replaying a family's recursive construction with join then yields the exact
(n, W, D_root) of the order-k tree in O(k) integer operations, which is the
cross-check used against both the closed forms and the brute-force oracles.
The construction rules themselves live with the families, as the grow field
of treewiener.trees.FamilySpec, and FamilySpec.build is the one loop that
runs them, here on summaries and in trees.generate on the trees themselves;
this module knows no family by name.
"""

from collections import namedtuple

from treewiener.errors import InvalidOrderError


class TreeSummary(namedtuple("TreeSummary", "n w d_anchor")):
    """(vertex count, Wiener index, anchored distance sum) of some tree: an
    immutable tuple, equal to the plain tuple (n, w, d_anchor)."""

    __slots__ = ()

    def __new__(cls, n: int, w: int, d_anchor: int):
        if n < 1:
            raise ValueError(f"summary needs n >= 1, got {n}")
        if w < 0 or d_anchor < 0:
            raise ValueError("w and d_anchor must be >= 0")
        if n == 1 and (w != 0 or d_anchor != 0):
            raise ValueError("a single vertex has w = 0 and d_anchor = 0")
        return tuple.__new__(cls, (n, w, d_anchor))

    @classmethod
    def _make(cls, iterable):
        """namedtuple's _make, which _replace calls, skips __new__ and so
        the checks above; build through __new__ instead."""
        return cls(*iterable)

    def astuple(self) -> tuple:
        return tuple(self)


SINGLE = TreeSummary(1, 0, 0)


def identify(a: TreeSummary, b: TreeSummary) -> TreeSummary:
    """Summary of the tree obtained by gluing the two anchor vertices.

    The shared vertex u contributes distances into both parts, so every
    pairing of a non-u vertex on one side with a path through u on the other
    shows up as (count - 1) * opposite distance sum.  Anchor of the result
    is u itself.
    """
    return TreeSummary(
        n=a.n + b.n - 1,
        w=a.w + b.w + (a.n - 1) * b.d_anchor + (b.n - 1) * a.d_anchor,
        d_anchor=a.d_anchor + b.d_anchor,
    )


def join(a: TreeSummary, b: TreeSummary) -> TreeSummary:
    """Summary of the tree obtained by adding an edge between the anchors.

    Every cross pair travels the new edge once, hence the extra n_a * n_b.
    The result is anchored at a's anchor u; each b-vertex sits one edge
    farther from u than from b's anchor, hence d_anchor gains b.n.  The
    cross pairs' distances sum to a.n * (b.d_anchor + b.n) + b.n * a.d_anchor,
    two multiplications, and b.d_anchor + b.n is also the distance sum from
    u to b's side, so the new anchor sum reuses it.
    """
    b_from_u = b.d_anchor + b.n
    return TreeSummary(
        n=a.n + b.n,
        w=a.w + b.w + a.n * b_from_u + b.n * a.d_anchor,
        d_anchor=a.d_anchor + b_from_u,
    )


def _join_nonempty(a: TreeSummary, b) -> TreeSummary:
    """join(a, b), where b = None, the empty tree, leaves a as it is; join
    is looked up at call time, so replacing it reaches replay."""
    return a if b is None else join(a, b)


def replay_family(family, k: int) -> TreeSummary:
    """Summary of the order-k tree of a trees.TreeFamily (anchor = root).

    The family's FamilySpec.build on summaries: the single vertex at
    min_summary_order, None, the empty tree, one order below it, and the
    grow rule once per order up to k: O(k) joins.
    """
    floor = family.spec.min_summary_order
    if k < floor:
        raise InvalidOrderError(
            f"{family.value} summaries need order >= {floor}, got {k}"
        )
    return family.spec.build(k, _join_nonempty, SINGLE, None)
