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
"""

from dataclasses import dataclass

from treewiener.errors import InvalidOrderError
from treewiener.trees import TreeFamily


@dataclass(frozen=True)
class TreeSummary:
    """(vertex count, Wiener index, anchored distance sum) of some tree."""

    n: int
    w: int
    d_anchor: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"summary needs n >= 1, got {self.n}")
        if self.w < 0 or self.d_anchor < 0:
            raise ValueError("w and d_anchor must be >= 0")
        if self.n == 1 and (self.w != 0 or self.d_anchor != 0):
            raise ValueError("a single vertex has w = 0 and d_anchor = 0")

    def astuple(self) -> tuple:
        return (self.n, self.w, self.d_anchor)


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
    farther from u than from b's anchor, hence d_anchor gains b.n.
    """
    return TreeSummary(
        n=a.n + b.n,
        w=a.w + b.w + a.n * b.d_anchor + b.n * a.d_anchor + a.n * b.n,
        d_anchor=a.d_anchor + b.d_anchor + b.n,
    )


def replay_family(family: TreeFamily, k: int) -> TreeSummary:
    """Summary of the order-k family tree (anchor = root), in O(k) joins.

    Binomial: each order joins the tree onto itself at the roots.
    Fibonacci: order k joins order k-1 (keeps the root) with order k-2.
    Binary Fibonacci: order k hangs order k-1 and order k-2 under a fresh
    root, one join each; the empty order-0 operand is skipped.  Order 0
    itself has no summary (no anchor), so k >= 1 here.
    """
    floor = family.spec.min_summary_order
    if k < floor:
        raise InvalidOrderError(
            f"{family.value} summaries need order >= {floor}, got {k}"
        )
    if family is TreeFamily.BINOMIAL:
        s = SINGLE
        for _ in range(k):
            s = join(s, s)
        return s

    if family is TreeFamily.FIBONACCI:
        prev, cur = SINGLE, SINGLE  # orders k-2, k-1 rolling forward
        for _ in range(max(k, 0)):
            prev, cur = cur, join(cur, prev)
        return cur

    prev, cur = None, SINGLE  # orders i-2 (None = empty), i-1
    for _ in range(k - 1):
        rooted = join(SINGLE, cur)
        prev, cur = cur, (rooted if prev is None else join(rooted, prev))
    return cur
