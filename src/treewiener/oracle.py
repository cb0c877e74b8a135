"""Ground-truth distance computations on materialized trees.

Two independent routes to the Wiener index:

* wiener_bfs: a breadth-first search from every vertex, summing all
  pairwise distances directly from the definition.  O(n^2) source-vertex
  pairs, the court of last resort.  The searches run together,
  SOURCES_PER_SWEEP of them per sweep, one bit per source in a Python int
  per vertex (multi-source BFS: Then et al., "The More the Merrier:
  Efficient Multi-Source Graph Traversal", PVLDB 8(4), 2014), so sources
  that reach a vertex at the same depth share each step.
* wiener_linear: one bottom-up pass; the edge to v's parent separates the
  tree into v's subtree (size s) and the rest (n - s) and contributes
  s * (n - s) shortest paths of weight 1 each.  O(n).

Everything accumulates in Python ints, so results stay exact at any size.
"""

from operator import mul
from typing import Sequence

from treewiener.errors import EmptyTreeError, UnknownNodeError
from treewiener.trees import RootedTree

# Searches carried by one sweep, one bit each.  A wider sweep shares each
# step among more searches and runs fewer sweeps, but holds an int of up to
# this many bits per vertex, so memory sets the width: tests/test_oracle.py
# holds the peak on the 2584-node Fibonacci tree under 0.8 MB, which the
# next width, 1024, exceeds.  Times and peaks per width are in CHANGES.md
# (the entry on wider BFS sweeps) and BENCH_10.json.
SOURCES_PER_SWEEP = 512


def _distance_total(tree: RootedTree, sources: Sequence[int]) -> int:
    """Sum of d(s, x) over every source s and every vertex x, by a
    breadth-first search from each source, SOURCES_PER_SWEEP at a time.

    In a sweep, bit i of reach[v] is set once source i has reached v, and
    frontier[v] holds the bits that arrived at v at the current depth;
    active lists the vertices whose frontier is not empty.  Each level ORs
    the frontier of every active vertex into arriving[] at each of its
    neighbours (its children and its parent), so a vertex collects the OR
    of its neighbours' frontiers.  It masks out its reach, and the bits
    left are the searches that reach it one level deeper: its new frontier,
    which adds depth times its bit count to the total.  Every search keeps
    its own visited set and its own level-order frontier, and no step
    relies on the graph being a tree, so on any adjacency this returns
    graph distances.  A frontier is cleared as soon as it has been sent on,
    so at most about one level's bits are alive besides reach, and a vertex
    that hears from one neighbour only holds that neighbour's frontier
    itself, not a copy made by OR-ing it into zero.

    A level costs one step per edge at an active vertex, shared by every
    search of the sweep that reached that vertex at that depth.  On the
    three families, whose diameter is O(log n), the searches of a sweep
    meet each vertex at a few common depths, so most steps are shared and
    a wider sweep saves steps.  On a long path at most two searches of a
    sweep reach a vertex at the same depth: little is shared, the width
    barely matters, and the bookkeeping of a level makes the whole slower
    than one search at a time (see wiener_bfs).
    """
    n = tree.n
    # A list per node, whose leaves share one, spares the inner loop a
    # slice of the flat child array at every step.  No tuple per node is
    # made: freed small tuples stay on the interpreter's free lists, which
    # kept about 0.4 MB past a verify sweep.  The root's parent is
    # ROOT_PARENT, below every id.
    children, parent = tree.children, tree.parent
    frontier = [0] * n  # both all zero between sweeps
    arriving = [0] * n
    total = 0
    for start in range(0, len(sources), SOURCES_PER_SWEEP):
        sweep = sources[start:start + SOURCES_PER_SWEEP]
        reach = [0] * n
        for i, s in enumerate(sweep):
            reach[s] |= 1 << i
            frontier[s] = reach[s]
        active = list(sweep)
        depth = 0
        while active:
            depth += 1
            touched = []
            for u in active:
                bits = frontier[u]
                frontier[u] = 0
                p = parent[u]
                if p >= 0:
                    a = arriving[p]
                    if a:
                        arriving[p] = a | bits
                    else:
                        touched.append(p)
                        arriving[p] = bits
                for c in children[u]:
                    a = arriving[c]
                    if a:
                        arriving[c] = a | bits
                    else:
                        touched.append(c)
                        arriving[c] = bits
            active = []
            arrived = 0
            for v in touched:
                bits = arriving[v] & ~reach[v]
                arriving[v] = 0
                if bits:
                    reach[v] |= bits
                    frontier[v] = bits
                    active.append(v)
                    arrived += bits.bit_count()
            total += depth * arrived
    return total


def distance_sum(tree: RootedTree, v: int) -> int:
    """Sum of d(v, x) over every node x of the tree, by a search from v."""
    if tree.n == 0:
        raise EmptyTreeError("distance_sum needs at least one node")
    if not isinstance(v, int) or not 0 <= v < tree.n:
        raise UnknownNodeError(f"node {v!r} not in tree of {tree.n} nodes")
    return _distance_total(tree, [v])


def wiener_bfs(tree: RootedTree) -> int:
    """Wiener index by breadth-first search from every vertex (quadratic
    oracle): half the sum of every source's distance sum.

    The n searches run in sweeps of SOURCES_PER_SWEEP (see _distance_total),
    n^2 source-vertex pairs in all.  A long path is the worst case: the
    searches of a sweep share almost no step there, and it runs slower than
    one search at a time (the tests' reference).  Measurements are in
    CHANGES.md and BENCH_10.json.
    """
    if tree.n == 0:
        raise EmptyTreeError("wiener_bfs needs at least one node")
    total = _distance_total(tree, range(tree.n))
    assert total % 2 == 0, "sum of all distance sums must be even"
    return total // 2


def wiener_linear(tree: RootedTree) -> int:
    """Wiener index by edge contributions in one bottom-up pass (linear):
    the ids counting down when every parent id is below its child's, as in
    every generated tree, else a walk from the root, reversed.  The pass
    only adds each subtree size into its parent's; the contributions
    s * (n - s) over the non-root sizes s are then summed in C, as
    n * sum(s) - sum(s * s), with the root's size set to 0."""
    if tree.n == 0:
        raise EmptyTreeError("wiener_linear needs at least one node")
    n = tree.n
    parent = tree.parent
    sizes = [1] * n
    for u in tree.bottom_up():
        sizes[parent[u]] += sizes[u]
    sizes[tree.root] = 0
    return n * sum(sizes) - sum(map(mul, sizes, sizes))
