"""Ground-truth distance computations on materialized trees.

Two independent routes to the Wiener index:

* wiener_bfs: a breadth-first search from every vertex, summing all
  pairwise distances directly from the definition.  O(n^2) source-vertex
  pairs, the court of last resort.  The searches run together,
  SOURCES_PER_SWEEP of them per sweep, one bit per source in a Python int
  per vertex (multi-source BFS: Then et al., "The More the Merrier:
  Efficient Multi-Source Graph Traversal", PVLDB 8(4), 2014), so searches
  that reach a vertex at the same step share that step.  The sources go
  in depth-first preorder, and each search starts as many steps into its
  sweep as its source is shallower than the sweep's deepest, so all the
  searches from one subtree reach the subtree's root at the same step and
  go on from there together.
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
# holds the tracemalloc peak on the 2584-node Fibonacci tree under 0.8 MB,
# which the next width, 1024, exceeds.  With staggered starts (Python
# 3.11, best of 5 wiener_bfs calls on the three 2048-2584-node trees of a
# verify sweep: binomial 11, Fibonacci 16, binary Fibonacci 16):
#
#   width   Fibonacci-16 peak   binomial   Fibonacci   binary Fibonacci
#    256         0.53 MB        14.5 ms     26.0 ms        32.4 ms
#    512         0.65 MB        11.5 ms     16.9 ms        26.2 ms
#   1024         0.89 MB        10.2 ms     14.2 ms        23.0 ms
SOURCES_PER_SWEEP = 512


def _distance_total(tree: RootedTree, sources: Sequence[int], starts: Sequence[int]) -> int:
    """Sum of d(s, x) over every source s and every vertex x, by a
    breadth-first search from each source, SOURCES_PER_SWEEP at a time;
    the search from sources[i] starts starts[i] steps into its sweep.

    In a sweep, bit i of reach[v] is set once source i has reached v, and
    frontier[v] holds the bits that arrived at v at the current step;
    active lists the vertices whose frontier is not empty.  A step first
    adds the sources that start at it, then ORs the frontier of every
    active vertex into arriving[] at each of its neighbours (its children
    and its parent), so a vertex collects the OR of its neighbours'
    frontiers.  It masks out its reach, and the bits left are the searches
    that reach it at the next step: its new frontier.  A search that starts
    at step t reaches a vertex at distance d at step t + d, so the total is
    the sum of step times arrivals less n - 1 times each start, once each
    search has reached all n - 1 other vertices; each sweep checks that it
    has, which holds on any connected adjacency, and raises ValueError
    otherwise.  Every search keeps its own visited set and its own
    level-order frontier, and no step relies on the graph being a tree, so
    on any connected adjacency this returns graph distances.  A frontier
    is cleared as soon as it has been sent on, so at most about one step's
    bits are alive besides reach, and a vertex that hears from one
    neighbour only holds that neighbour's frontier itself, not a copy made
    by OR-ing it into zero.

    A step costs one operation per edge at an active vertex, shared by
    every search of the sweep that reached that vertex at that step, so
    the starts decide how much is shared: wiener_bfs staggers them so that
    a subtree's searches merge at its root.
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
    for first in range(0, len(sources), SOURCES_PER_SWEEP):
        sweep = sources[first:first + SOURCES_PER_SWEEP]
        begin = starts[first:first + SOURCES_PER_SWEEP]
        # The sweep's searches by start, latest first, so the next to
        # start is last.
        pending = sorted(range(len(sweep)), key=begin.__getitem__, reverse=True)
        reach = [0] * n
        active = []
        step = 0
        arrivals = 0
        while active or pending:
            while pending and begin[pending[-1]] == step:
                i = pending.pop()
                s = sweep[i]
                reach[s] |= 1 << i
                if frontier[s]:
                    frontier[s] |= 1 << i
                else:
                    frontier[s] = 1 << i
                    active.append(s)
            step += 1
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
            total += step * arrived
            arrivals += arrived
        if arrivals != (n - 1) * len(sweep):
            raise ValueError("the tree is not connected: a search missed a vertex")
        total -= (n - 1) * sum(begin)
    return total


def distance_sum(tree: RootedTree, v: int) -> int:
    """Sum of d(v, x) over every node x of the tree, by a search from v."""
    if tree.n == 0:
        raise EmptyTreeError("distance_sum needs at least one node")
    if not isinstance(v, int) or not 0 <= v < tree.n:
        raise UnknownNodeError(f"node {v!r} not in tree of {tree.n} nodes")
    return _distance_total(tree, [v], [0])


def wiener_bfs(tree: RootedTree) -> int:
    """Wiener index by breadth-first search from every vertex (quadratic
    oracle): half the sum of every source's distance sum.

    The n searches run in sweeps of SOURCES_PER_SWEEP (see
    _distance_total), n^2 source-vertex pairs in all.  The sources are
    taken in the tree's preorder, so a sweep's sources are a run of it,
    mostly whole subtrees, and the search from s starts D - depth(s) steps
    into its sweep, D the greatest depth among the sweep's sources.  It
    then reaches s's ancestor at depth a at step D - a, whatever s is:
    every search from a subtree leaves the subtree's root at the same step,
    and as every path out of the subtree starts there, they reach each
    vertex outside it at the same step too.  A search from s reaches x at
    step D + depth(x) - 2 depth(a), a the deepest common ancestor of s and
    x, so x is active at no more than depth(x) + 1 steps of a sweep, and
    the families, whose depth is O(log n), share most steps.  A long path
    rooted at one end shares only the steps toward the root: on 3000
    vertices this takes about as long as one search at a time (the tests'
    reference), 2.0 against 2.1-2.5 s.  A tree that is not connected raises
    ValueError (see _distance_total).
    """
    if tree.n == 0:
        raise EmptyTreeError("wiener_bfs needs at least one node")
    order, parent = tree.preorder(), tree.parent
    depth = [0] * tree.n
    for u in order[1:]:  # each after its parent; the root is order[0]
        depth[u] = depth[parent[u]] + 1
    starts = []
    for first in range(0, len(order), SOURCES_PER_SWEEP):
        sweep = [depth[u] for u in order[first:first + SOURCES_PER_SWEEP]]
        deepest = max(sweep)
        starts += [deepest - d for d in sweep]
    total = _distance_total(tree, order, starts)
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
