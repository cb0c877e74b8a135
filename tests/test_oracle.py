import random
import tracemalloc
from array import array

import pytest

from treewiener.errors import EmptyTreeError, UnknownNodeError
from treewiener.oracle import (
    SOURCES_PER_SWEEP,
    _distance_total,
    distance_sum,
    wiener_bfs,
    wiener_linear,
)
from treewiener.trees import (
    RootedTree,
    binary_fibonacci_tree,
    binomial_tree,
    fibonacci_tree,
)

from helpers import (
    adjacency,
    bfs_distance_sum,
    path_tree,
    random_tree,
    relabel,
    star_tree,
)


def test_wiener_bfs_anchors():
    assert wiener_bfs(RootedTree.single()) == 0
    assert wiener_bfs(path_tree(3)) == 4  # pair distances 1 + 1 + 2
    assert wiener_bfs(binomial_tree(2)) == 10  # all 6 pair distances by hand


# With 512 searches per sweep: 1, 2, 255, 256 and 257 vertices, one sweep
# about half full; 511, 512 and 513, one sweep short of full, full and one
# past; and 1025, a third sweep of one search.
SWEEP_SIZES = [1, 2, 255, 256, 257, SOURCES_PER_SWEEP - 1, SOURCES_PER_SWEEP,
               SOURCES_PER_SWEEP + 1, 2 * SOURCES_PER_SWEEP + 1]
SHAPES = {"random": random_tree,
          "path": lambda rng, n: path_tree(n),
          "star": lambda rng, n: star_tree(n)}


@pytest.mark.parametrize("n", SWEEP_SIZES)
@pytest.mark.parametrize("kind", list(SHAPES))
def test_sweeps_match_one_search_at_a_time(kind, n):
    rng = random.Random(n)
    tree = SHAPES[kind](rng, n)
    # Relabelled, the root and the sweeps' sources leave preorder.
    for t in (tree, relabel(rng, tree)):
        adj = adjacency(t)
        sums = [bfs_distance_sum(adj, v, n) for v in range(n)]
        assert [distance_sum(t, v) for v in range(n)] == sums
        assert wiener_bfs(t) * 2 == sum(sums)
        # Any order of sources and any starts give the same total: shuffled
        # sources all starting at once, and at random steps, some past the
        # end of every other search in the sweep.
        shuffled = rng.sample(range(n), n)
        for starts in ([0] * n, [rng.randrange(n + 2) for _ in range(n)]):
            assert _distance_total(t, shuffled, starts) == sum(sums)


def test_bfs_refuses_a_second_root():
    # Each search meets only its own root's component, so the arrivals
    # fall short of n - 1 per search.
    two_roots = RootedTree(2, 0, array("i", [-1, -1]), array("i"))
    with pytest.raises(ValueError, match="not connected"):
        wiener_bfs(two_roots)
    with pytest.raises(ValueError, match="not connected"):
        distance_sum(two_roots, 1)


def test_sweep_memory_stays_small():
    # A sweep keeps an int of up to SOURCES_PER_SWEEP bits per vertex, so
    # the width sets the oracle's memory: 0.65 MB here at 512, 0.89 MB at 1024.
    tree = fibonacci_tree(16)  # 2584 vertices
    tracemalloc.start()
    try:
        wiener_bfs(tree)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 800_000


def test_wiener_linear_anchors():
    assert wiener_linear(RootedTree.single()) == 0
    assert wiener_linear(path_tree(2)) == 1
    assert wiener_linear(star_tree(4)) == 9  # three edges, 1*3 each


def test_distance_sum_anchors():
    assert distance_sum(RootedTree.single(), 0) == 0
    f2 = fibonacci_tree(2)
    assert distance_sum(f2, f2.root) == 2
    bf3 = binary_fibonacci_tree(3)
    assert distance_sum(bf3, bf3.root) == 4


def test_empty_tree_rejected():
    empty = binary_fibonacci_tree(0)
    with pytest.raises(EmptyTreeError):
        wiener_bfs(empty)
    with pytest.raises(EmptyTreeError):
        wiener_linear(empty)
    with pytest.raises(EmptyTreeError):
        distance_sum(empty, 0)


def test_unknown_node_rejected():
    t = path_tree(3)
    with pytest.raises(UnknownNodeError):
        distance_sum(t, 3)
    with pytest.raises(UnknownNodeError):
        distance_sum(t, -1)


def test_linear_equals_bfs_on_random_trees():
    rng = random.Random(4242)
    for _ in range(100):
        t = random_tree(rng, rng.randint(1, 200))
        assert wiener_linear(t) == wiener_bfs(t)


def test_wiener_is_half_the_distance_sum_total():
    rng = random.Random(515)
    for _ in range(40):
        t = random_tree(rng, rng.randint(1, 120))
        total = sum(distance_sum(t, v) for v in range(t.n))
        assert total % 2 == 0
        assert wiener_bfs(t) * 2 == total


def test_extremal_bounds():
    rng = random.Random(77)
    for _ in range(60):
        n = rng.randint(2, 150)
        w = wiener_linear(random_tree(rng, n))
        assert w >= n * (n - 1) // 2
        assert (n - 1) ** 2 <= w <= (n**3 - n) // 6


def test_star_minimizes_and_path_maximizes():
    for n in range(2, 40):
        assert wiener_linear(star_tree(n)) == (n - 1) ** 2
        assert wiener_linear(path_tree(n)) == (n**3 - n) // 6
    # Equality cases are exclusive for n >= 4 (degrees read unrooted).
    rng = random.Random(31)
    for _ in range(30):
        n = rng.randint(4, 100)
        t = random_tree(rng, n)
        degrees = [t.degree(v) for v in range(n)]
        is_star = max(degrees) == n - 1
        is_path = max(degrees) <= 2
        w = wiener_linear(t)
        assert (w == (n - 1) ** 2) == is_star
        assert (w == (n**3 - n) // 6) == is_path


def test_values_exceed_float_exactness_without_loss():
    n = 500_000
    w = wiener_linear(path_tree(n))
    assert w == (n**3 - n) // 6
    assert w > 2**53  # past exact float territory; int arithmetic stays exact
