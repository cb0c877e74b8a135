import random

import pytest

from treewiener.compose import (
    SINGLE,
    TreeSummary,
    _minimal_recurrence,
    identify,
    join,
    replay_family,
    replay_w,
)
from treewiener.errors import InvalidOrderError, NotDivisibleError
from treewiener.oracle import distance_sum, wiener_bfs
from treewiener.trees import TreeFamily, generate, node_count

from helpers import random_tree


def summary_of(tree, anchor) -> TreeSummary:
    return TreeSummary(tree.n, wiener_bfs(tree), distance_sum(tree, anchor))


def random_summary(rng) -> TreeSummary:
    t = random_tree(rng, rng.randint(1, 40))
    return summary_of(t, rng.randrange(t.n))


EDGE = TreeSummary(2, 1, 1)  # single edge anchored at one endpoint


def test_summary_validation():
    with pytest.raises(ValueError):
        TreeSummary(0, 0, 0)
    with pytest.raises(ValueError):
        TreeSummary(3, -1, 0)
    with pytest.raises(ValueError):
        TreeSummary(1, 1, 0)
    # namedtuple's _make and _replace must not bypass the checks
    with pytest.raises(ValueError, match="summary needs n >= 1, got 0"):
        TreeSummary._make((0, 5, 5))
    with pytest.raises(ValueError, match="a single vertex has w = 0"):
        SINGLE._replace(w=7)
    assert EDGE._replace(n=3, w=4, d_anchor=2) == TreeSummary(3, 4, 2)
    assert SINGLE.astuple() == (1, 0, 0)


def test_identify_anchors():
    assert identify(SINGLE, SINGLE).astuple() == (1, 0, 0)
    assert identify(EDGE, EDGE).astuple() == (3, 4, 2)
    # gluing an edge onto a 3-path at its center: 4-node star, W enumerated
    # by hand as 3 * 1 + 3 * 2 = 9
    assert identify(EDGE, TreeSummary(3, 4, 2)).astuple() == (4, 9, 3)


def test_join_anchors():
    assert join(SINGLE, SINGLE).astuple() == (2, 1, 1)
    assert join(EDGE, SINGLE).astuple() == (3, 4, 2)
    assert join(TreeSummary(4, 10, 4), EDGE).astuple() == (6, 31, 7)


def test_join_matches_materialized_tree():
    # the {6, 31, 7} anchor above, reproduced on a real tree: order-2
    # binomial tree (root-anchored) joined to a path of two
    from treewiener.trees import RootedTree

    t = RootedTree.from_parents([None, 0, 1, 0, 0, 4])
    assert wiener_bfs(t) == 31
    assert distance_sum(t, 0) == 7


def test_identify_commutes():
    rng = random.Random(11)
    for _ in range(50):
        a, b = random_summary(rng), random_summary(rng)
        assert identify(a, b) == identify(b, a)


def test_join_commutes_in_n_and_w_only():
    rng = random.Random(12)
    for _ in range(50):
        a, b = random_summary(rng), random_summary(rng)
        ab, ba = join(a, b), join(b, a)
        assert ab.n == ba.n
        assert ab.w == ba.w
        assert ab.d_anchor - ba.d_anchor == b.n - a.n


def test_pendant_attachment_two_ways():
    # Gluing an anchored edge onto a vertex is the same as joining a fresh
    # leaf to it.
    rng = random.Random(13)
    for _ in range(50):
        a = random_summary(rng)
        assert identify(a, EDGE) == join(a, SINGLE)


@pytest.mark.parametrize("family,k,expected", [
    (TreeFamily.FIBONACCI, 2, (3, 4, 2)),
    (TreeFamily.BINOMIAL, 2, (4, 10, 4)),
    (TreeFamily.BINARY_FIBONACCI, 4, (7, 50, 11)),
])
def test_replay_anchors(family, k, expected):
    assert replay_family(family, k).astuple() == expected


def test_replay_base_orders():
    assert replay_family(TreeFamily.BINOMIAL, 0) == SINGLE
    assert replay_family(TreeFamily.FIBONACCI, -1) == SINGLE
    assert replay_family(TreeFamily.FIBONACCI, 0) == SINGLE
    assert replay_family(TreeFamily.BINARY_FIBONACCI, 1) == SINGLE


def test_replay_invalid_orders():
    with pytest.raises(InvalidOrderError):
        replay_family(TreeFamily.BINOMIAL, -1)
    with pytest.raises(InvalidOrderError):
        replay_family(TreeFamily.FIBONACCI, -2)
    with pytest.raises(InvalidOrderError):
        replay_family(TreeFamily.BINARY_FIBONACCI, 0)


def test_replay_matches_oracles_small_orders():
    for family in TreeFamily:
        k = family.spec.min_summary_order
        while node_count(family, k) <= 600:
            tree = generate(family, k)
            s = replay_family(family, k)
            assert s.n == tree.n
            assert s.w == wiener_bfs(tree)
            assert s.d_anchor == distance_sum(tree, tree.root)
            k += 1


def test_replay_summaries_respect_coarse_bounds():
    for family in TreeFamily:
        start = family.spec.min_summary_order
        for k in range(start, start + 40):
            s = replay_family(family, k)
            assert s.d_anchor <= (s.n - 1) ** 2
            assert s.w <= (s.n**3 - s.n) // 6


def test_replay_w_equals_replay_family():
    for family in TreeFamily:
        floor = family.spec.min_summary_order
        for k in [*range(floor, floor + 201), 1000, 3000]:
            assert replay_w(family, k) == replay_family(family, k).w, f"{family.value} k={k}"
        with pytest.raises(InvalidOrderError):
            replay_w(family, floor - 1)


def test_minimal_recurrence():
    assert _minimal_recurrence([0, 1, 1, 2, 3, 5, 8, 13]) == [1, 1]
    assert _minimal_recurrence([1, 3, 9, 27, 81, 243]) == [3]
    assert _minimal_recurrence([1, 2, 3, 4, 5, 6]) == [2, -1]
    assert _minimal_recurrence([5, 0, 0, 0, 0, 0]) == [0]
    assert _minimal_recurrence([0, 0, 0, 5, 0, 0, 0]) == [0, 0, 0, 5]
    # Each term half the last: the one coefficient is 1/2.
    with pytest.raises(NotDivisibleError):
        _minimal_recurrence([4, 2, 1])
