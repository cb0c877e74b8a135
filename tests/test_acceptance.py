"""Acceptance gate: one test per criterion, exact tolerances, one printed
PASS/FAIL line each (visible under `pytest -s`)."""

import random
import time
from contextlib import contextmanager

from treewiener.compose import replay_family
from treewiener.formulas import (
    d_binfib,
    d_binfib_convolution,
    d_binfib_recurrence,
    d_fib,
    d_fib_convolution,
    d_fib_recurrence,
    wiener_binfib,
    wiener_binfib_literal,
    wiener_binomial,
    wiener_binomial_recurrence,
    wiener_fib,
    wiener_fib_op_count,
)
from treewiener.oracle import distance_sum, wiener_bfs, wiener_linear
from treewiener.trees import (
    TreeFamily,
    binary_fibonacci_tree,
    binomial_tree,
    fibonacci_tree,
    generate,
    node_count,
)

from helpers import random_tree


@contextmanager
def criterion(num: int, title: str):
    try:
        yield
    except BaseException:
        print(f"criterion {num}: FAIL - {title}")
        raise
    print(f"criterion {num}: PASS - {title}")


def climb_distance(tree, u: int, v: int) -> int:
    """Pair distance by walking parent pointers only; independent of the
    BFS oracle it is used to double-check."""
    def depth(x):
        d = 0
        while tree.parent[x] is not None:
            x = tree.parent[x]
            d += 1
        return d

    du, dv = depth(u), depth(v)
    dist = 0
    while du > dv:
        u, du, dist = tree.parent[u], du - 1, dist + 1
    while dv > du:
        v, dv, dist = tree.parent[v], dv - 1, dist + 1
    while u != v:
        u, v, dist = tree.parent[u], tree.parent[v], dist + 2
    return dist


def test_criterion_1_binomial_closed_form():
    with criterion(1, "binomial closed form = oracle (k<=12) and "
                      "= recurrence = replay (k<=200), exact"):
        start = time.perf_counter()
        for k in range(13):
            assert wiener_binomial(k) == wiener_bfs(binomial_tree(k)), f"k={k}"
        for k in range(201):
            w = wiener_binomial(k)
            assert w == wiener_binomial_recurrence(k), f"k={k}"
            assert w == replay_family(TreeFamily.BINOMIAL, k).w, f"k={k}"
        assert time.perf_counter() - start < 60


def test_criterion_2_fibonacci_wiener():
    with criterion(2, "fibonacci Wiener recurrence = oracle (k=1..18), "
                      "anchors W(1)=1 W(2)=4, exact"):
        start = time.perf_counter()
        assert wiener_fib(1) == 1
        assert wiener_fib(2) == 4
        for k in range(1, 19):
            assert wiener_fib(k) == wiener_bfs(fibonacci_tree(k)), f"k={k}"
        assert time.perf_counter() - start < 120


def test_criterion_3_fibonacci_distance_sums():
    with criterion(3, "fibonacci distance sum: closed form = oracle "
                      "(k<=18) = recurrence = convolution (k<=300), "
                      "divisible by 5 throughout, exact"):
        start = time.perf_counter()
        for k in range(19):
            t = fibonacci_tree(k)
            assert d_fib(k) == distance_sum(t, t.root), f"k={k}"
        fibs = [0, 1]
        for _ in range(302):
            fibs.append(fibs[-1] + fibs[-2])
        for k in range(301):
            assert (k * fibs[k + 2] + (k + 2) * fibs[k]) % 5 == 0, f"k={k}"
            closed = d_fib(k)
            assert closed == d_fib_recurrence(k), f"k={k}"
            assert closed == d_fib_convolution(k), f"k={k}"
        assert time.perf_counter() - start < 30


def test_criterion_4_binary_fibonacci_distance_sums():
    with criterion(4, "binary fibonacci distance sum: closed form = oracle "
                      "(k<=18) = recurrence = convolution (k<=300), "
                      "anchors D(1)=0 D(2)=1, exact"):
        start = time.perf_counter()
        assert d_binfib(1) == 0
        assert d_binfib(2) == 1
        for k in range(1, 19):
            t = binary_fibonacci_tree(k)
            assert d_binfib(k) == distance_sum(t, t.root), f"k={k}"
        for k in range(1, 301):
            closed = d_binfib(k)
            assert closed == d_binfib_recurrence(k), f"k={k}"
            assert closed == d_binfib_convolution(k), f"k={k}"
        assert time.perf_counter() - start < 30


def test_criterion_5_literal_recurrence_quarantined():
    with criterion(5, "corrected binary-fibonacci recurrence = oracle "
                      "(k=1..18); literal printed form mismatches at k=3 "
                      "(5 vs 10, re-derived by pair enumeration)"):
        for k in range(1, 19):
            assert wiener_binfib(k) == wiener_bfs(binary_fibonacci_tree(k)), f"k={k}"
        t3 = binary_fibonacci_tree(3)
        pair_sum = sum(climb_distance(t3, u, v)
                       for u in range(t3.n) for v in range(u + 1, t3.n))
        assert pair_sum == 10
        assert wiener_binfib_literal(3) == 5
        assert wiener_binfib_literal(3) != pair_sum


def test_criterion_6_linear_oracle_cross_validation():
    with criterion(6, "edge-contribution Wiener = BFS Wiener on 500 random "
                      "trees, n <= 1000, exact"):
        start = time.perf_counter()
        rng = random.Random(271828)
        for i in range(500):
            t = random_tree(rng, rng.randint(1, 1000))
            assert wiener_linear(t) == wiener_bfs(t), f"tree {i} (n={t.n})"
        assert time.perf_counter() - start < 60


def test_criterion_7_composition_algebra_soundness():
    with criterion(7, "replay summaries = (count, BFS Wiener, root distance "
                      "sum) for every family order with <= 5000 nodes"):
        for family in TreeFamily:
            k = family.spec.min_summary_order
            while node_count(family, k) <= 5000:
                tree = generate(family, k)
                s = replay_family(family, k)
                assert s.n == tree.n, f"{family.value} k={k}"
                assert s.w == wiener_bfs(tree), f"{family.value} k={k}"
                assert s.d_anchor == distance_sum(tree, tree.root), f"{family.value} k={k}"
                k += 1


def test_criterion_8_logarithmic_cost_property():
    with criterion(8, "fibonacci Wiener evaluator cost grows linearly in k "
                      "(ratios within 10%) and k=500 runs under 1 s"):
        counts = {k: wiener_fib_op_count(k) for k in (100, 200, 400, 800)}
        for small, big in ((100, 200), (200, 400), (400, 800)):
            observed = counts[big] / counts[small]
            expected = big / small
            assert abs(observed - expected) <= 0.1 * expected, (
                f"ops({big})/ops({small}) = {observed:.3f}"
            )
        start = time.perf_counter()
        wiener_fib(500)
        assert time.perf_counter() - start < 1.0
