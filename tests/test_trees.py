import math
import random

import pytest

from treewiener.errors import InvalidOrderError, ParseError, ResourceLimitError
from treewiener.exact import fib
from treewiener.trees import (
    RootedTree,
    TreeFamily,
    binary_fibonacci_tree,
    binomial_tree,
    fibonacci_tree,
    generate,
    node_count,
    parse,
    serialize,
)

from helpers import random_tree, shape


def subtree_size(tree, v):
    total = 0
    stack = [v]
    while stack:
        u = stack.pop()
        total += 1
        stack.extend(tree.children[u])
    return total


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

def test_binomial_base_cases():
    t0 = binomial_tree(0)
    assert t0.n == 1 and t0.children[0] == []
    t1 = binomial_tree(1)
    assert t1.n == 2 and t1.parent.count(None) == 1


def test_binomial_order3_root_children_sizes():
    t = binomial_tree(3)
    assert t.n == 8
    sizes = [subtree_size(t, c) for c in t.children[t.root]]
    assert sizes == [4, 2, 1]


@pytest.mark.parametrize("k", range(0, 11))
def test_binomial_root_children_doubling_structure(k):
    t = binomial_tree(k)
    sizes = [subtree_size(t, c) for c in t.children[t.root]]
    assert sizes == [2 ** j for j in range(k - 1, -1, -1)]


def test_fibonacci_base_cases():
    assert fibonacci_tree(-1).n == 1
    assert fibonacci_tree(0).n == 1
    t2 = fibonacci_tree(2)
    assert t2.n == 3
    assert len(t2.children[t2.root]) == 2


def test_fibonacci_order4_count():
    assert fibonacci_tree(4).n == 8  # fib(6)


def test_binary_fibonacci_base_cases():
    t0 = binary_fibonacci_tree(0)
    assert t0.n == 0 and t0.root is None
    assert binary_fibonacci_tree(1).n == 1


def test_binary_fibonacci_order3_shape():
    # root, a left child carrying its own left child, and a right child
    t = binary_fibonacci_tree(3)
    assert t.n == 4
    root_kids = t.children[t.root]
    assert len(root_kids) == 2
    left, right = root_kids
    assert len(t.children[left]) == 1
    assert t.children[right] == []


def test_binary_fibonacci_order4_count():
    assert binary_fibonacci_tree(4).n == 7  # fib(6) - 1


def test_binary_fibonacci_degree_bound():
    for k in range(1, 16):
        t = binary_fibonacci_tree(k)
        assert max(t.degree(v) for v in range(t.n)) <= 3


# ---------------------------------------------------------------------------
# Node counts
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("family,k,expected", [
    (TreeFamily.BINOMIAL, 5, 32),
    (TreeFamily.FIBONACCI, 4, 8),
    (TreeFamily.BINARY_FIBONACCI, 4, 7),
])
def test_node_count_anchors(family, k, expected):
    assert node_count(family, k) == expected


def test_generated_counts_match_closed_form():
    for k in range(0, 19):  # up to 262144 nodes
        assert binomial_tree(k).n == node_count(TreeFamily.BINOMIAL, k) == 2 ** k
    for k in range(-1, 27):  # up to fib(28) = 317811 nodes
        assert fibonacci_tree(k).n == node_count(TreeFamily.FIBONACCI, k) == fib(k + 2)
    for k in range(0, 27):
        assert binary_fibonacci_tree(k).n == node_count(TreeFamily.BINARY_FIBONACCI, k) == fib(k + 2) - 1


def test_generate_dispatch():
    for family in TreeFamily:
        k = 3 if family is not TreeFamily.FIBONACCI else 4
        assert generate(family, k).n == node_count(family, k)


def test_node_budget_enforced():
    with pytest.raises(ResourceLimitError) as exc:
        binomial_tree(5, max_nodes=10)
    assert exc.value.required == 32
    assert "32" in str(exc.value)
    with pytest.raises(ResourceLimitError):
        fibonacci_tree(40, max_nodes=10**6)


def test_invalid_orders():
    with pytest.raises(InvalidOrderError):
        binomial_tree(-1)
    with pytest.raises(InvalidOrderError):
        fibonacci_tree(-2)
    with pytest.raises(InvalidOrderError):
        binary_fibonacci_tree(-1)
    with pytest.raises(InvalidOrderError):
        node_count(TreeFamily.BINOMIAL, -4)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def test_serialize_single_node():
    text = serialize(RootedTree.single())
    assert text == "1\n"
    back = parse(text)
    assert back.n == 1 and back.root == 0


def test_serialize_two_nodes():
    t = RootedTree.from_parents([None, 0])
    assert serialize(t) == "2\n0 1\n"
    assert shape(parse(serialize(t))) == shape(t)


def test_serialize_empty_tree():
    assert serialize(binary_fibonacci_tree(0)) == "0\n"
    assert parse("0\n").n == 0


def test_parse_cycle_reports_line():
    with pytest.raises(ParseError) as exc:
        parse("3\n0 1\n1 2\n2 0\n")
    assert exc.value.line == 4
    assert "cycle" in exc.value.reason


def test_parse_rejects_bad_input():
    with pytest.raises(ParseError, match="node count"):
        parse("x\n")
    with pytest.raises(ParseError, match="out of range"):
        parse("2\n0 5\n")
    with pytest.raises(ParseError, match="duplicate edge"):
        parse("3\n0 1\n0 1\n")
    with pytest.raises(ParseError, match="already has a parent"):
        parse("3\n0 2\n1 2\n")
    with pytest.raises(ParseError, match="self-loop"):
        parse("2\n1 1\n")
    with pytest.raises(ParseError, match="expected 'parent child'"):
        parse("2\n0 1 2\n")
    with pytest.raises(ParseError, match="non-integer"):
        parse("2\na b\n")
    with pytest.raises(ParseError, match="needs 2 edges"):
        parse("3\n0 1\n")  # disconnected: node 2 unreachable
    with pytest.raises(ParseError):
        parse("")


def test_parse_rejects_header_larger_than_input():
    # Rejected from the line count alone, before anything is sized by n.
    with pytest.raises(ParseError, match="needs 999999999999 edges") as exc:
        parse("1000000000000\n0 1\n")
    assert exc.value.line == 2


def test_parse_accepts_nonzero_root():
    t = parse("3\n2 0\n2 1\n")
    assert t.root == 2
    assert t.children[2] == [0, 1]


def test_roundtrip_random_trees():
    # Order-preserving relabeling identity over 1000 random trees, sizes
    # log-uniform up to 10^4.
    rng = random.Random(20240817)
    for i in range(1000):
        n = int(math.exp(rng.uniform(0.0, math.log(10_000))))
        t = random_tree(rng, n)
        back = parse(serialize(t))
        assert back.n == t.n
        assert back.parent == t.parent, f"tree {i} (n={n}) changed parents"
        assert back.children == t.children, f"tree {i} (n={n}) changed child order"


def test_roundtrip_tolerates_relabeled_input():
    rng = random.Random(99)
    t = random_tree(rng, 200)
    perm = list(range(t.n))
    rng.shuffle(perm)
    lines = [str(t.n)]
    for u in range(t.n):
        for c in t.children[u]:
            lines.append(f"{perm[u]} {perm[c]}")
    relabeled = parse("\n".join(lines) + "\n")
    assert shape(relabeled) == shape(t)
