"""The three tree families as explicit rooted trees, plus edge-list I/O.

All three families are ordered trees built by a recursive composition rule:

* binomial tree of order k: two order-(k-1) binomial trees, one attached as
  the leftmost child of the other's root; 2^k nodes.
* Fibonacci tree of order k: the order-(k-2) tree attached as the rightmost
  child of the order-(k-1) tree's root; F(k+2) nodes (orders -1 and 0 are a
  single node).
* binary Fibonacci tree of order k: a fresh root with the order-(k-1) tree
  as left subtree and the order-(k-2) tree as right subtree; F(k+2) - 1
  nodes (order 0 is the empty tree, order 1 a single node).

Generators are iterative (doubling for binomial trees, one explicit-stack
preorder expander for both Fibonacci families), never recursive, so order is
limited only by the node budget, not call depth.
"""

from enum import Enum
from typing import Callable, NamedTuple, Sequence

from treewiener import compose, formulas
from treewiener.errors import (
    InvalidOrderError,
    ParseError,
    ResourceLimitError,
)
from treewiener.exact import fib, pow2

# Materialization cap for generators; the closed forms exist precisely so
# trees this large never need to be built except for verification.
DEFAULT_NODE_BUDGET = 1 << 22


class TreeFamily(Enum):
    BINOMIAL = "binomial"
    FIBONACCI = "fibonacci"
    BINARY_FIBONACCI = "binary-fibonacci"

    @property
    def spec(self) -> "FamilySpec":
        return _SPECS[self]


class RootedTree:
    """Immutable ordered rooted tree with dense node ids 0..n-1.

    parent[v] is the parent id, or None for the root; children[v] lists v's
    children left to right.  The empty tree (n = 0) is representable, has no
    root, and arises only as the order-0 binary Fibonacci tree.
    """

    __slots__ = ("n", "root", "parent", "children")

    def __init__(self, n, root, parent, children):
        self.n = n
        self.root = root
        self.parent = parent
        self.children = children

    @classmethod
    def empty(cls) -> "RootedTree":
        return cls(0, None, [], [])

    @classmethod
    def single(cls) -> "RootedTree":
        return cls(1, 0, [None], [[]])

    @classmethod
    def from_parents(cls, parents: list) -> "RootedTree":
        """Build from a parent list (None marks the root); children are
        ordered by child id.  Validates tree-ness."""
        n = len(parents)
        if n == 0:
            return cls.empty()
        roots = [v for v, p in enumerate(parents) if p is None]
        if len(roots) != 1:
            raise ValueError(f"expected exactly one root, found {len(roots)}")
        children = [[] for _ in range(n)]
        for v, p in enumerate(parents):
            if p is None:
                continue
            if not 0 <= p < n:
                raise ValueError(f"parent id {p} of node {v} out of range")
            children[p].append(v)
        tree = cls(n, roots[0], list(parents), children)
        if not tree._connected():
            raise ValueError("parent list does not describe a connected tree")
        return tree

    def _connected(self) -> bool:
        if self.n == 0:
            return True
        seen = 1
        stack = [self.root]
        visited = bytearray(self.n)
        visited[self.root] = 1
        while stack:
            u = stack.pop()
            for c in self.children[u]:
                if not visited[c]:
                    visited[c] = 1
                    seen += 1
                    stack.append(c)
        return seen == self.n

    def degree(self, v: int) -> int:
        return len(self.children[v]) + (0 if self.parent[v] is None else 1)

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:
        return f"RootedTree(n={self.n}, root={self.root})"


def node_count(family: TreeFamily, k: int) -> int:
    """Closed-form node count, without materializing anything."""
    spec = family.spec
    if k < spec.min_order:
        raise InvalidOrderError(
            f"{family.value} trees are defined for order >= {spec.min_order}, got {k}"
        )
    return spec.nodes(k)


def _check_budget(family: TreeFamily, k: int, max_nodes: int) -> int:
    n = node_count(family, k)
    if n > max_nodes:
        raise ResourceLimitError(n, max_nodes)
    return n


def binomial_tree(k: int, max_nodes: int = DEFAULT_NODE_BUDGET) -> RootedTree:
    """Order-k binomial tree (2^k nodes), root id 0.

    Built by doubling: each round copies the current tree and hangs the
    copy's root as the new leftmost child of node 0, so the root ends up
    with k children of subtree sizes 2^(k-1), ..., 2, 1 left to right.
    """
    _check_budget(TreeFamily.BINOMIAL, k, max_nodes)
    parent = [None]
    children = [[]]
    for _ in range(k):
        off = len(parent)
        parent.extend(0 if parent[i] is None else parent[i] + off for i in range(off))
        children.extend([c + off for c in children[i]] for i in range(off))
        children[0].insert(0, off)
    return RootedTree(len(parent), 0, parent, children)


def _expand(k: int, child_orders: Callable[[int], Sequence[int]]) -> RootedTree:
    """Order-k tree with node ids in preorder, root id 0.

    child_orders(j) lists, left to right, the orders of the children of a
    node of order j.  It is called once per order, not once per node: the
    lists are tabulated up front, from order -1, the lowest of any family.
    """
    pushed = {j: child_orders(j)[::-1] for j in range(-1, k + 1)}
    parent = []
    children = []
    stack = [(k, None)]
    while stack:
        order, p = stack.pop()
        node = len(parent)
        parent.append(p)
        children.append([])
        if p is not None:
            children[p].append(node)
        for j in pushed[order]:  # pushed right-to-left, popped left-to-right
            stack.append((j, node))
    return RootedTree(len(parent), 0, parent, children)


def fibonacci_tree(k: int, max_nodes: int = DEFAULT_NODE_BUDGET) -> RootedTree:
    """Order-k Fibonacci tree (F(k+2) nodes), root id 0.

    Unrolling the composition, a node of order j >= 1 has children of orders
    -1, 0, ..., j-2 left to right; orders -1 and 0 are leaves.
    """
    _check_budget(TreeFamily.FIBONACCI, k, max_nodes)
    return _expand(k, lambda j: range(-1, j - 1))


def binary_fibonacci_tree(k: int, max_nodes: int = DEFAULT_NODE_BUDGET) -> RootedTree:
    """Order-k binary Fibonacci tree (F(k+2) - 1 nodes); order 0 is empty."""
    _check_budget(TreeFamily.BINARY_FIBONACCI, k, max_nodes)
    if k == 0:
        return RootedTree.empty()
    # Subtrees of orders j-1 (left) and j-2 (right); order 0 has no node.
    return _expand(k, lambda j: tuple(o for o in (j - 1, j - 2) if o >= 1))


def _join(a: compose.TreeSummary, b) -> compose.TreeSummary:
    """compose.join(a, b), where b = None, the empty tree, leaves a as it is."""
    return a if b is None else compose.join(a, b)


class FamilySpec(NamedTuple):
    """Everything that differs between the families, reached as family.spec.

    min_order is the smallest order with a tree; min_summary_order the
    smallest with a root and hence a Wiener index and an (n, W, D) summary.
    nodes(k) is the closed-form node count, build(k, max_nodes) the
    generator, closed(k) and recurrence(k) evaluate W.  grow(prev, cur) is
    the construction rule on (n, W, D) summaries: from the summaries of
    orders i-2 and i-1 (None for the empty tree below min_summary_order) it
    builds the summary of order i, which compose.replay_family iterates.
    verify_note is a line verify adds after its sweep, or None.  The
    evaluators and the rules look formulas.wiener_* and compose.join up at
    call time, so replacing a module attribute reaches every caller.
    """

    min_order: int
    min_summary_order: int
    nodes: Callable[[int], int]
    build: Callable[[int, int], RootedTree]
    closed: Callable[[int], int]
    recurrence: Callable[[int], int]
    grow: Callable[[compose.TreeSummary | None, compose.TreeSummary],
                   compose.TreeSummary]
    verify_note: str | None = None


# closed evaluates W in O(log k) big-integer multiplications, recurrence in
# O(k) operations by an independent route, so verify can play them against
# each other.
_SPECS = {
    TreeFamily.BINOMIAL: FamilySpec(
        min_order=0,
        min_summary_order=0,
        nodes=pow2,
        build=binomial_tree,
        closed=lambda k: formulas.wiener_binomial(k),
        recurrence=lambda k: formulas.wiener_binomial_recurrence(k),
        grow=lambda prev, cur: compose.join(cur, cur),
    ),
    TreeFamily.FIBONACCI: FamilySpec(
        min_order=-1,
        min_summary_order=-1,
        nodes=lambda k: fib(k + 2),
        build=fibonacci_tree,
        closed=lambda k: formulas.wiener_fib_closed(k),
        recurrence=lambda k: formulas.wiener_fib(k),
        grow=lambda prev, cur: _join(cur, prev),
    ),
    TreeFamily.BINARY_FIBONACCI: FamilySpec(
        min_order=0,
        min_summary_order=1,  # order 0 is the empty tree
        nodes=lambda k: fib(k + 2) - 1,
        build=binary_fibonacci_tree,
        closed=lambda k: formulas.wiener_binfib_closed(k),
        recurrence=lambda k: formulas.wiener_binfib(k),
        grow=lambda prev, cur: _join(compose.join(compose.SINGLE, cur), prev),
        # A fixed sentence; the tests check its two numbers against the
        # literal and corrected recurrences at order 3.
        verify_note=(
            "note: the literal printed recurrence gives 5 at order 3 where "
            "direct enumeration gives 10; the corrected form is used "
            "throughout and this divergence is documented, not a failure"),
    ),
}


def generate(family: TreeFamily, k: int, max_nodes: int = DEFAULT_NODE_BUDGET) -> RootedTree:
    """Family-dispatching generator."""
    return family.spec.build(k, max_nodes)


def serialize(tree: RootedTree) -> str:
    """Edge-list text: first line is the node count n, then n-1 lines
    "parent child"; a node's child edges appear in child order, LF endings."""
    lines = [str(tree.n)]
    for u in range(tree.n):
        for c in tree.children[u]:
            lines.append(f"{u} {c}")
    return "\n".join(lines) + "\n"


def parse(text: str) -> RootedTree:
    """Inverse of serialize, with line-numbered rejection of bad input.

    Detected first, over the whole input: a sign, an underscore, a control
    character among VT, FF and 0x1c-0x1f, or a character outside ASCII.
    Detected per line: malformed tokens, ids out of range, duplicate edges,
    second parents, cycles.  Detected at end of input: wrong edge count
    (disconnection / multiple roots).
    """
    # int() also reads signs, underscores and the digits of other scripts,
    # and str.split() and str.splitlines() take the control characters for
    # separators.  One scan of the whole text; the offending line is searched
    # only when it fails.  keepends: a line break other than LF, CR or CRLF
    # is itself rejected, and belongs to the line it ends.
    rejected = "+-_\x0b\x0c\x1c\x1d\x1e\x1f"
    if not text.isascii() or any(ch in text for ch in rejected):
        for lineno, line in enumerate(text.splitlines(keepends=True), start=1):
            bad = [ch for ch in line if not ch.isascii() or ch in rejected]
            if bad:
                raise ParseError(lineno, f"expected ASCII decimal digits, found {bad[0]!r}")
    lines = text.splitlines()
    if not lines or not lines[0].strip():
        raise ParseError(1, "missing node-count header")
    try:
        n = int(lines[0].strip())
    except ValueError:
        raise ParseError(1, f"node count is not an integer: {lines[0].strip()!r}") from None
    if n == 0:
        for i, line in enumerate(lines[1:], start=2):
            if line.strip():
                raise ParseError(i, "edge line after a 0-node header")
        return RootedTree.empty()
    # Each edge takes a line, so a header larger than the input is rejected
    # before it sizes any allocation.
    if n - 1 > len(lines) - 1:
        raise ParseError(
            len(lines),
            f"tree on {n} nodes needs {n - 1} edges, more lines than the input has",
        )

    parent = [None] * n
    children = [[] for _ in range(n)]
    # Union-find over node ids for immediate cycle detection.
    uf = list(range(n))

    def find(x):
        root = x
        while uf[root] != root:
            root = uf[root]
        while uf[x] != root:
            uf[x], x = root, uf[x]
        return root

    edges = 0
    for lineno, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line:
            continue
        tokens = line.split()
        if len(tokens) != 2:
            raise ParseError(lineno, f"expected 'parent child', got {raw!r}")
        try:
            p, c = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise ParseError(lineno, f"non-integer node id in {raw!r}") from None
        for v in (p, c):
            if not 0 <= v < n:
                raise ParseError(lineno, f"node id {v} out of range 0..{n - 1}")
        if parent[c] == p:  # every accepted edge sets parent[c]
            raise ParseError(lineno, f"duplicate edge {p} {c}")
        if p == c:
            raise ParseError(lineno, f"self-loop at node {p}")
        if parent[c] is not None:
            raise ParseError(lineno, f"node {c} already has a parent")
        # c has no parent yet, so it tops its component and is its own
        # representative: the edge closes a cycle exactly when p is below c.
        top = find(p)
        if top == c:
            raise ParseError(lineno, f"edge {p} {c} closes a cycle")
        uf[c] = top
        parent[c] = p
        children[p].append(c)
        edges += 1

    if edges != n - 1:
        raise ParseError(
            len(lines),
            f"tree on {n} nodes needs {n - 1} edges, found {edges}"
            + (" (disconnected or multiple roots)" if edges < n - 1 else ""),
        )
    # n-1 edges, no cycle, unique parents: exactly one root remains.
    root = next(v for v in range(n) if parent[v] is None)
    return RootedTree(n, root, parent, children)
