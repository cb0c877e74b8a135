"""Shared tree builders, comparisons, the recursive family references, the
one-search-at-a-time BFS reference, the arithmetic counter and the
tracemalloc peak for the test suite."""

import dis
import random
import sys
import tracemalloc

from treewiener.trees import ROOT_PARENT, RootedTree, TreeFamily


def random_tree(rng: random.Random, n: int) -> RootedTree:
    """Uniform random attachment: node i picks its parent among 0..i-1."""
    parents = [None] + [rng.randrange(i) for i in range(1, n)]
    return RootedTree.from_parents(parents)


def path_tree(n: int) -> RootedTree:
    return RootedTree.from_parents([None] + list(range(n - 1)))


def star_tree(n: int) -> RootedTree:
    """One center with n - 1 leaves."""
    return RootedTree.from_parents([None] + [0] * (n - 1))


def relabel(rng: random.Random, tree: RootedTree) -> RootedTree:
    """The same tree with its ids randomly permuted: the root gets a random
    id, and ids are no longer in preorder."""
    perm = list(range(tree.n))
    rng.shuffle(perm)
    parents = [None] * tree.n
    for v, p in enumerate(tree.parent):
        parents[perm[v]] = None if p == ROOT_PARENT else perm[p]
    return RootedTree.from_parents(parents)


# The three families written again from the prose definitions in the
# treewiener.trees docstring, recursively and apart from FamilySpec.grow, as
# nested shapes: a node is the tuple of its subtrees, left to right, and the
# empty tree is None.

def binomial_shape(k: int):
    """Two order-(k-1) trees, one the leftmost child of the other's root."""
    if k == 0:
        return ()
    sub = binomial_shape(k - 1)
    return (sub,) + sub


def fibonacci_shape(k: int):
    """The order-(k-2) tree as the rightmost child of the order-(k-1)
    tree's root; orders -1 and 0 are a single node."""
    if k <= 0:
        return ()
    return fibonacci_shape(k - 1) + (fibonacci_shape(k - 2),)


def binary_fibonacci_shape(k: int):
    """A fresh root with the order-(k-1) tree as left subtree and the
    order-(k-2) tree as right subtree; order 0 is empty, order 1 a single
    node."""
    if k <= 1:
        return None if k == 0 else ()
    return tuple(t for t in (binary_fibonacci_shape(k - 1),
                             binary_fibonacci_shape(k - 2)) if t is not None)


def reference_tree(family: TreeFamily, k: int) -> tuple:
    """(parent, children) of the order-k tree as lists, the root's parent
    ROOT_PARENT, labelled as the generators document: ids in preorder,
    except that a binomial tree numbers each node's subtrees right to left,
    since each order's new leftmost subtree takes the ids after the
    previous tree's."""
    shape = {TreeFamily.BINOMIAL: binomial_shape,
             TreeFamily.FIBONACCI: fibonacci_shape,
             TreeFamily.BINARY_FIBONACCI: binary_fibonacci_shape}[family](k)
    right_to_left = family is TreeFamily.BINOMIAL
    parent, children = [], []

    def visit(node, p) -> int:
        v = len(parent)
        parent.append(p)
        children.append(None)
        ids = [visit(sub, v) for sub in (node[::-1] if right_to_left else node)]
        children[v] = ids[::-1] if right_to_left else ids
        return v

    if shape is not None:
        visit(shape, ROOT_PARENT)
    return parent, children


def adjacency(tree: RootedTree) -> list:
    """Undirected adjacency lists (children plus parent per node)."""
    adj = [list(tree.children[u]) for u in range(tree.n)]
    for u in range(tree.n):
        p = tree.parent[u]
        if p != ROOT_PARENT:
            adj[u].append(p)
    return adj


def bfs_distance_sum(adj: list, src: int, n: int) -> int:
    """Sum of distances from src to every vertex, by level-order frontier:
    one search at a time, with its own bytearray visited set.  The
    reference the oracle's multi-source sweeps are checked against."""
    seen = bytearray(n)
    seen[src] = 1
    frontier = [src]
    total = 0
    depth = 0
    while frontier:
        depth += 1
        nxt = []
        for u in frontier:
            for w in adj[u]:
                if not seen[w]:
                    seen[w] = 1
                    nxt.append(w)
        total += depth * len(nxt)
        frontier = nxt
    return total


def shape(tree: RootedTree) -> list:
    """Preorder child-count sequence; equal sequences mean the trees are
    isomorphic as ordered rooted trees, whatever the node labels."""
    if tree.n == 0:
        return []
    out = []
    stack = [tree.root]
    while stack:
        u = stack.pop()
        kids = tree.children[u]
        out.append(len(kids))
        stack.extend(reversed(kids))
    return out


# The opcodes of binary arithmetic: BINARY_OP from Python 3.11 on, whose
# argrepr names the operator ("*", or "*=" in place); before, one opcode per
# operator, plain and in place, of which subscripting is not arithmetic.
if "BINARY_OP" in dis.opmap:
    _ARITHMETIC = {dis.opmap["BINARY_OP"]}

    def _operator(ins) -> str:
        return ins.argrepr.rstrip("=")
else:
    _ARITHMETIC = {op for name, op in dis.opmap.items()
                   if name.startswith(("BINARY_", "INPLACE_"))
                   and name != "BINARY_SUBSCR"}
    _OPERATORS = {"ADD": "+", "SUBTRACT": "-", "MULTIPLY": "*",
                  "MATRIX_MULTIPLY": "@", "TRUE_DIVIDE": "/",
                  "FLOOR_DIVIDE": "//", "MODULO": "%", "POWER": "**",
                  "LSHIFT": "<<", "RSHIFT": ">>", "AND": "&", "OR": "|",
                  "XOR": "^"}

    def _operator(ins) -> str:
        return _OPERATORS[ins.opname.split("_", 1)[1]]


def count_arithmetic(fn, *args, operators=None) -> int:
    """Number of binary arithmetic instructions (+, -, *, <<, // and the
    rest) that fn(*args) executes in Python code, in every function it
    calls included.  With operators, a set such as {"*"}, only those
    operators count, each in its plain and its in-place form.  Arithmetic
    inside functions written in C, such as the operands' own methods or
    sum(), is not seen.

    From Python 3.12 on the call runs under sys.monitoring instruction
    events, with a free tool id that is given back afterwards; before, it
    runs under sys.settrace with opcode events on, which 3.12 and 3.13 do
    not deliver for the first traced frame of a code object, and the
    tracer in force before is restored.  Both hold even when the call
    raises.
    """
    offsets = {}  # code object -> offsets of its counted instructions

    def counted(code) -> set:
        if code not in offsets:
            offsets[code] = {ins.offset for ins in dis.get_instructions(code)
                             if ins.opcode in _ARITHMETIC
                             and (operators is None or _operator(ins) in operators)}
        return offsets[code]

    return _run_counting(fn, args, counted)


def per_order_increments(fn, orders=(100, 200, 400, 800)) -> tuple:
    """({k: ops(k + 1) - ops(k)} at each of orders, and the mean increment
    across them, (ops(last) - ops(first)) / (last - first)), where ops(k)
    is count_arithmetic(fn, k).  An O(k) route adds one and the same
    positive count at every order, and that much on average, however much
    it spends once, before its first step.  An O(k log k) route adds more
    at the higher orders, an O(1) one nothing, and an O(log k) one less on
    average than at some single order."""
    ops = {}
    for k in orders:
        ops[k], ops[k + 1] = count_arithmetic(fn, k), count_arithmetic(fn, k + 1)
    first, last = orders[0], orders[-1]
    return ({k: ops[k + 1] - ops[k] for k in orders},
            (ops[last] - ops[first]) / (last - first))


if hasattr(sys, "monitoring"):
    def _run_counting(fn, args, counted) -> int:
        mon = sys.monitoring
        tool = next(i for i in range(6) if mon.get_tool(i) is None)
        count = 0

        def on_instruction(code, offset):
            nonlocal count
            if offset not in counted(code):
                return mon.DISABLE  # this instruction never counts
            count += 1

        mon.use_tool_id(tool, "count_arithmetic")
        try:
            mon.register_callback(tool, mon.events.INSTRUCTION, on_instruction)
            mon.restart_events()  # undo an earlier call's DISABLEs
            mon.set_events(tool, mon.events.INSTRUCTION)
            try:
                fn(*args)
            finally:
                mon.set_events(tool, mon.events.NO_EVENTS)
        finally:
            mon.register_callback(tool, mon.events.INSTRUCTION, None)
            mon.free_tool_id(tool)
        return count
else:
    def _run_counting(fn, args, counted) -> int:
        count = 0

        def on_opcode(frame, event, arg):
            nonlocal count
            if event == "opcode" and frame.f_lasti in counted(frame.f_code):
                count += 1
            return on_opcode

        def on_call(frame, event, arg):
            frame.f_trace_lines = False
            frame.f_trace_opcodes = True
            return on_opcode

        previous = sys.gettrace()
        sys.settrace(on_call)
        try:
            fn(*args)
        finally:
            sys.settrace(previous)
        return count


def node_count_called(family, k):
    """A stand-in for trees.node_count in tests of an order cap: a cap that
    refuses first never calls it, and code without the cap fails here at
    once instead of computing a node count with a billion bits."""
    raise AssertionError(f"node_count({family.value}, {k}) ran before the order cap")


def peak_memory(fn, *args) -> int:
    """The tracemalloc peak, in bytes, of fn(*args)."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
