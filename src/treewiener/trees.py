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

Each rule is written once, as the family's FamilySpec.grow, over a join
and a single tree that the caller supplies, and one loop, FamilySpec.build,
runs it order by order, never recursively.  generate builds typed arrays
of parent ids and grouped children, joined by concatenation, so order is
limited only by the node budget, not call depth, and each join puts the
new child where the spec's leftmost flag says, so no sort is needed.
compose.replay_family builds (n, W, D) summaries with the same loop.
"""

import re
import sys
from array import array
from collections import deque
from enum import Enum
from functools import partial
from itertools import count, groupby, islice, repeat
from operator import countOf, itemgetter, lt, setitem
from typing import Callable, NamedTuple

from treewiener import formulas
from treewiener.errors import (
    InvalidOrderError,
    ParseError,
    ResourceLimitError,
)
from treewiener.exact import fib, pow2

# Materialization cap for generators; the closed forms exist precisely so
# trees this large never need to be built except for verification.
DEFAULT_NODE_BUDGET = 1 << 22
# Node ids are stored as C ints (array type code 'i'), so no tree has more
# nodes than this, whatever budget a caller gives.
MAX_TREE_NODES = (1 << 31) - 1
# parent[root]: every other entry is a node id, 0 or more.
ROOT_PARENT = -1
# The largest order generate accepts.  The node count it checks against the
# budget, 2^k or a Fibonacci number near phi^k, takes time that grows with
# k to compute, so a larger order is refused before it.
MAX_LINEAR_ORDER = 50_000


class TreeFamily(Enum):
    BINOMIAL = "binomial"
    FIBONACCI = "fibonacci"
    BINARY_FIBONACCI = "binary-fibonacci"

    @property
    def spec(self) -> "FamilySpec":
        return _SPECS[self]


class RootedTree:
    """Immutable ordered rooted tree with dense node ids 0..n-1, kept flat
    in two typed arrays of C ints (array type code 'i').

    parent[v] is v's parent id, or ROOT_PARENT (-1) for the root.  kids is
    the one flat child array of a compressed sparse row layout (Saad,
    Iterative Methods for Sparse Linear Systems, section 3.4): every
    non-root node once, grouped by parent in increasing parent id, each
    group listing its parent's children left to right, which is the order
    of serialize's edge lines.  A group ends where parent[kids[i]] changes,
    so no array of group starts is kept, and no list per node unless
    children is read.  An id costs 4 bytes in each array, where a list of
    ints costs a pointer and an int object.  The empty tree (n = 0) is
    representable, has no root, and arises only as the order-0 binary
    Fibonacci tree.
    """

    __slots__ = ("n", "root", "parent", "kids", "_children", "_bottom_up")

    def __init__(self, n, root, parent, kids):
        self.n = n
        self.root = root
        self.parent = parent
        self.kids = kids
        self._children = None
        self._bottom_up = None

    @classmethod
    def empty(cls) -> "RootedTree":
        return cls(0, None, array("i"), array("i"))

    @classmethod
    def single(cls) -> "RootedTree":
        return cls(1, 0, array("i", [ROOT_PARENT]), array("i"))

    @classmethod
    def from_parents(cls, parents: list) -> "RootedTree":
        """Build from a parent list (None marks the root); children are
        ordered by child id.  Validates tree-ness."""
        n = len(parents)
        if n == 0:
            return cls.empty()
        roots = parents.count(None)
        if roots != 1:
            raise ValueError(f"expected exactly one root, found {roots}")
        for v, p in enumerate(parents):
            if p is not None and not 0 <= p < n:
                raise ValueError(f"parent id {p} of node {v} out of range")
        parent = array("i", [ROOT_PARENT if p is None else p for p in parents])
        tree = _finish(parent, (v for v, p in enumerate(parents) if p is not None), False)
        if len(tree.bottom_up()) != n - 1:
            raise ValueError("parent list does not describe a connected tree")
        return tree

    @property
    def children(self) -> list:
        """children[v] lists v's children left to right: a list per parent,
        copied from its group in kids, and one empty list that every leaf
        shares.  Built on first use and kept; read it, do not change it."""
        if self._children is None:
            kids = self.kids
            lists = self._children = [[]] * self.n
            i = 0
            for p, group in groupby(map(self.parent.__getitem__, kids)):
                j = i + countOf(group, p)
                lists[p] = kids[i:j].tolist()
                i = j
        return self._children

    def bottom_up(self):
        """The non-root nodes, each before its parent: all n - 1 of them
        exactly when the parent ids describe a tree.  When every parent id
        is smaller than its child's, as in every generated tree and every
        file generate writes, that is the ids counting down, a range;
        otherwise it is a walk from the root by child links, reversed.
        Worked out on first use and kept, so the check that parse makes
        serves wiener_linear.  Empty, with no walk, unless exactly one node
        has no parent: kids then lists some child twice, as after parse
        reads one child on two lines, and a walk would visit its subtree
        once per listing, which can take time exponential in n."""
        if self._bottom_up is None:
            if _parents_first(self.parent):
                self._bottom_up = range(self.n - 1, 0, -1)
            elif self.parent.count(ROOT_PARENT) != 1:
                self._bottom_up = []
            else:
                self._bottom_up = self.preorder()[:0:-1]
        return self._bottom_up

    def preorder(self) -> list:
        """The nodes a walk from the root reaches by child links, each
        before its children and its subtree in one run; a node's children
        are taken right to left."""
        children = self.children
        order = []
        stack = [self.root] if self.n else []
        while stack:
            u = stack.pop()
            order.append(u)
            stack.extend(children[u])
        return order

    def degree(self, v: int) -> int:
        return len(self.children[v]) + (self.parent[v] != ROOT_PARENT)

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:
        return f"RootedTree(n={self.n}, root={self.root})"


def _finish(parent: array, kids, grouped: bool) -> RootedTree:
    """The tree on parent, rooted at its one ROOT_PARENT entry, whose
    non-root nodes kids lists, each group in child order.  kids is kept as
    it is when grouped says the parent ids never fall along it, as in every
    file generate writes; otherwise one stable sort by parent id groups it,
    at the cost of boxing every id twice."""
    if not grouped:
        kids = array("i", sorted(kids, key=parent.__getitem__))
    return RootedTree(len(parent), parent.index(ROOT_PARENT), parent, kids)


def _parents_first(parent: array) -> bool:
    """Whether node 0 is the root and every other node's parent is a node
    with a smaller id; then node 0 is the only root, and no parent chain
    can close a cycle.  The ids are compared as unsigned ints, as which
    ROOT_PARENT reads 2**32 - 1, past every id."""
    if len(parent) == 0 or parent[0] != ROOT_PARENT:
        return False
    with memoryview(parent).cast("B").cast("I") as ids:
        return all(map(lt, islice(ids, 1, None), count(1)))


def _check_nodes(n: int, max_nodes) -> None:
    """Refuse a tree of n nodes past max_nodes (None: no budget) or past
    the ids an 'i' array holds."""
    limit = MAX_TREE_NODES if max_nodes is None else min(max_nodes, MAX_TREE_NODES)
    if n > limit:
        raise ResourceLimitError(n, limit)


def node_count(family: TreeFamily, k: int) -> int:
    """Closed-form node count, without materializing anything."""
    spec = family.spec
    if k < spec.min_order:
        raise InvalidOrderError(
            f"{family.value} trees are defined for order >= {spec.min_order}, got {k}"
        )
    return spec.nodes(k)


# A 1 in one lane of an 'i' array, in this machine's byte order.
_ONE = array("i", [1]).tobytes()


def _shifted(ids, off: int) -> array:
    """The 'i' array of ids[i] + off, by one big-integer addition over the
    packed lanes: ids read as one integer, plus off times a 1 in every
    lane.  Exact while every id and every sum is in [0, 2**31): no lane
    then carries into the next, and each reads back as the same C int."""
    order = sys.byteorder
    packed = int.from_bytes(ids, order) + off * int.from_bytes(_ONE * len(ids), order)
    out = array("i")
    out.frombytes(packed.to_bytes(len(ids) * out.itemsize, order))
    return out


def _attach(leftmost: bool, tree, sub):
    """tree and sub, each (parent, kids, root degree), as one: sub's ids
    are shifted past tree's, and sub's root, its id 0, becomes node 0's
    first child when leftmost, else its last.  Node 0's group leads kids,
    so the new child goes in at the start or the end of it; tree's other
    groups follow, then sub's, shifted, whose parent ids are now the
    largest, so kids stays grouped without a sort.  Neither argument is
    changed, so one single tree serves every order of a build."""
    parent, kids, degree = tree
    sub_parent, sub_kids, _ = sub
    off = len(parent)
    out_parent = parent + array("i", [0])
    out_parent += _shifted(sub_parent[1:], off)
    out_kids = kids + _shifted(sub_kids, off)
    out_kids.insert(0 if leftmost else degree, off)
    return out_parent, out_kids, degree + 1


def binomial_tree(k: int, max_nodes: int = DEFAULT_NODE_BUDGET) -> RootedTree:
    """Order-k binomial tree (2^k nodes), root id 0.  Each order's new
    leftmost subtree takes the ids after the previous tree's, so the root's
    children, of sizes 2^(k-1), ..., 2, 1 left to right, and every other
    node's run in decreasing id."""
    return generate(TreeFamily.BINOMIAL, k, max_nodes)


def fibonacci_tree(k: int, max_nodes: int = DEFAULT_NODE_BUDGET) -> RootedTree:
    """Order-k Fibonacci tree (F(k+2) nodes), root id 0, ids in preorder.
    Unrolled, a node of order j >= 1 has children of orders -1, 0, ...,
    j-2, in increasing id."""
    return generate(TreeFamily.FIBONACCI, k, max_nodes)


def binary_fibonacci_tree(k: int, max_nodes: int = DEFAULT_NODE_BUDGET) -> RootedTree:
    """Order-k binary Fibonacci tree (F(k+2) - 1 nodes), root id 0, ids in
    preorder; order 0 is empty."""
    return generate(TreeFamily.BINARY_FIBONACCI, k, max_nodes)


class FamilySpec(NamedTuple):
    """Everything that differs between the families, reached as family.spec.

    min_order is the smallest order with a tree; min_summary_order the
    smallest with a root and hence a Wiener index and an (n, W, D) summary.
    nodes(k) is the closed-form node count; closed(k) and recurrence(k)
    evaluate W.  grow(join, single, prev, cur) is the family's construction
    rule, the only place it is written: from the trees of orders i-2 and
    i-1 it builds the tree of order i, where join(a, b) attaches b's root
    as a child of a's and single is the one-node tree; build runs it.
    leftmost says where join puts the new child: first among a's root's
    children (binomial), or last.  verify_note is a line verify adds after
    its sweep, or None.  The evaluators look formulas.wiener_* up at call
    time, so replacing a module attribute reaches every caller.
    """

    min_order: int
    min_summary_order: int
    nodes: Callable[[int], int]
    closed: Callable[[int], int]
    recurrence: Callable[[int], int]
    grow: Callable
    leftmost: bool = False
    verify_note: str | None = None

    def build(self, k: int, join, single):
        """The order-k tree, for k >= min_summary_order, in the algebra of
        join and single: single at min_summary_order, None, the empty tree,
        one order below it, and grow once per order above, never
        recursively.  grow is handed a join that leaves a as it is when b is
        None, so no algebra has an empty tree.  The one loop that runs
        grow: generate runs it on (parent, kids, root degree) arrays and
        compose.replay_family on (n, W, D) summaries."""
        def join_nonempty(a, b):
            return a if b is None else join(a, b)

        prev, cur = None, single  # orders i-2 and i-1
        for _ in range(k - self.min_summary_order):
            prev, cur = cur, self.grow(join_nonempty, single, prev, cur)
        return cur


# closed evaluates W in O(log k) big-integer multiplications, recurrence in
# O(k) operations by an independent route, so verify can play them against
# each other.
_SPECS = {
    TreeFamily.BINOMIAL: FamilySpec(
        min_order=0,
        min_summary_order=0,
        nodes=pow2,
        closed=lambda k: formulas.wiener_binomial(k),
        recurrence=lambda k: formulas.wiener_binomial_recurrence(k),
        grow=lambda join, single, prev, cur: join(cur, cur),
        leftmost=True,
    ),
    TreeFamily.FIBONACCI: FamilySpec(
        min_order=-1,
        min_summary_order=-1,
        nodes=lambda k: fib(k + 2),
        closed=lambda k: formulas.wiener_fib_closed(k),
        recurrence=lambda k: formulas.wiener_fib(k),
        grow=lambda join, single, prev, cur: join(cur, prev),
    ),
    TreeFamily.BINARY_FIBONACCI: FamilySpec(
        min_order=0,
        min_summary_order=1,  # order 0 is the empty tree
        nodes=lambda k: fib(k + 2) - 1,
        closed=lambda k: formulas.wiener_binfib_closed(k),
        recurrence=lambda k: formulas.wiener_binfib(k),
        grow=lambda join, single, prev, cur: join(join(single, cur), prev),
        # A fixed sentence; the tests check its two numbers against the
        # literal and corrected recurrences at order 3.
        verify_note=(
            "note: the literal printed recurrence gives 5 at order 3 where "
            "direct enumeration gives 10; the corrected form is used "
            "throughout and this divergence is documented, not a failure"),
    ),
}


def generate(family: TreeFamily, k: int, max_nodes: int = DEFAULT_NODE_BUDGET) -> RootedTree:
    """The order-k tree of a family, root id 0, once the node budget
    allows it: the empty tree below min_summary_order, else spec.build on
    (parent, kids, root degree) arrays with _attach as join.  Each join
    appends the new child's ids and puts it first among the root's
    children (leftmost) or last, so a leftmost family's children run in
    decreasing id and the others' in increasing id, kids comes out grouped
    with no sort, and every parent id is below its child's.  An order past
    MAX_LINEAR_ORDER is refused first."""
    if k > MAX_LINEAR_ORDER:
        raise InvalidOrderError(
            f"order {k} exceeds the cap of {MAX_LINEAR_ORDER} on the order of a generated tree")
    n = node_count(family, k)
    _check_nodes(n, max_nodes)
    spec = family.spec
    if k < spec.min_summary_order:
        return RootedTree.empty()
    single = (array("i", [ROOT_PARENT]), array("i"), 0)
    parent, kids, _ = spec.build(k, partial(_attach, spec.leftmost), single)
    return RootedTree(n, 0, parent, kids)


def serialize(tree: RootedTree) -> list:
    """Edge-list text as a list of ASCII bytes pieces: b"".join(pieces) is
    the file, and a binary file's writelines writes it.  First line the
    node count n, then n-1 lines "parent child"; a node's child edges
    appear in child order, LF endings.  The edge lines are rendered
    _SERIALIZE_SLICE at a time, each piece by one format operation over
    that slice of kids, read as a list, and its parent ids, read by one
    itemgetter call.  The pieces are not joined, so they are the text's
    only copy, and no other temporary grows with the tree."""
    kids, parent = tree.kids, tree.parent
    pieces = [b"%d\n" % tree.n]
    for i in range(0, len(kids), _SERIALIZE_SLICE):
        piece = kids[i:i + _SERIALIZE_SLICE].tolist()
        pairs = [0] * (2 * len(piece))
        # itemgetter of one index returns the item, not a 1-tuple.
        ups = itemgetter(*piece)(parent)
        pairs[::2] = ups if len(piece) > 1 else (ups,)
        pairs[1::2] = piece
        pieces.append(b"%d %d\n" * len(piece) % tuple(pairs))
    return pieces


def parse(text: bytes | str, max_nodes: int | None = None) -> RootedTree:
    """Inverse of serialize, with line-numbered rejection of bad input.

    text is a file's bytes, or a str, which is encoded once, as UTF-8 with
    surrogatepass, so that every str has bytes.  Bytes in serialize's exact
    form, or in that form with CRLF after every line, are read and checked
    in bulk (_parse_canonical), which only accelerates: it returns the tree
    or None, and never raises.  Every other text, and every text the bulk
    checks decline, is read line by line (_parse_lines) from the same
    bytes, and _parse_lines alone decides every error, so each input gets
    the same tree or the same error whichever way it is read.  A header n
    past max_nodes, when given, is refused with ResourceLimitError before
    anything is sized by it.  So is one past MAX_TREE_NODES, the most nodes
    'i' ids can number, once the text has as many lines as it claims.
    """
    if isinstance(text, str):
        text = text.encode("utf-8", "surrogatepass")
    tree = _parse_canonical(text, max_nodes)
    return _parse_lines(text, max_nodes) if tree is None else tree


# The bytes read_edge_list reads first, for the header: room for any node
# count an 'i' array holds, with leading zeros, and far below the smallest
# integer-to-string digit limit the interpreter accepts (640).
_HEADER_BYTES = 64


def read_edge_list(path, max_nodes: int | None) -> bytes:
    """The bytes of the edge-list file or pipe at path, for parse.

    The first _HEADER_BYTES are read first, and a whole first line of ASCII
    digits in them is checked as parse checks the header: a node count
    past max_nodes (None: no budget) or MAX_TREE_NODES raises
    ResourceLimitError before the rest is read, with or without a CR
    before its LF.  Any other head, such as a pipe's first read that stops
    inside the header line, is left to parse.
    Unbuffered, so a file's read() returns it as one bytes object, read
    again from its start with no head joined to it.  A pipe cannot be read
    again, so its rest is read into one buffer that already holds the head,
    and the input is held once, not twice as head + rest would hold it.
    """
    with open(path, "rb", buffering=0) as fh:
        head = fh.read(_HEADER_BYTES)
        line, lf, _ = head.partition(b"\n")
        line = line.removesuffix(b"\r")
        if lf and line.isdigit():
            _check_nodes(int(line), max_nodes)
        if fh.seekable():
            fh.seek(0)
            return fh.read()
        import io
        import shutil
        buf = io.BytesIO()
        buf.write(head)
        shutil.copyfileobj(fh, buf)
        return buf.getvalue()


# Edge lines per format operation in serialize, and bytes, rounded up to
# the end of a line, per structure check and json.loads in
# _parse_canonical, or per decode and splitlines in _lines: large enough
# that the cost per slice vanishes, small enough that a slice's temporaries
# are a small part of a 3e5-node tree.
_SERIALIZE_SLICE = 4096
_PARSE_SLICE = 1 << 17

# Spaces and LFs to commas, for one json.loads of a slice's ids.
_COMMAS = bytes.maketrans(b" \n", b",,")


def _parse_canonical(data: bytes, max_nodes: int | None = None):
    """The tree that bytes in serialize's form describe, or None for bytes
    in any other form, ones that are not a tree, or a header past
    max_nodes or MAX_TREE_NODES.  It never raises: parse hands every text
    it declines to _parse_lines, which decides the error.

    serialize's form is a header line of digits, then edge lines of two
    digit runs split by one space, each line ending in LF; here every line
    may instead end in CRLF, as the header's ending says.  The header n
    comes from json.loads, which rejects leading zeros and integers past
    the digit limit, and must pass _check_nodes, and the bytes must end
    with an LF and hold exactly n LFs, n - 1 edge lines, before anything is
    sized by n; a check that fails gives None.  The edge lines are then
    read _PARSE_SLICE bytes of whole lines at a time.  A slice with its
    digits deleted must be the separators of its lines, " \n" (or " \r\n")
    once per line, so every separator is in place; one translate then turns
    them into commas for one json.loads, which refuses an empty field, a
    leading zero, or a run past the digit limit.  Every id is checked below
    n, the parent ids are scattered into parent[] at the child ids, which
    are appended to kids.  Then, in bulk, the tree's bottom_up, which
    keeps the answer for wiener_linear: either every parent id below its
    child's, which leaves node 0 the one node without a parent, or one node
    without a parent, so no child is repeated, and a walk from it that
    reaches all n nodes, so there is no cycle.  _finish groups kids, with
    no sort when the parent ids never fall from line to line.
    """
    if not data.endswith(b"\n"):
        return None
    start = data.index(b"\n") + 1
    header = data[:start - 1]
    # The header's line ending is every line's: mixed endings are read
    # line by line.
    unit = b" \r\n" if header.endswith(b"\r") else b" \n"
    header = header.removesuffix(b"\r")
    if not header.isdigit():
        return None
    # Imported here: only parse needs json, and importing it at start-up
    # would cost every other command.
    import json
    try:
        n = json.loads(header)
        _check_nodes(n, max_nodes)
    except (ValueError, ResourceLimitError):
        return None
    if data.count(b"\n") != n:
        return None
    parent = array("i", [ROOT_PARENT]) * n
    kids = array("i")
    last = 0  # the last parent id read, or None once one fell
    final = len(data) - 1  # the last LF
    while start < len(data):
        end = data.find(b"\n", min(start + _PARSE_SLICE - 1, final)) + 1
        # The slice is taken without its final LF, so that no comma trails
        # the ids, and taken twice, each copy a temporary, so that none is
        # alive while json.loads runs.
        gaps = data[start:end - 1].translate(None, b"0123456789") + b"\n"
        if gaps != unit * (len(gaps) // len(unit)):
            return None
        del gaps
        try:
            nums = json.loads(b"[%b]" % data[start:end - 1].translate(_COMMAS, b"\r"))
        except ValueError:
            return None
        children = nums[1::2]
        # setitem through map, not the bound parent.__setitem__, skips a
        # method wrapper per line.  It refuses a child id past n - 1 and
        # any id past a C int; a parent id past n - 1 is refused below.
        try:
            deque(map(setitem, repeat(parent), children, islice(nums, 0, None, 2)), 0)
        except (IndexError, OverflowError):
            return None
        kids.fromlist(children)
        # Only the parent ids are kept, in place: a new list for them, or
        # for the child ids alongside, left the heap more fragmented, and
        # tree-io's peak RSS about 0.5 MB higher.
        del children, nums[1::2]
        # On a sorted run, sorted() makes one comparison per id in C, and
        # the last id is the largest.
        if last is not None and last <= nums[0] and nums == sorted(nums):
            last = nums[-1]
        else:
            last = None
        if (nums[-1] if last is not None else max(nums)) >= n:
            return None
        del nums
        start = end
    tree = _finish(parent, kids, last is not None)
    if len(tree.bottom_up()) != n - 1:
        return None
    return tree


# The bytes the line reader rejects wherever they stand (see _parse_lines):
# those of _REJECTED_ASCII and every one past ASCII.
_REJECTED_ASCII = b"+-_\x0b\x0c\x1c\x1d\x1e\x1f"
_REJECTED = rb"[\x80-\xff%b]" % re.escape(_REJECTED_ASCII)
# A line break in a text the line reader reads: LF, CR or CRLF, the only
# breaks it leaves unrejected.
_BREAK = rb"\r\n?|\n"


def _rejected(data: bytes):
    """The offset of the first byte in data that _parse_lines rejects
    wherever it stands, or None.  isascii and one search per byte of
    _REJECTED_ASCII scan the whole data; the first such byte is searched
    for only when one of them finds it."""
    if not data.isascii() or any(ch in data for ch in _REJECTED_ASCII):
        return re.search(_REJECTED, data).start()


def _lines(data: bytes):
    """data.decode().splitlines(), one line at a time: data is split and
    decoded _PARSE_SLICE bytes at a time, rounded up to the end of a line,
    so neither a str of the whole text nor a list of every line is held.
    For ASCII data holding no line break but LF, CR and CRLF."""
    search = re.compile(_BREAK).search
    start = 0
    while start < len(data):
        cut = search(data, start + _PARSE_SLICE - 1)
        end = len(data) if cut is None else cut.end()
        yield from data[start:end].decode("ascii").splitlines()
        start = end


def _breaks(data: bytes, end: int) -> int:
    """The line breaks (LF, CR or CRLF) in data[:end]."""
    return data.count(b"\n", 0, end) + data.count(b"\r", 0, end) - data.count(b"\r\n", 0, end)


def _parse_lines(text: bytes, max_nodes: int | None = None) -> RootedTree:
    """parse, one line at a time, for any bytes: the reference the bulk
    path must agree with, and the only source of parse's errors, ParseError
    and ResourceLimitError alike.

    Detected first, over the whole input: a sign, an underscore, a control
    character among VT, FF and 0x1c-0x1f, or a byte outside ASCII, reported
    as the UTF-8 character it starts.  Detected per line: malformed tokens,
    ids out of range, duplicate edges, second parents, cycles.  Detected at
    end of input: wrong edge count (disconnection / multiple roots).  A
    header past max_nodes, when given, is refused as soon as it is read,
    before the line count; one past MAX_TREE_NODES only after it, as no
    text short of 2**31 lines has one.  Lines end at LF, CR or CRLF, as in
    str.splitlines, and are decoded and read a slice at a time (_lines), so
    the text is held once, as the bytes it was given, and no list of lines
    is held.
    """
    # int() also reads signs, underscores and the digits of other scripts,
    # and str.split() and str.splitlines() take the control characters for
    # separators.  Every line break other than LF, CR or CRLF is itself
    # rejected, so none stands before the first rejected byte, and it
    # belongs to the line it ends.
    at = _rejected(text)
    if at is not None:
        # A byte that starts no UTF-8 character is shown escaped, as
        # surrogateescape decodes it.
        found = text[at:at + 4].decode("utf-8", "surrogateescape")[0]
        raise ParseError(_breaks(text, at) + 1,
                         f"expected ASCII decimal digits, found {found!r}")
    lines = _lines(text)
    header = next(lines, "").strip()
    if not header:
        raise ParseError(1, "missing node-count header")
    try:
        n = int(header)
    except ValueError:
        raise ParseError(1, f"node count is not an integer: {header!r}") from None
    if max_nodes is not None:
        _check_nodes(n, max_nodes)
    if n == 0:
        for i, line in enumerate(lines, start=2):
            if line.strip():
                raise ParseError(i, "edge line after a 0-node header")
        return RootedTree.empty()
    # Each edge takes a line, so a header larger than the input is rejected
    # before it sizes any allocation.
    line_count = _breaks(text, len(text)) + (text[-1:] not in (b"", b"\r", b"\n"))
    if n > line_count:
        raise ParseError(
            line_count,
            f"tree on {n} nodes needs {n - 1} edges, more lines than the input has",
        )
    _check_nodes(n, None)

    parent = array("i", [ROOT_PARENT]) * n
    kids = array("i")  # in line order, grouped by parent at the end
    # Union-find over node ids for immediate cycle detection.
    uf = array("i", range(n))

    def find(x):
        root = x
        while uf[root] != root:
            root = uf[root]
        while uf[x] != root:
            uf[x], x = root, uf[x]
        return root

    edges = 0
    last = 0  # the last parent id read, or None once one fell
    for lineno, raw in enumerate(lines, start=2):
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
        if parent[c] != ROOT_PARENT:
            raise ParseError(lineno, f"node {c} already has a parent")
        # c has no parent yet, so it tops its component and is its own
        # representative: the edge closes a cycle exactly when p is below c.
        top = find(p)
        if top == c:
            raise ParseError(lineno, f"edge {p} {c} closes a cycle")
        uf[c] = top
        parent[c] = p
        kids.append(c)
        edges += 1
        if last is not None:
            last = p if last <= p else None

    if edges != n - 1:
        raise ParseError(
            line_count,
            f"tree on {n} nodes needs {n - 1} edges, found {edges}"
            + (" (disconnected or multiple roots)" if edges < n - 1 else ""),
        )
    # n-1 edges, no cycle, unique parents: exactly one root remains.
    return _finish(parent, kids, last is not None)
