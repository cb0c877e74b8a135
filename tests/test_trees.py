import itertools
import math
import os
import random
import threading
import time
from array import array

import pytest

from treewiener import trees
from treewiener.compose import replay_family
from treewiener.errors import InvalidOrderError, ParseError, ResourceLimitError
from treewiener.exact import fib
from treewiener.trees import (
    MAX_TREE_NODES,
    ROOT_PARENT,
    FamilySpec,
    RootedTree,
    TreeFamily,
    binary_fibonacci_tree,
    binomial_tree,
    fibonacci_tree,
    generate,
    node_count,
    parse,
    serialize,
    _parse_canonical,
    _parse_lines,
)

from helpers import node_count_called, peak_memory, random_tree, reference_tree, shape


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
    assert t1.n == 2 and t1.parent.count(ROOT_PARENT) == 1
    assert len(t1) == 2
    assert repr(t1) == "RootedTree(n=2, root=0)"


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


@pytest.mark.parametrize("family", list(TreeFamily))
def test_generate_matches_recursive_reference(family):
    # generate and compose.replay_family run one grow rule, so this
    # reference, built from the prose definitions, is what checks the rule.
    k = family.spec.min_order
    while node_count(family, k) <= 5000:
        parent, children = reference_tree(family, k)
        tree = generate(family, k)
        assert tree.parent.typecode == tree.kids.typecode == "i"
        assert tree.parent.tolist() == parent, f"{family.value} k={k}"
        assert tree.children == children, f"{family.value} k={k}"
        leaves = [kids for kids in tree.children if not kids]
        assert all(kids is leaves[0] for kids in leaves), "one shared leaf list"
        k += 1


@pytest.mark.parametrize("family", list(TreeFamily))
def test_build_is_the_one_loop_behind_generate_and_replay(monkeypatch, family):
    build, calls = FamilySpec.build, []

    def counted(spec, k, *algebra):
        calls.append(k)
        return build(spec, k, *algebra)

    monkeypatch.setattr(FamilySpec, "build", counted)
    generate(family, 7)
    assert calls == [7]
    replay_family(family, 7)
    assert calls == [7, 7]


@pytest.mark.parametrize("family", list(TreeFamily))
def test_generate_kids_match_one_sort_by_parent(family):
    # Each join puts the new child where leftmost says, so kids comes out
    # grouped as one stable sort of the ids by parent would group them.
    k = family.spec.min_order
    while node_count(family, k) <= 5000:
        tree = generate(family, k)
        n = tree.n
        order = range(n - 1, 0, -1) if family.spec.leftmost else range(1, n)
        assert tree.kids.tolist() == sorted(order, key=tree.parent.__getitem__), (
            f"{family.value} k={k}")
        k += 1


@pytest.mark.parametrize("ids,off,expected", [
    ([], 5, []),
    ([7], 3, [10]),
    ([0, 1, 2**31 - 1], 0, [0, 1, 2**31 - 1]),
    ([2**31 - 2, 0, 2**31 - 8], 1, [2**31 - 1, 1, 2**31 - 7]),
    ([0, 255, 256, 65535, 65536, 2**24 - 1], 2**31 - 2**24,
     [2**31 - 2**24, 2**31 - 2**24 + 255, 2**31 - 2**24 + 256,
      2**31 - 2**24 + 65535, 2**31 - 2**24 + 65536, 2**31 - 1]),
], ids=["empty", "one", "off-0", "up-to-2^31-1", "byte-boundaries"])
def test_shifted_adds_off_to_every_lane(ids, off, expected):
    got = trees._shifted(array("i", ids), off)
    assert got.typecode == "i"
    assert got.tolist() == expected


def test_node_budget_enforced():
    with pytest.raises(ResourceLimitError) as exc:
        binomial_tree(5, max_nodes=10)
    assert exc.value.required == 32
    assert "32" in str(exc.value)
    with pytest.raises(ResourceLimitError):
        fibonacci_tree(40, max_nodes=10**6)
    # Past the ids an 'i' array holds, whatever the budget, before a build.
    with pytest.raises(ResourceLimitError) as exc:
        binomial_tree(31, max_nodes=2**40)
    assert (exc.value.required, exc.value.budget) == (2**31, MAX_TREE_NODES)


def test_invalid_orders():
    with pytest.raises(InvalidOrderError):
        binomial_tree(-1)
    with pytest.raises(InvalidOrderError):
        fibonacci_tree(-2)
    with pytest.raises(InvalidOrderError):
        binary_fibonacci_tree(-1)
    with pytest.raises(InvalidOrderError):
        node_count(TreeFamily.BINOMIAL, -4)


@pytest.mark.parametrize("family", list(TreeFamily), ids=lambda f: f.value)
def test_generate_refuses_an_order_past_the_cap_at_once(family, monkeypatch):
    # Refused before the node count, 2^(10^9) or F(10^9 + 2), is computed:
    # node_count is stubbed to fail, so code without the cap fails at once.
    # At the cap itself the node budget refuses the tree instead.
    with monkeypatch.context() as patch:
        patch.setattr(trees, "node_count", node_count_called)
        t0 = time.perf_counter()
        with pytest.raises(InvalidOrderError) as exc:
            generate(family, 10**9)
        assert time.perf_counter() - t0 < 1.0
    assert str(exc.value) == (f"order 1000000000 exceeds the cap of "
                              f"{trees.MAX_LINEAR_ORDER} on the order of a generated tree")
    with pytest.raises(ResourceLimitError):
        generate(family, trees.MAX_LINEAR_ORDER)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def test_serialize_single_node():
    data = b"".join(serialize(RootedTree.single()))
    assert data == b"1\n"
    back = parse(data)
    assert back.n == 1 and back.root == 0


def test_serialize_two_nodes():
    t = RootedTree.from_parents([None, 0])
    assert b"".join(serialize(t)) == b"2\n0 1\n"
    assert shape(parse(b"".join(serialize(t)))) == shape(t)


def test_serialize_empty_tree():
    assert b"".join(serialize(binary_fibonacci_tree(0))) == b"0\n"
    assert parse("0\n").n == 0
    assert RootedTree.from_parents([]).n == 0


def _one_format(tree) -> str:
    """The edge list as one format operation over the whole tree: the
    reference for serialize's pieces."""
    pairs = []
    for c in tree.kids:
        pairs += (tree.parent[c], c)
    return f"{tree.n}\n" + "%d %d\n" * len(tree.kids) % tuple(pairs)


@pytest.mark.parametrize("lines", [1, 2, 3])
def test_sliced_io_matches_one_piece(monkeypatch, lines):
    # serialize renders one, two or three edge lines per piece, and parse
    # reads slices of 1 to 18 characters rounded up to whole lines, so every
    # text crosses several slices and, for some size, a slice ends exactly
    # on the last LF.  The bulk path reads the text with CRLF endings too.
    # n = 0 is read line by line.
    cases = [binary_fibonacci_tree(0), RootedTree.single(),
             RootedTree.from_parents([None, 0]), binomial_tree(4),
             fibonacci_tree(6), binary_fibonacci_tree(6),
             random_tree(random.Random(lines), 40)]
    expected = [_one_format(t).encode() for t in cases]
    monkeypatch.setattr(trees, "_SERIALIZE_SLICE", lines)
    for tree, want in zip(cases, expected):
        data = b"".join(serialize(tree))
        assert data == want
        for chars, text in itertools.product(range(1, 19),
                                             (data, data.replace(b"\n", b"\r\n"))):
            monkeypatch.setattr(trees, "_PARSE_SLICE", chars)
            assert (_parse_canonical(text) is None) == (tree.n == 0)
            back = parse(text)
            assert (back.n, back.root, back.parent, back.kids) == (
                tree.n, tree.root, tree.parent, tree.kids)


@pytest.mark.parametrize("text,chars", [
    ("4\n1 3\n0 1\n0 2\n", 1),  # one line per slice
    ("4\n1 3\n0 1\n0 2\n", 100),  # one slice
    ("5\n0 1\n1 3\n0 2\n1 4\n", 8),  # two slices, each in order
], ids=["between-slices", "within-a-slice", "only-where-slices-meet"])
def test_parse_sorts_when_parent_ids_fall(monkeypatch, text, chars):
    # The parent column falls once, so the line order is not grouped by
    # parent and the bulk path must sort it.
    monkeypatch.setattr(trees, "_PARSE_SLICE", chars)
    got, ref = _parse_canonical(text.encode()), _parse_lines(text.encode())
    assert got is not None
    assert (got.parent, got.kids, got.children) == (ref.parent, ref.kids, ref.children)
    assert got.kids.tolist() == sorted(got.kids, key=got.parent.__getitem__)


def test_lines_match_splitlines_at_every_slice(monkeypatch):
    # The line reader's slices end after a line break, never inside a CRLF,
    # so blank lines, lone CRs and a last line with or without a break read
    # as str.splitlines reads them, wherever the slices fall.
    text = "3\r\n\r\n0 1\r\r0 2\n\n\r\n 1 2 \r"
    for chars in range(1, len(text) + 2):
        monkeypatch.setattr(trees, "_PARSE_SLICE", chars)
        for t in (text, text + "4", text[1:], "\n", ""):
            assert list(trees._lines(t.encode())) == t.splitlines()


def test_from_parents_stores_a_none_root_as_root_parent():
    tree = RootedTree.from_parents([1, None, 1, 0])
    assert (tree.root, tree.parent.tolist(), tree.kids.tolist()) == (
        1, [1, ROOT_PARENT, 1, 0], [3, 0, 2])


@pytest.mark.parametrize("parents,message", [
    ([1, 0], "expected exactly one root, found 0"),
    ([None, None], "expected exactly one root, found 2"),
    ([None, 3], "parent id 3 of node 1 out of range"),
    ([None, ROOT_PARENT], "parent id -1 of node 1 out of range"),
    ([None, 2, 1], "parent list does not describe a connected tree"),
], ids=["no-root", "two-roots", "parent-out-of-range", "root-parent-is-not-none",
     "cycle-cut-off"])
def test_from_parents_rejects_non_trees(parents, message):
    with pytest.raises(ValueError, match=message):
        RootedTree.from_parents(parents)


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
    with pytest.raises(ParseError, match="edge line after a 0-node header") as exc:
        parse("0\n0 1\n")
    assert exc.value.line == 2


def test_parse_duplicate_edge_reports_its_own_line():
    # The repeat of line 3 comes after three other edges.
    with pytest.raises(ParseError, match="duplicate edge 0 2") as exc:
        parse("6\n0 1\n0 2\n1 3\n1 4\n2 5\n0 2\n")
    assert exc.value.line == 7


def test_parse_rejects_header_larger_than_input():
    # Rejected from the line count alone, before anything is sized by n.
    with pytest.raises(ParseError, match="needs 999999999999 edges") as exc:
        parse("1000000000000\n0 1\n")
    assert exc.value.line == 2


@pytest.mark.parametrize("read", [parse, _parse_canonical, _parse_lines])
def test_parse_refuses_header_past_budget(read):
    # Each path checks the header against max_nodes before it sizes
    # anything by n, both when the line count matches the header and when
    # a two-line text claims a tree past the budget.  Only parse reads a
    # str.  The bulk path never raises: past the budget it declines the
    # text, and the line reader refuses it.
    text = "4\n0 1\n0 2\n1 3\n"
    if read is not parse:
        text = text.encode()
    assert read(text, 4).parent.tolist() == [ROOT_PARENT, 0, 0, 1]
    if read is _parse_canonical:
        assert read(text, 3) is None
    else:
        with pytest.raises(ResourceLimitError) as exc:
            read(text, 3)
        assert (exc.value.required, exc.value.budget) == (4, 3)
    if read is not _parse_canonical:  # the bulk path leaves this to the other
        big = trees.DEFAULT_NODE_BUDGET + 1

        def refused():
            with pytest.raises(ResourceLimitError) as exc:
                read(b"%d\n0 1\n" % big, trees.DEFAULT_NODE_BUDGET)
            assert exc.value.required == big

        assert peak_memory(refused) < 20_000
        # Past the ids an 'i' array holds, the budget is MAX_TREE_NODES.
        with pytest.raises(ResourceLimitError) as exc:
            read(b"%d\n0 1\n" % 2**31, 2**40)
        assert (exc.value.required, exc.value.budget) == (2**31, MAX_TREE_NODES)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
@pytest.mark.parametrize("case", ["short", "long", "past-budget", "held-once"])
def test_read_edge_list_reads_a_pipe(tmp_path, case):
    # A pipe cannot be read again from its start, so the head read for the
    # header is joined to the rest, for a tree shorter than the head and one
    # longer.  A header past the budget is refused before the body is read:
    # the writer sends the header alone, waits until read_edge_list is done,
    # and only then writes the body, into a pipe whose reader has gone.
    # A large input is held once while it is read: head + rest, a second
    # copy of the whole input, peaked at twice its size.
    fifo = tmp_path / "tree.fifo"
    os.mkfifo(fifo)
    budget = trees.DEFAULT_NODE_BUDGET
    head, body = {
        "short": (b"3\n0 1\n1 2\n", b""),
        "long": (b"".join(serialize(fibonacci_tree(12))), b""),
        "past-budget": (b"%d\n" % (budget + 1), b"0 1\n" * 100),
        "held-once": (b"".join(serialize(fibonacci_tree(24))), b""),
    }[case]
    assert (len(head) > trees._HEADER_BYTES) == (case in ("long", "held-once"))
    done, outcome = threading.Event(), []

    def write():
        with open(fifo, "wb", buffering=0) as fh:
            fh.write(head)
            if body:
                done.wait(10)
                try:
                    fh.write(body)
                except BrokenPipeError:
                    outcome.append("reader gone")

    writer = threading.Thread(target=write, daemon=True)
    writer.start()
    try:
        if case == "past-budget":
            with pytest.raises(ResourceLimitError) as exc:
                trees.read_edge_list(fifo, budget)
            assert str(exc.value) == (
                f"tree requires {budget + 1} nodes, exceeding the budget of {budget}")
        elif case == "held-once":
            read = []
            peak = peak_memory(lambda: read.append(trees.read_edge_list(fifo, budget)))
            assert read == [head]
            assert peak < 1.5 * len(head), (peak, len(head))
        else:
            assert trees.read_edge_list(fifo, budget) == head
    finally:
        done.set()
        writer.join(10)
    assert not writer.is_alive()
    assert outcome == (["reader gone"] if body else [])


# Without the whole-text scan, most of these texts read as a valid tree:
# int() takes signs, underscores and the digits of other scripts, and
# str.split() and str.splitlines() take some ASCII control characters for
# separators.
@pytest.mark.parametrize("text,line", [
    ("3\n0 +1\n0 2\n", 2),
    ("3\n0 1\n-0 2\n", 3),
    ("1_0\n" + "".join(f"0 {c}\n" for c in range(1, 10)), 1),
    ("3\n0 1\n0 \u0662\n", 3),  # ARABIC-INDIC DIGIT TWO
    ("3\n0 1\x850 2\n", 2),  # NEL, a line break to splitlines
    (b"3\n0 1\n0 2\xa0\n".decode("ascii", "surrogateescape"), 3),
    ("3\x1c0 1\x1c0 2\n", 1),  # FILE SEPARATOR, a line break to splitlines
    ("3\n0\x1f1\n0 2\n", 2),  # UNIT SEPARATOR, whitespace to split
    ("3\n0\x0b1\n0\x0c2\n", 2),  # VT and FF, separators to both
], ids=["plus", "minus-zero", "underscore", "arabic-digit", "nel", "byte",
        "file-separator", "unit-separator", "vt-ff"])
def test_parse_rejects_non_ascii_decimal(text, line):
    with pytest.raises(ParseError, match="expected ASCII decimal digits") as exc:
        parse(text)
    assert exc.value.line == line


# A byte past ASCII is reported as the UTF-8 character it starts, and a byte
# that starts none as surrogateescape decodes it.  A str is read as its
# UTF-8 bytes, with a lone surrogate encoded as if it were a character, so
# it is reported as its escaped lead byte and never fails to encode.
@pytest.mark.parametrize("text,found", [
    (b"3\n0 1\n0 \xc3\xa9\n", "\u00e9"),
    (b"3\n0 1\n0 \xa0\n", "\udca0"),
    ("3\n0 1\n0 \ud800\n", "\udced"),
], ids=["utf-8", "byte", "lone-surrogate"])
def test_parse_reports_a_non_ascii_character_at_its_line(text, found):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert (exc.value.line, exc.value.reason) == (
        3, f"expected ASCII decimal digits, found {found!r}")


def test_parse_reports_a_rejected_byte_before_the_budget():
    # serialize's form but for a '+', under a header past the budget: the
    # line reader reports the '+' before it reads the header, so the bulk
    # path leaves the text to it rather than refuse the header itself.
    text = b"5\n0 1\n+ 2\n0 3\n0 4\n"
    assert _parse_canonical(text, 3) is None
    for read in (parse, _parse_lines):
        with pytest.raises(ParseError) as exc:
            read(text, 3)
        assert (exc.value.line, exc.value.reason) == (
            3, "expected ASCII decimal digits, found '+'")


def test_parse_holds_the_text_once_line_by_line():
    # One extra space on line 2 sends the text to the line reader, which
    # decodes it a slice at a time, so its peak stays within half the
    # text's size of the bulk read's.  A decode of the whole text held a
    # second copy, and peaked 1.26 times the text's size above it.
    data = b"".join(serialize(binomial_tree(16)))
    head, _, rest = data.partition(b"\n")
    padded = head + b"\n" + rest.replace(b"\n", b" \n", 1)
    assert _parse_canonical(padded) is None
    assert parse(padded).parent == parse(data).parent
    bulk, lines = peak_memory(parse, data), peak_memory(parse, padded)
    assert lines - bulk < 0.5 * len(data), (lines, bulk, len(data))


# Near misses of serialize's form.  Each is read line by line: the bulk
# path returns None, and parse gives the line reader's tree or ParseError.
@pytest.mark.parametrize("data", [
    pytest.param(b"3\n0 1\n0 2.0\n", id="decimal-point"),
    pytest.param(b"3\n0 1\n0 2e0\n", id="exponent"),
    pytest.param(b"3e0\n0 1\n0 2\n", id="header-exponent"),
    pytest.param(b"3\n0 1\n-1 2\n", id="minus"),
    pytest.param(b"3\n0 1\n+1 2\n", id="plus"),
    pytest.param(b"3\n0 1\n 0 2\n", id="leading-space"),
    pytest.param(b"3\n0 1\n0  2\n", id="doubled-space"),
    pytest.param(b"3\n0 1\n0 2 \n", id="trailing-space"),
    pytest.param(b"3\r\n0 1 \r\n0 2\r\n", id="trailing-space-crlf"),
    pytest.param(b"3\n0 1\n0 \n", id="empty-field"),
    pytest.param(b"3\n0 1\n 2\n", id="empty-parent-field"),
    pytest.param(b"3\n0 1\n0\t2\n", id="tab"),
    pytest.param(b"3\n0 1\n\n", id="blank-line"),
    pytest.param(b"3\n0 1\n\n0 2\n", id="blank-line-extra-lf"),
    pytest.param(b"3\n0 1\n0 2", id="no-final-lf"),
    pytest.param(b"1", id="no-lf"),
    pytest.param(b"3\n0 1\n0 2\n1 2", id="unended-last-line"),
    pytest.param(b"3\n0 1\r0 2\n", id="lone-cr"),
    pytest.param(b"3\r\n0 1\r\r\n0 2\r\n", id="lone-cr-in-crlf"),
    pytest.param(b"3\r\n0 1\r\n0 2\r", id="crlf-no-final-lf"),
    pytest.param(b"3\n0 1\r\n0 2\r\n", id="lf-header-crlf-lines"),
    pytest.param(b"3\r\n0 1\n0 2\r\n", id="crlf-header-lf-line"),
    pytest.param(b"03\n0 1\n0 2\n", id="header-leading-zero"),
    pytest.param(b"3\n0 1\n0 02\n", id="id-leading-zero"),
    pytest.param(b"3\n0 1\n0 2147483648\n", id="id-2-31"),
    pytest.param(b"3\n0 1\n2147483648 2\n", id="parent-id-2-31"),
    pytest.param(b"3\n0 1\n3 2\n", id="parent-id-n"),
    pytest.param(b"3\n0 1\n1 3\n", id="id-n"),
    pytest.param(b"3\n0 1\n0 99999999999999999999\n", id="id-past-2-64"),
    pytest.param(b"3\n0 1\n0 1\n", id="repeated-child"),
])
def test_parse_reads_near_misses_line_by_line(data):
    assert _parse_canonical(data) is None
    try:
        want = _parse_lines(data)
    except ParseError as exc:
        with pytest.raises(ParseError) as got:
            parse(data)
        assert (got.value.line, got.value.reason) == (exc.line, exc.reason)
    else:
        got = parse(data)
        assert (got.n, got.root, got.parent, got.kids) == (
            want.n, want.root, want.parent, want.kids)


def test_preorder_puts_each_subtree_in_one_run():
    # Children right to left, as the stack pops them.
    tree = RootedTree.from_parents([None, 0, 0, 1, 1, 2])
    assert tree.preorder() == [0, 2, 5, 1, 4, 3]
    assert RootedTree.empty().preorder() == []


def test_parents_first_refuses_a_second_root():
    # ROOT_PARENT past node 0 is below its node's id but is not a parent:
    # bottom_up must not take the ids counting down for all n - 1 nodes.
    parent = array("i", [ROOT_PARENT, 0, ROOT_PARENT])
    assert not trees._parents_first(parent)
    assert len(RootedTree(3, 0, parent, array("i", [1, 1])).bottom_up()) != 2


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
        back = parse(b"".join(serialize(t)))
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


# ---------------------------------------------------------------------------
# Memory
# ---------------------------------------------------------------------------

# Measured tracemalloc peaks on the order-20 Fibonacci tree (17,711 nodes,
# a 190,261-byte edge list): parse 1.25 MB, generate then serialize
# 0.83 MB, under bounds about 20% above them.  They guard the peak memory
# of generate --out and compute on large trees.  The same tree kept in
# lists of ints, one object per id, reads 1.52 and 1.81 MB, past both.
PARSE_PEAK_BOUND = 1_500_000
GENERATE_PEAK_BOUND = 1_000_000


def test_parse_memory_stays_small():
    data = b"".join(serialize(fibonacci_tree(20)))
    assert peak_memory(parse, data) < PARSE_PEAK_BOUND
    # Reading the integers by bytes.split instead holds a bytes object per
    # token, and that alone is past the bound.
    assert peak_memory(lambda: list(map(int, data.split()))) > PARSE_PEAK_BOUND


def test_generate_and_serialize_memory_stays_small():
    assert peak_memory(lambda: serialize(generate(TreeFamily.FIBONACCI, 20))) < GENERATE_PEAK_BOUND
