"""Property tests, with inputs drawn by hypothesis.

* The composition algebra is an oracle for any tree, not only the three
  families: folding a random tree bottom-up with join and identify gives
  its vertex count, its Wiener index and its root's distance sum.
* compute on arbitrary bytes answers or rejects the input: exit 0 with one
  decimal line on stdout, or exit 2 with an error on stderr, never a
  traceback.
* parse, which reads serialize's exact form in bulk, agrees with the
  per-line reader on every input and node budget: the same tree for any
  layout of a valid edge list, the same ParseError for an invalid one, and
  the same ResourceLimitError past the budget.  The bulk reader only
  accelerates: it returns the per-line reader's tree or None, and never
  raises.
"""

import contextlib
import io
from unittest import mock

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from treewiener import cli, trees
from treewiener.compose import SINGLE, identify, join
from treewiener.errors import ParseError, ResourceLimitError, TreeWienerError
from treewiener.oracle import distance_sum, wiener_linear
from treewiener.trees import (
    ROOT_PARENT, RootedTree, _parse_canonical, _parse_lines, parse, serialize)


@st.composite
def random_trees(draw, max_n, min_n=1):
    """Random rooted tree on min_n..max_n nodes: node i's parent is below i."""
    n = draw(st.integers(min_n, max_n))
    return RootedTree.from_parents(
        [None] + [draw(st.integers(0, i - 1)) for i in range(1, n)])


@st.composite
def edge_list_bytes(draw):
    """Arbitrary bytes, or a valid edge list with arbitrary bytes spliced in."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=64))
    data = b"".join(serialize(draw(random_trees(12))))
    i = draw(st.integers(0, len(data)))
    j = draw(st.integers(i, len(data)))
    return data[:i] + draw(st.binary(max_size=8)) + data[j:]


@settings(deadline=None, max_examples=150)
@given(random_trees(60), st.data())
def test_join_fold_matches_oracles(tree, data):
    # Node ids grow away from the root, so in descending id order every
    # child is summarized before its parent.  Each child is attached either
    # by join, or by identify with the child's subtree under a pendant root.
    summary = [None] * tree.n
    for v in reversed(range(tree.n)):
        s = SINGLE
        for c in tree.children[v]:
            if data.draw(st.booleans()):
                s = join(s, summary[c])
            else:
                s = identify(s, join(SINGLE, summary[c]))
        summary[v] = s
    assert summary[tree.root].astuple() == (
        tree.n, wiener_linear(tree), distance_sum(tree, tree.root))


@settings(deadline=None, max_examples=300)
@given(edge_list_bytes())
def test_compute_on_arbitrary_bytes_exits_0_or_2(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "input.tree"
    path.write_bytes(data)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(["compute", "--in", str(path)])
    if rc == 0:
        assert out.getvalue().rstrip("\n").isdigit()
    else:
        assert rc == 2
        assert out.getvalue() == "" and err.getvalue().startswith("error: ")


@st.composite
def edge_lists(draw, max_n, min_n=1):
    """(n, edges): a random tree's (parent, child) edges with its ids
    randomly permuted, so the root leaves 0 and parents leave the lower
    ids, in a random line order."""
    tree = draw(random_trees(max_n, min_n))
    perm = draw(st.permutations(range(tree.n)))
    edges = [(perm[p], perm[c]) for c, p in enumerate(tree.parent) if p != ROOT_PARENT]
    return tree.n, list(draw(st.permutations(edges)))


def plain(n, edges) -> str:
    """The edge list in serialize's exact form."""
    return f"{n}\n" + "".join(f"{p} {c}\n" for p, c in edges)


LAYOUTS = ("crlf", "blank lines", "extra spaces", "leading zeros", "no final LF")


def render(n, edges, layout, rng) -> str:
    """The edge list in a layout the per-line reader accepts: each chosen
    variation is applied at random places, possibly none."""
    def num(v):
        if "leading zeros" in layout and rng.random() < 0.5:
            return "0" * rng.randint(1, 2) + str(v)
        return str(v)

    def pad():
        return rng.choice(("", " ", "  ", "\t")) if "extra spaces" in layout else ""

    lines = [pad() + num(n) + pad()]
    for p, c in edges:
        sep = rng.choice((" ", "  ", "\t ")) if "extra spaces" in layout else " "
        lines.append(pad() + num(p) + sep + num(c) + pad())
    if "blank lines" in layout:
        for _ in range(rng.randint(1, 3)):
            lines.insert(rng.randint(1, len(lines)), rng.choice(("", " ", "\t")))
    eol = "\r\n" if "crlf" in layout else "\n"
    return eol.join(lines) + ("" if "no final LF" in layout else eol)


# The bulk path's slice size: None keeps the default, which reads these
# texts in one slice; 1 to 18 characters, rounded up to whole lines, cut
# them into slices of one to a few lines.
PARSE_SLICES = st.one_of(st.none(), st.integers(1, 18))


def parse_slices(chars):
    if chars is None:
        return contextlib.nullcontext()
    return mock.patch.object(trees, "_PARSE_SLICE", chars)


def node_budgets(n):
    """A node budget below n, or one of at least n."""
    return st.one_of(st.integers(0, n - 1), st.integers(n, 2 * n))


def arrays(tree) -> tuple:
    return tree.n, tree.root, tree.parent, tree.kids, tree.children


def outcome(read, text, budget) -> tuple:
    """read(text, budget) as the tree's arrays, or as the type and message
    of the error it raised."""
    try:
        return arrays(read(text, budget))
    except TreeWienerError as exc:
        return type(exc), str(exc)


def read_three_ways(text: str, budget, chars):
    """(bulk, ref): what _parse_canonical returns and what _parse_lines
    gives on text under budget, once it is checked that the bulk reader
    raised nothing and gave None or the reference tree, and that parse
    gave the reference tree or raised the reference error."""
    with parse_slices(chars):
        bulk = _parse_canonical(text.encode(), budget)
        got = outcome(parse, text, budget)
    ref = outcome(_parse_lines, text.encode(), budget)
    assert bulk is None or arrays(bulk) == ref
    assert got == ref
    return bulk, ref


@settings(deadline=None, max_examples=300)
@given(edge_lists(40), st.sets(st.sampled_from(LAYOUTS)),
       st.randoms(use_true_random=False), PARSE_SLICES, st.data())
def test_parse_matches_per_line_reader(case, layout, rng, chars, data):
    n, edges = case
    text = render(n, edges, layout, rng)
    budget = data.draw(node_budgets(n), label="budget")
    bulk, ref = read_three_ways(text, budget, chars)
    # The bulk path reads exactly the texts in serialize's form, with
    # every line ending in LF or every line in CRLF, within the budget.
    canonical = plain(n, edges)
    assert (bulk is not None) == (
        budget >= n and text in (canonical, canonical.replace("\n", "\r\n")))
    if budget < n:
        assert ref == (ResourceLimitError, str(ResourceLimitError(n, budget)))
    else:
        assert all(ref[2][c] == p for p, c in edges)  # ref[2]: parent


def _descendants(edges, v) -> list:
    below = {}
    for p, c in edges:
        below.setdefault(p, []).append(c)
    out, stack = [], list(below.get(v, ()))
    while stack:
        u = stack.pop()
        out.append(u)
        stack.extend(below.get(u, ()))
    return out


MUTATIONS = ("duplicate line", "out-of-range id", "self-loop", "cycle",
             "second parent")


@settings(deadline=None, max_examples=300)
@given(edge_lists(40, min_n=3), st.sampled_from(MUTATIONS), st.data(), PARSE_SLICES)
def test_parse_rejects_like_per_line_reader(case, mutation, data, chars):
    # Under a budget below n the line reader refuses the header before it
    # reads an edge, so the error is the budget's.
    n, edges = case
    i = data.draw(st.integers(0, len(edges) - 1), label="line")
    p, c = edges[i]
    if mutation == "duplicate line":
        j = data.draw(st.integers(0, len(edges)), label="at")
        if data.draw(st.booleans(), label="in place of another line"):
            assume(j != i and j < len(edges))
            edges[j] = edges[i]  # still n - 1 edge lines
        else:
            edges.insert(j, edges[i])
    elif mutation == "out-of-range id":
        bad = n + data.draw(st.integers(0, 3), label="past n")
        edges[i] = data.draw(st.sampled_from(((bad, c), (p, bad))), label="edge")
    elif mutation == "self-loop":
        edges[i] = (c, c)
    elif mutation == "cycle":
        below = _descendants(edges, c)
        assume(below)
        edges[i] = (data.draw(st.sampled_from(below), label="descendant"), c)
    else:  # a second parent for another child, whose own line stays
        c2, p2 = data.draw(st.sampled_from([(v, u) for u, v in edges if v != c]),
                           label="child")
        q = data.draw(st.sampled_from([u for u in range(n) if u not in (c2, p2)]),
                      label="second parent")
        edges[i] = (q, c2)
    budget = data.draw(node_budgets(n), label="budget")
    bulk, ref = read_three_ways(plain(n, edges), budget, chars)
    assert bulk is None
    assert ref[0] is (ParseError if budget >= n else ResourceLimitError)
