"""Property tests, with inputs drawn by hypothesis.

* The composition algebra is an oracle for any tree, not only the three
  families: folding a random tree bottom-up with join and identify gives
  its vertex count, its Wiener index and its root's distance sum.
* compute on arbitrary bytes answers or rejects the input: exit 0 with one
  decimal line on stdout, or exit 2 with an error on stderr, never a
  traceback.
"""

import contextlib
import io

from hypothesis import given, settings
from hypothesis import strategies as st

from treewiener import cli
from treewiener.compose import SINGLE, identify, join
from treewiener.oracle import distance_sum, wiener_linear
from treewiener.trees import RootedTree, serialize


@st.composite
def random_trees(draw, max_n):
    """Random rooted tree on 1..max_n nodes: node i's parent is below i."""
    n = draw(st.integers(1, max_n))
    return RootedTree.from_parents(
        [None] + [draw(st.integers(0, i - 1)) for i in range(1, n)])


@st.composite
def edge_list_bytes(draw):
    """Arbitrary bytes, or a valid edge list with arbitrary bytes spliced in."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=64))
    data = serialize(draw(random_trees(12))).encode()
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
