import argparse
import gc
import inspect
import json
import os
import subprocess
import sys
import time
import tracemalloc

import pytest

from treewiener import cli, compose, formulas, oracle, trees
from treewiener.errors import NotDivisibleError
from treewiener.trees import TreeFamily

from helpers import node_count_called, peak_memory

# The interpreter's integer-to-string digit limit (0 = none, or Python < 3.11).
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
needs_digit_limit = pytest.mark.skipif(
    DIGIT_LIMIT == 0, reason="no integer-to-string digit limit")


def run_cli(capsys, argv):
    rc = cli.main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# ---------------------------------------------------------------------------
# closed-form
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("family,order,method,expected", [
    ("binomial", "3", "closed", "68"),
    ("fibonacci", "2", "recurrence", "4"),
    ("binary-fibonacci", "3", "replay", "10"),
])
def test_closed_form_outputs(capsys, family, order, method, expected):
    rc, out, _ = run_cli(capsys, ["closed-form", "--family", family,
                                  "--order", order, "--method", method])
    assert rc == 0
    assert out == expected + "\n"


def test_closed_form_json_roundtrip(capsys):
    rc, out, _ = run_cli(capsys, ["closed-form", "--family", "binomial",
                                  "--order", "64", "--json"])
    assert rc == 0
    payload = json.loads(out)
    assert payload["family"] == "binomial"
    assert payload["order"] == 64
    assert isinstance(payload["value"], str)
    assert int(payload["value"]) == formulas.wiener_binomial(64)


def test_closed_form_negative_order_for_fibonacci(capsys):
    rc, out, _ = run_cli(capsys, ["closed-form", "--family", "fibonacci",
                                  "--order", "-1"])
    assert rc == 0 and out == "0\n"


def test_closed_form_invalid_order_exits_2(capsys):
    rc, _, err = run_cli(capsys, ["closed-form", "--family", "binomial",
                                  "--order", "-1"])
    assert rc == 2
    assert "order" in err


def _raises(exc):
    def evaluator(k):
        raise exc
    return evaluator


@pytest.mark.parametrize("method,evaluator", [
    ("closed", "wiener_binfib_closed"),
    ("recurrence", "wiener_binfib"),
], ids=["closed", "recurrence"])
def test_closed_form_divisibility_violation_exits_3(capsys, monkeypatch,
                                                     method, evaluator):
    monkeypatch.setattr(formulas, evaluator, _raises(NotDivisibleError(7, 5, 2)))
    rc, _, err = run_cli(capsys, ["closed-form", "--family", "binary-fibonacci",
                                  "--order", "4", "--method", method])
    assert rc == 3
    assert "internal error" in err


@pytest.fixture
def fresh_replay_recurrences():
    """Forget the replay route's cached recurrences before and after, so
    that the test builds them under its own replacements."""
    compose._replay_recurrence.cache_clear()
    yield
    compose._replay_recurrence.cache_clear()


def test_closed_form_replay_inexact_recurrence_exits_3(capsys, monkeypatch,
                                                        fresh_replay_recurrences):
    # A replayed W that halves at each order has the recurrence W(k) =
    # W(k-1) / 2, which the integer Berlekamp-Massey refuses.
    monkeypatch.setattr(compose, "replay_family",
                        lambda family, k: compose.TreeSummary(2, 2 ** (64 - k), 1))
    rc, _, err = run_cli(capsys, ["closed-form", "--family", "binary-fibonacci",
                                  "--order", "40", "--method", "replay"])
    assert rc == 3
    assert "internal error" in err


def test_replay_route_calls_no_formula(monkeypatch, fresh_replay_recurrences):
    # replay stays independent of closed and recurrence: every function in
    # formulas refuses, and the route, its recurrences built afresh, still
    # gives the closed forms' values below, at and past its seeds.
    def refuse(name):
        def fn(*args):
            raise AssertionError(f"{name}{args} called")
        return fn

    orders = {family: [*range(family.spec.min_summary_order, 50), 500, 3000]
              for family in TreeFamily}
    expected = {(family, k): family.spec.closed(k)
                for family, ks in orders.items() for k in ks}
    for name, fn in vars(formulas).items():
        if inspect.isfunction(fn):
            monkeypatch.setattr(formulas, name, refuse(name))
    with pytest.raises(AssertionError, match="called"):
        TreeFamily.FIBONACCI.spec.closed(5)
    assert {(family, k): cli.ROUTES["replay"](family, k)
            for family, ks in orders.items() for k in ks} == expected


def test_closed_form_out_of_memory_exits_2(capsys, monkeypatch):
    # The evaluator raises MemoryError itself; nothing large is allocated.
    monkeypatch.setattr(formulas, "wiener_fib_closed", _raises(MemoryError()))
    rc, out, err = run_cli(capsys, ["closed-form", "--family", "fibonacci",
                                    "--order", "4"])
    assert rc == 2
    assert out == ""
    assert err == "error: out of memory\n"


@needs_digit_limit
@pytest.mark.parametrize("extra", [[], ["--json"]])
def test_closed_form_past_digit_limit_exits_2(capsys, extra):
    # W of the order-k binomial tree has about 0.6 k decimal digits.
    rc, out, err = run_cli(capsys, ["closed-form", "--family", "binomial",
                                    "--order", str(2 * DIGIT_LIMIT)] + extra)
    assert rc == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("family", cli.FAMILY_CHOICES)
@pytest.mark.parametrize("method", ["closed", "recurrence", "replay"])
def test_closed_form_order_past_cap_exits_2_at_once(capsys, family, method):
    # binomial closed would otherwise ask for 2^(2 * 10^10) first.
    t0 = time.perf_counter()
    rc, out, err = run_cli(capsys, ["closed-form", "--family", family, "--order",
                                    str(10**10), "--method", method])
    assert time.perf_counter() - t0 < 1.0
    assert rc == 2
    assert out == ""
    assert err.startswith("error: order 10000000000 exceeds the cap")
    assert err.count("\n") == 1


@pytest.mark.parametrize("command", ["verify", "bench"])
def test_sweep_max_order_past_cap_exits_2_at_once(capsys, command):
    t0 = time.perf_counter()
    rc, out, err = run_cli(capsys, [command, "--family", "fibonacci",
                                    "--max-order", "1000000000"])
    assert time.perf_counter() - t0 < 1.0
    assert rc == 2
    assert out == ""
    assert err == ("error: --max-order 1000000000 exceeds the cap of "
                   f"{cli.MAX_SWEEP_ORDER} on the order of a verify or bench "
                   "sweep\n")


def test_order_caps_refuse_just_past_their_bounds(capsys, monkeypatch):
    # The closed-form caps sit far above the benchmark's largest order,
    # 12,000, and the sweep cap above its verify sweeps' (21).  The
    # evaluators are stubbed: only the orders at the caps are under test.
    monkeypatch.setattr(formulas, "wiener_binomial", lambda k: 0)
    monkeypatch.setattr(formulas, "wiener_fib", lambda k: 0)
    monkeypatch.setattr(formulas, "wiener_fib_closed", lambda k: 0)
    monkeypatch.setattr(compose, "replay_w", lambda family, k: 0)
    top = max(k for k in range(cli.MAX_RESULT_BITS // 2 - 32, cli.MAX_RESULT_BITS // 2)
              if 2 * k + k.bit_length() <= cli.MAX_RESULT_BITS)
    cases = [("binomial", "closed", top), ("fibonacci", "recurrence", cli.MAX_LINEAR_ORDER)]
    for family, method, k in cases:
        assert k > 4 * 12_000
        argv = ["closed-form", "--family", family, "--method", method, "--order"]
        assert run_cli(capsys, argv + [str(k)]) == (0, "0\n", "")
        rc, out, err = run_cli(capsys, argv + [str(k + 1)])
        assert (rc, out) == (2, "") and "exceeds the cap" in err
    assert cli.MAX_SWEEP_ORDER > 21
    for command in ("verify", "bench"):
        argv = [command, "--family", "fibonacci", "--node-budget", "0", "--max-order"]
        rc, out, _ = run_cli(capsys, argv + [str(cli.MAX_SWEEP_ORDER)])
        assert rc == 0 and out.count("\n") > cli.MAX_SWEEP_ORDER
        rc, out, err = run_cli(capsys, argv + [str(cli.MAX_SWEEP_ORDER + 1)])
        assert (rc, out) == (2, "") and "exceeds the cap" in err


@needs_digit_limit
@pytest.mark.parametrize("command", ["verify", "bench"])
@pytest.mark.parametrize("extra", [[], ["--json"]])
def test_sweep_past_digit_limit_exits_2(capsys, monkeypatch, command, extra):
    huge = 10 ** DIGIT_LIMIT
    monkeypatch.setattr(formulas, "wiener_binomial", lambda k: huge)
    monkeypatch.setattr(formulas, "wiener_binomial_recurrence", lambda k: huge)
    monkeypatch.setattr(compose, "replay_w", lambda family, k: huge)
    rc, out, err = run_cli(capsys, [command, "--family", "binomial",
                                    "--max-order", "2", "--node-budget", "0"]
                           + extra)
    assert rc == 2
    assert out == ""
    assert err.startswith("error:")


def test_unknown_family_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        cli.main(["closed-form", "--family", "ternary", "--order", "3"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# generate / compute
# ---------------------------------------------------------------------------

def test_generate_single_edge(tmp_path, capsys):
    out_file = tmp_path / "b1.tree"
    rc, _, _ = run_cli(capsys, ["generate", "--family", "binomial",
                                "--order", "1", "--out", str(out_file)])
    assert rc == 0
    assert out_file.read_text() == "2\n0 1\n"


def test_generate_fibonacci_two(tmp_path, capsys):
    out_file = tmp_path / "f2.tree"
    rc, _, _ = run_cli(capsys, ["generate", "--family", "fibonacci",
                                "--order", "2", "--out", str(out_file)])
    assert rc == 0
    assert out_file.read_text() == "3\n0 1\n0 2\n"


def test_generate_empty_tree(tmp_path, capsys):
    out_file = tmp_path / "bf0.tree"
    rc, _, _ = run_cli(capsys, ["generate", "--family", "binary-fibonacci",
                                "--order", "0", "--out", str(out_file)])
    assert rc == 0
    assert out_file.read_text() == "0\n"


def test_generate_budget_exceeded_mentions_node_count(tmp_path, capsys):
    rc, _, err = run_cli(capsys, ["generate", "--family", "binomial",
                                  "--order", "10", "--out", str(tmp_path / "x"),
                                  "--max-nodes", "100"])
    assert rc == 2
    assert "1024" in err


@needs_digit_limit
@pytest.mark.parametrize("family,order", [
    ("binomial", 4 * DIGIT_LIMIT),    # 2^k nodes: about 1.2 * limit digits
    ("fibonacci", 7 * DIGIT_LIMIT),   # F(k+2) nodes: about 1.46 * limit digits
])
def test_generate_budget_error_past_digit_limit_exits_2(tmp_path, capsys,
                                                        family, order):
    # The node count has no decimal form; the message names its size instead.
    out_file = tmp_path / "x.tree"
    rc, out, err = run_cli(capsys, ["generate", "--family", family, "--order",
                                    str(order), "--out", str(out_file)])
    assert rc == 2
    assert out == ""
    assert err.startswith("error: tree requires <") and err.count("\n") == 1
    assert "-bit integer> nodes, exceeding the budget of 4194304" in err
    assert "Traceback" not in err
    assert not out_file.exists()


@pytest.mark.parametrize("family", cli.FAMILY_CHOICES)
def test_generate_order_past_cap_exits_2_at_once(tmp_path, capsys, monkeypatch, family):
    # The node count alone, F(10^9 + 2) or 2^(10^9), took seconds and memory;
    # it is stubbed to fail, so code without the cap fails at once.
    monkeypatch.setattr(trees, "node_count", node_count_called)
    out_file = tmp_path / "x.tree"
    t0 = time.perf_counter()
    rc, out, err = run_cli(capsys, ["generate", "--family", family, "--order",
                                    str(10**9), "--out", str(out_file)])
    assert time.perf_counter() - t0 < 1.0
    assert (rc, out) == (2, "")
    assert err == ("error: order 1000000000 exceeds the cap of "
                   f"{cli.MAX_LINEAR_ORDER} on the order of a generated tree\n")
    assert not out_file.exists()


@pytest.mark.parametrize("existing", [None, "1\n"], ids=["new", "existing"])
def test_generate_failing_to_render_leaves_no_file(tmp_path, capsys, monkeypatch,
                                                   existing):
    # The text is rendered before --out is opened: no empty file is left
    # behind, and a file already there is not truncated.
    out_file = tmp_path / "x.tree"
    if existing is not None:
        out_file.write_text(existing)
    monkeypatch.setattr(cli, "serialize", _raises(MemoryError()))
    rc, out, err = run_cli(capsys, ["generate", "--family", "fibonacci",
                                    "--order", "4", "--out", str(out_file)])
    assert (rc, out, err) == (2, "", "error: out of memory\n")
    if existing is None:
        assert not out_file.exists()
    else:
        assert out_file.read_text() == existing


# Fibonacci 24, a 1,477,208-byte edge list: large enough that the text, and
# not one slice's temporaries (some 0.55 MB at 4,096 lines), sets the peak.
# cli.main renders it as bytes pieces and writes them as they are, and
# peaks at 3.04 MB; the same call that joined the pieces into one str and
# encoded it for a text-mode file peaked at 4.27 MB.  The bound is about
# 20% above the first.  On Fibonacci 20 a slice's temporaries outweigh the
# 190 kB text, and both read 1.07 MB.
GENERATE_OUT_PEAK_BOUND = 3_650_000


def test_generate_out_holds_the_text_once(tmp_path):
    out_file = tmp_path / "f24.tree"
    codes = []
    argv = ["generate", "--family", "fibonacci", "--order", "24", "--out", str(out_file)]
    assert peak_memory(lambda: codes.append(cli.main(argv))) < GENERATE_OUT_PEAK_BOUND
    assert codes == [0] and out_file.stat().st_size == 1_477_208


def test_compute_linear_on_path(tmp_path, capsys):
    f = tmp_path / "path3.tree"
    f.write_text("3\n0 1\n1 2\n")
    rc, out, _ = run_cli(capsys, ["compute", "--in", str(f), "--algo", "linear"])
    assert rc == 0 and out == "4\n"


def test_compute_bfs_on_generated_tree(tmp_path, capsys):
    f = tmp_path / "b2.tree"
    assert cli.main(["generate", "--family", "binomial", "--order", "2",
                     "--out", str(f)]) == 0
    capsys.readouterr()
    rc, out, _ = run_cli(capsys, ["compute", "--in", str(f), "--algo", "bfs"])
    assert rc == 0 and out == "10\n"


@pytest.mark.parametrize("family", [f.value for f in TreeFamily])
def test_compute_walks_a_generated_file_once(tmp_path, capsys, monkeypatch, family):
    # parse's check that the file is a tree also gives wiener_linear its
    # order: one _parents_first walk per compute, not one each.
    f = tmp_path / "t.tree"
    assert cli.main(["generate", "--family", family, "--order", "9",
                     "--out", str(f)]) == 0
    walks = []
    real = trees._parents_first
    monkeypatch.setattr(trees, "_parents_first",
                        lambda parent: walks.append(len(parent)) or real(parent))
    rc, out, _ = run_cli(capsys, ["compute", "--in", str(f)])
    assert rc == 0 and out == f"{cli.ROUTES['closed'](TreeFamily(family), 9)}\n"
    assert len(walks) == 1


def test_compute_bfs_past_node_cap_exits_2_before_any_search(tmp_path, capsys,
                                                          monkeypatch):
    def path_file(n):
        f = tmp_path / f"path{n}.tree"
        f.write_text(f"{n}\n" + "".join(f"{v} {v + 1}\n" for v in range(n - 1)))
        return str(f)

    def no_search(tree):
        raise AssertionError("wiener_bfs ran")

    monkeypatch.setattr(oracle, "wiener_bfs", no_search)
    n = cli.MAX_BFS_NODES + 1
    over = path_file(n)
    rc, out, err = run_cli(capsys, ["compute", "--in", over, "--algo", "bfs"])
    assert (rc, out) == (2, "")
    assert err == (f"error: tree of {n} nodes exceeds the cap of "
                   f"{cli.MAX_BFS_NODES} nodes on the quadratic oracle (--algo bfs)\n")
    assert run_cli(capsys, ["compute", "--in", over, "--algo", "linear"]) == (
        0, f"{(n ** 3 - n) // 6}\n", "")
    monkeypatch.setattr(oracle, "wiener_bfs", lambda tree: tree.n)
    at_cap = path_file(cli.MAX_BFS_NODES)
    assert run_cli(capsys, ["compute", "--in", at_cap, "--algo", "bfs"]) == (
        0, f"{cli.MAX_BFS_NODES}\n", "")


def test_compute_malformed_file_exits_2(tmp_path, capsys):
    f = tmp_path / "bad.tree"
    f.write_text("3\n0 1\n1 2\n2 0\n")
    rc, _, err = run_cli(capsys, ["compute", "--in", str(f)])
    assert rc == 2
    assert "line 4" in err


def test_compute_non_ascii_byte_exits_2(tmp_path, capsys):
    f = tmp_path / "byte.tree"
    f.write_bytes(b"3\n0 1\n0 \xff2\n")
    rc, out, err = run_cli(capsys, ["compute", "--in", str(f)])
    assert (rc, out) == (2, "")
    assert "line 3" in err


def test_compute_header_past_max_nodes_exits_2(tmp_path, capsys):
    # A two-line file whose header claims one node past the budget: refused
    # from the header, with the budget in the message, before any array is
    # sized by it (exit 2, not a ParseError about the line count).
    f = tmp_path / "big.tree"
    big = trees.DEFAULT_NODE_BUDGET + 1
    f.write_text(f"{big}\n0 1\n")
    assert run_cli(capsys, ["compute", "--in", str(f)]) == (
        2, "", f"error: tree requires {big} nodes, exceeding the budget of "
               f"{trees.DEFAULT_NODE_BUDGET}\n")
    f.write_text("2\n0 1\n")
    assert run_cli(capsys, ["compute", "--in", str(f), "--max-nodes", "2"]) == (0, "1\n", "")
    assert run_cli(capsys, ["compute", "--in", str(f), "--max-nodes", "1"]) == (
        2, "", "error: tree requires 2 nodes, exceeding the budget of 1\n")
    # A header past the ids an 'i' array holds, whatever --max-nodes says.
    f.write_text(f"{2**31}\n0 1\n")
    assert run_cli(capsys, ["compute", "--in", str(f), "--max-nodes", str(2**40)]) == (
        2, "", f"error: tree requires {2**31} nodes, exceeding the budget of "
               f"{2**31 - 1}\n")


def test_compute_refuses_a_header_past_budget_before_the_body(tmp_path, capsys):
    # 4 MB of edge lines under a header one node past the budget, with LF
    # and with CRLF line ends: compute reads the header alone, so its peak
    # stays far below the body's size.  The last line holds a byte past
    # ASCII, which a read of the whole file would report instead, as a
    # ParseError.
    f = tmp_path / "big.tree"
    big = trees.DEFAULT_NODE_BUDGET + 1
    for eol in (b"\n", b"\r\n"):
        text = b"%d\n" % big + b"0 1\n" * 1_000_000 + b"0 \xff\n"
        f.write_bytes(text.replace(b"\n", eol))
        codes = []
        assert peak_memory(lambda: codes.append(cli.main(["compute", "--in", str(f)]))) < 1_000_000
        assert codes == [2]
        assert capsys.readouterr() == (
            "", f"error: tree requires {big} nodes, exceeding the budget of "
                f"{trees.DEFAULT_NODE_BUDGET}\n")


@pytest.mark.parametrize("eol", [b"\r\n", b"\r"], ids=["crlf", "lone-cr"])
def test_compute_reads_cr_line_ends_like_lf(tmp_path, capsys, eol):
    # compute reads the file's bytes, with no newline translation, so the
    # line reader ends lines at CRLF and at a lone CR as at LF: the same W,
    # and the same line in an error, whether the line is counted as the
    # lines are read (the cycle) or from the whole text (the edge count).
    f = tmp_path / "t.tree"
    assert cli.main(["generate", "--family", "fibonacci", "--order", "12",
                     "--out", str(f)]) == 0
    w = f"{cli.ROUTES['closed'](TreeFamily.FIBONACCI, 12)}\n"
    for lf, want in ((f.read_bytes(), (0, w, "")),
                     (b"3\n0 1\n\n1 2\n2 0\n",
                      (2, "", "error: line 5: edge 2 0 closes a cycle\n")),
                     (b"4\n0 1\n\n1 2\n",
                      (2, "", "error: line 4: tree on 4 nodes needs 3 edges, found 2 "
                              "(disconnected or multiple roots)\n"))):
        f.write_bytes(lf)
        assert run_cli(capsys, ["compute", "--in", str(f)]) == want
        f.write_bytes(lf.replace(b"\n", eol))
        assert run_cli(capsys, ["compute", "--in", str(f)]) == want


def test_compute_empty_tree_exits_2(tmp_path, capsys):
    f = tmp_path / "empty.tree"
    f.write_text("0\n")
    rc, _, err = run_cli(capsys, ["compute", "--in", str(f)])
    assert rc == 2


def test_compute_missing_file_exits_2(tmp_path, capsys):
    rc, _, err = run_cli(capsys, ["compute", "--in", str(tmp_path / "nope")])
    assert rc == 2


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_fibonacci_all_match(capsys):
    rc, out, _ = run_cli(capsys, ["verify", "--family", "fibonacci",
                                  "--max-order", "15", "--node-budget", "2000"])
    assert rc == 0
    assert "all match" in out
    assert "mismatch" not in out


def test_verify_marks_oracle_skips_beyond_budget(capsys):
    rc, out, _ = run_cli(capsys, ["verify", "--family", "binomial",
                                  "--max-order", "12", "--node-budget", "2000"])
    assert rc == 0
    rows = {line.split()[0]: line.split() for line in out.splitlines()[1:]
            if line and line[0].isdigit()}
    assert rows["11"][4] == "-" and rows["11"][5] == "skipped"
    assert rows["12"][5] == "skipped"
    assert rows["10"][5] == "match"


def test_quadratic_oracle_skipped_past_node_cap(capsys, monkeypatch):
    # Binomial orders 4, 5 and 6 have 16, 32 and 64 nodes; with the cap at 20
    # the quadratic oracle runs at order 4 only, though all fit --node-budget.
    monkeypatch.setattr(cli, "MAX_BFS_NODES", 20)
    searched = []
    bfs = oracle.wiener_bfs
    monkeypatch.setattr(oracle, "wiener_bfs",
                        lambda tree: searched.append(tree.n) or bfs(tree))
    argv = ["--family", "binomial", "--max-order", "6", "--node-budget", "100"]

    def rows(out):
        return {line.split()[0]: line.split()[-2:] for line in out.splitlines()[1:]
                if line and line[0].isdigit()}

    rc, out, _ = run_cli(capsys, ["verify"] + argv)
    assert rc == 0 and max(searched) == 16
    assert rows(out)["4"][1] == "match"
    assert rows(out)["5"] == rows(out)["6"] == ["-", "skipped"]
    # Past the cap the linear oracle is still compared.
    linear = oracle.wiener_linear
    monkeypatch.setattr(oracle, "wiener_linear",
                        lambda tree: linear(tree) + (tree.n == 64))
    rc, out, _ = run_cli(capsys, ["verify"] + argv)
    assert rc == 1 and rows(out)["6"] == ["-", "mismatch"]
    searched.clear()
    rc, out, _ = run_cli(capsys, ["bench", "--bfs-budget", "1000"] + argv)
    assert rc == 0 and max(searched) == 16
    assert [line.split()[-1] for line in out.splitlines()[1:]] == (
        ["ran"] * 5 + ["skipped"] * 2)


def test_verify_binary_fibonacci_notes_literal_divergence(capsys):
    rc, out, _ = run_cli(capsys, ["verify", "--family", "binary-fibonacci",
                                  "--max-order", "12", "--node-budget", "2000"])
    assert rc == 0
    assert "5 at order 3" in out and "10" in out
    assert "not a failure" in out


def test_verify_note_quotes_the_recurrences():
    # The note is a fixed sentence; its two numbers are the recurrences' values.
    note = TreeFamily.BINARY_FIBONACCI.spec.verify_note
    assert (f"gives {formulas.wiener_binfib_literal(3)} at order 3 where direct "
            f"enumeration gives {formulas.wiener_binfib(3)};") in note


def test_verify_json_roundtrips(capsys):
    rc, out, _ = run_cli(capsys, ["verify", "--family", "fibonacci",
                                  "--max-order", "30", "--node-budget", "500",
                                  "--json"])
    assert rc == 0
    payload = json.loads(out)
    assert payload["all_match"] is True
    for entry in payload["entries"]:
        assert int(entry["formula_value"]) == int(entry["replay_value"])
        if entry["oracle_value"] is not None:
            assert int(entry["oracle_value"]) == int(entry["formula_value"])
        else:
            assert entry["status"] == "skipped"


def _off_by_one_at_order_3(module, name):
    """Replace module.name by a copy whose W is one too high on the order-3
    binomial tree (8 nodes) and right everywhere else."""
    right = getattr(module, name)
    if module is oracle:
        return lambda tree: right(tree) + (tree.n == 8)
    return lambda *args: right(*args) + (args[-1] == 3)


@pytest.mark.parametrize("module,name", [
    (formulas, "wiener_binomial"),
    (formulas, "wiener_binomial_recurrence"),
    (compose, "replay_w"),
    (oracle, "wiener_linear"),
    (oracle, "wiener_bfs"),
], ids=["closed", "recurrence", "replay", "linear", "bfs"])
def test_verify_detects_mismatch(capsys, monkeypatch, module, name):
    # Each route alone, wrong at one order, turns that row into a mismatch.
    monkeypatch.setattr(module, name, _off_by_one_at_order_3(module, name))
    rc, out, _ = run_cli(capsys, ["verify", "--family", "binomial",
                                  "--max-order", "3", "--node-budget", "100"])
    assert rc == 1
    statuses = [line.split()[-1] for line in out.splitlines()[1:-1]]
    assert statuses == ["match"] * 3 + ["mismatch"]
    assert out.endswith("result: MISMATCH\n")


def test_verify_bad_max_order(capsys):
    rc, _, err = run_cli(capsys, ["verify", "--family", "binary-fibonacci",
                                  "--max-order", "0", "--node-budget", "10"])
    assert rc == 2
    assert "--max-order" in err


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------

def test_bench_stdout_deterministic_timings_on_stderr(capsys):
    args = ["bench", "--family", "fibonacci", "--max-order", "8",
            "--bfs-budget", "10"]
    rc1, out1, err1 = run_cli(capsys, args)
    rc2, out2, err2 = run_cli(capsys, args)
    assert rc1 == rc2 == 0
    assert out1 == out2  # wall times never reach stdout
    assert "wiener" in out1 and "skipped" in out1
    assert "closed_form_s" in err1


def test_bench_json_times_in_dedicated_field(capsys):
    rc, out, _ = run_cli(capsys, ["bench", "--family", "binomial",
                                  "--max-order", "6", "--json"])
    assert rc == 0
    payload = json.loads(out)
    for entry in payload["entries"]:
        assert isinstance(entry["value"], str)
        assert isinstance(entry["nodes"], str)
        assert set(entry["seconds"]) == {"closed_form", "replay", "linear", "bfs"}
    values = [int(e["value"]) for e in payload["entries"]]
    assert values == [formulas.wiener_binomial(k) for k in range(7)]


def test_bench_and_verify_gate_the_oracles_alike(capsys, monkeypatch):
    # Binomial orders 0-6 have 1-64 nodes: both oracles run at orders 0-3,
    # only the linear one at 4 and 5, and neither at 6.
    monkeypatch.setattr(cli, "MAX_BFS_NODES", 10)
    argv = ["--family", "binomial", "--max-order", "6", "--node-budget", "40"]

    def table(out):
        return [line.split() for line in out.splitlines()[1:] if line[:1].isdigit()]

    rc, out, _ = run_cli(capsys, ["verify"] + argv)
    assert rc == 0
    verify = table(out)
    rc, out, _ = run_cli(capsys, ["bench"] + argv)
    assert rc == 0
    bench = table(out)
    assert [row[:2] for row in bench] == [row[:2] for row in verify]
    assert [row[2] for row in bench] == [row[2] for row in verify]
    assert [row[3] == "ran" for row in bench] == [int(row[1]) <= 40 for row in bench]
    assert [row[4] == "ran" for row in bench] == [row[4] != "-" for row in verify]
    assert [row[3:] for row in bench] == (
        [["ran", "ran"]] * 4 + [["ran", "skipped"]] * 2 + [["skipped", "skipped"]])


@pytest.mark.parametrize("family", cli.FAMILY_CHOICES)
def test_bench_evaluates_no_recurrence(capsys, monkeypatch, family):
    # bench times the closed form and replay, not the O(k) recurrence: with
    # every recurrence refusing, it prints what it printed before, oracle
    # columns included.  verify still compares them (see
    # test_verify_detects_mismatch).
    argv = ["bench", "--family", family, "--max-order", "30", "--node-budget", "3000"]
    rc, expected, _ = run_cli(capsys, argv)
    assert rc == 0
    for name in ("wiener_binomial_recurrence", "wiener_fib", "wiener_binfib"):
        monkeypatch.setattr(formulas, name, _raises(AssertionError(f"{name} called")))
    assert run_cli(capsys, argv)[:2] == (0, expected)


def test_sweep_drops_each_tree_after_its_oracles():
    # Binary Fibonacci orders 17 to 19 have 4180, 6764 and 10945 nodes, past
    # the budget, so they run only the routes: no tree should be alive
    # there.  The order-16 tree (2583 nodes) takes about 0.2 MB.  The
    # quadratic oracle is left out (bfs_budget 0): it is slow under
    # tracemalloc and holds no tree of its own.
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        held = {k: tracemalloc.get_traced_memory()[0] - base
                for k, _, _ in cli._sweep(TreeFamily.BINARY_FIBONACCI, 19, 3000, 0)}
    finally:
        tracemalloc.stop()
    assert max(held[k] for k in (17, 18, 19)) < 50_000, held


def test_bench_infeasible_tiers_marked(capsys):
    rc, out, _ = run_cli(capsys, ["bench", "--family", "fibonacci",
                                  "--max-order", "40", "--node-budget", "1000",
                                  "--bfs-budget", "100"])
    assert rc == 0
    last = out.strip().splitlines()[-1]
    assert last.startswith("40") and "skipped" in last


# ---------------------------------------------------------------------------
# determinism and module entry point
# ---------------------------------------------------------------------------

def test_stdout_byte_identical_across_runs(capsys):
    for args in (
        ["closed-form", "--family", "fibonacci", "--order", "300"],
        ["verify", "--family", "binomial", "--max-order", "9",
         "--node-budget", "600"],
    ):
        _, first, _ = run_cli(capsys, args)
        _, second, _ = run_cli(capsys, args)
        assert first == second


def _live_parsers() -> int:
    """The treewiener parsers the collector tracks, garbage included."""
    return sum(isinstance(o, argparse.ArgumentParser) and o.prog.startswith("treewiener")
               for o in gc.get_objects())


def test_main_frees_its_parser_before_the_command(monkeypatch):
    # argparse leaves reference cycles.  Left to the collector's timing,
    # parsers of earlier calls, promoted to older generations, lived on
    # amid later commands' tree buffers; main frees them before any command.
    gc.collect()
    seen = []
    monkeypatch.setattr(cli, "cmd_closed_form", lambda args: seen.append(_live_parsers()) or 0)
    for _ in range(3):
        assert cli.main(["closed-form", "--family", "binomial", "--order", "3"]) == 0
    assert seen == [0, 0, 0]


@pytest.mark.parametrize("argv", [
    ["closed-form", "--family", "binomial", "--order", "3"],
    ["closed-form", "--family", "binomial", "--order", "x"],  # a usage error
])
def test_main_keeps_the_collector_as_it_found_it(capsys, argv):
    # Paused by the caller, the collector stays paused and main runs no
    # collection; running, it stays running, after a usage error too.
    collections = []

    def record(phase, info):
        collections.append(phase)

    gc.callbacks.append(record)
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            collections.clear()
            try:
                cli.main(argv)
            except SystemExit as exc:
                assert exc.code == 2
            assert gc.isenabled() is enabled
            assert bool(collections) is enabled
    finally:
        gc.callbacks.remove(record)
        gc.enable()


def _parsed(capsys, parse, argv) -> tuple:
    """What parse(argv) gives: its namespace, or the SystemExit code, then
    the stdout and stderr it wrote."""
    try:
        outcome = ("namespace", vars(parse(argv)))
    except SystemExit as exc:
        outcome = ("exit", exc.code)
    return outcome + tuple(capsys.readouterr())


@pytest.mark.parametrize("argv,command", [
    ([], None),
    (["-h"], None),
    *[([name, "-h"], name) for name in cli.COMMANDS],
    (["closed-form", "--family", "binomial", "--order", "5"], "closed-form"),
    (["compute", "--in", "t.tree"], "compute"),
    (["bench", "--family", "fibonacci", "--max-order", "9", "--json"], "bench"),
    (["treewiener", "--order", "5"], "treewiener"),  # an unknown command
    (["--family", "binomial", "closed-form"], "binomial"),  # an option before it
    (["verify", "--family", "fibonacci", "--max-order", "4", "extra"], "verify"),
    (["closed-form", "--family", "path", "--order", "5"], "closed-form"),  # a bad choice
    (["generate", "--family", "binomial", "--order", "x", "--out", "t"], "generate"),
    (["generate", "--family", "binomial", "--order", "5"], "generate"),  # no --out
    (["verify", "--fam", "binomial", "--max-o", "4", "--node", "9"], "verify"),
    (["compute", "--in", "t.tree", "--al", "bfs", "--max-n", "7"], "compute"),
    (["--", "closed-form", "--family", "binomial", "--order", "5"], "closed-form"),
    (["generate", "--family", "fibonacci", "--order", "3", "--out", "verify"], "generate"),
])
def test_main_builds_only_the_named_commands_arguments(capsys, monkeypatch, argv, command):
    # main builds only the subparser of the first token that does not start
    # with "-", which is the command argparse picks: its namespace, or its
    # exit code, stdout and stderr, are those of the parser with every
    # command's arguments.
    built, ran = [], []
    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda command=None: built.append(command) or real(command))
    for _, handler, _ in cli.COMMANDS.values():
        monkeypatch.setattr(cli, handler, lambda args: ran.append(args) or 0)
    whole = _parsed(capsys, real().parse_args, argv)
    lean = _parsed(capsys, lambda argv: cli.main(argv) == 0 and ran[-1], argv)
    assert built == [command]
    assert lean == whole
    assert whole[0] == "exit" or whole[1]["command"] == command


def _subparser_options(parser) -> dict:
    """{subcommand: its option strings, and its handler or None}."""
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {name: ({o for a in p._actions for o in a.option_strings}, p.get_default("func"))
            for name, p in sub.choices.items()}


def test_parser_for_one_command_adds_only_its_arguments():
    # benchmarks/run.py times build_parser() with no command, which still
    # adds every subcommand's arguments and handler.
    whole = _subparser_options(cli.build_parser())
    assert list(whole) == list(cli.COMMANDS)
    for name, (_, handler, arguments) in cli.COMMANDS.items():
        options = {"-h", "--help"} | {option for option, _ in arguments}
        assert whole[name] == (options, getattr(cli, handler))
    assert _subparser_options(cli.build_parser("no-such-command")) == whole
    lean = _subparser_options(cli.build_parser("closed-form"))
    assert list(lean) == list(cli.COMMANDS)
    assert lean["closed-form"] == whole["closed-form"]
    for name in cli.COMMANDS.keys() - {"closed-form"}:
        assert lean[name] == ({"-h", "--help"}, None)


def test_import_loads_no_process_pool():
    # Every command starts by importing the CLI; it needs no worker pool,
    # no dataclass machinery (dataclasses pulls in inspect), and no json,
    # which only the --json branches import.
    src = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))
    code = (f"import sys; sys.path.insert(0, {src!r}); import treewiener.cli; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('concurrent', 'multiprocessing', "
            "'dataclasses', 'inspect', 'json')))")
    proc = subprocess.run([sys.executable, "-I", "-c", code],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_python_dash_m_entry_point():
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    proc = subprocess.run(
        [sys.executable, "-m", "treewiener", "closed-form", "--family",
         "binomial", "--order", "3"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout == "68\n"


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="no /dev/stdin")
def test_compute_reads_a_pipe_whole():
    # A pipe cannot be read again from its start, so compute joins the
    # head it checked to the rest: a tree within the budget, short or past
    # the head, reads as from a file, and a header past the budget is
    # refused before the body, whose byte past ASCII a read of the whole
    # input would report instead, as a ParseError.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))

    def compute(data):
        proc = subprocess.run([sys.executable, "-m", "treewiener", "compute", "--in",
                               "/dev/stdin"], input=data, capture_output=True, env=env)
        return proc.returncode, proc.stdout, proc.stderr

    assert compute(b"3\n0 1\n1 2\n") == (0, b"4\n", b"")
    fib12 = b"".join(trees.serialize(trees.fibonacci_tree(12)))
    assert len(fib12) > trees._HEADER_BYTES
    assert compute(fib12) == (
        0, b"%d\n" % cli.ROUTES["closed"](TreeFamily.FIBONACCI, 12), b"")
    big = trees.DEFAULT_NODE_BUDGET + 1
    assert compute(b"%d\n0 \xff\n" % big) == (
        2, b"", b"error: tree requires %d nodes, exceeding the budget of %d\n"
        % (big, trees.DEFAULT_NODE_BUDGET))
