import json
import os
import subprocess
import sys
from types import SimpleNamespace

import pytest

from treewiener import cli, compose, formulas
from treewiener.errors import NotDivisibleError

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


def test_closed_form_divisibility_violation_exits_3(capsys, monkeypatch):
    monkeypatch.setattr(formulas, "wiener_binfib",
                        lambda k: (_ for _ in ()).throw(NotDivisibleError(7, 5, 2)))
    rc, _, err = run_cli(capsys, ["closed-form", "--family", "binary-fibonacci",
                                  "--order", "4"])
    assert rc == 3
    assert "internal error" in err


@needs_digit_limit
@pytest.mark.parametrize("extra", [[], ["--json"]])
def test_closed_form_past_digit_limit_exits_2(capsys, extra):
    # W of the order-k binomial tree has about 0.6 k decimal digits.
    rc, out, err = run_cli(capsys, ["closed-form", "--family", "binomial",
                                    "--order", str(2 * DIGIT_LIMIT)] + extra)
    assert rc == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@needs_digit_limit
@pytest.mark.parametrize("command", ["verify", "bench"])
@pytest.mark.parametrize("extra", [[], ["--json"]])
def test_sweep_past_digit_limit_exits_2(capsys, monkeypatch, command, extra):
    huge = 10 ** DIGIT_LIMIT
    monkeypatch.setattr(formulas, "wiener_binomial", lambda k: huge)
    monkeypatch.setattr(formulas, "wiener_binomial_recurrence", lambda k: huge)
    monkeypatch.setattr(compose, "replay_family",
                        lambda family, k: SimpleNamespace(w=huge))
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


def test_compute_malformed_file_exits_2(tmp_path, capsys):
    f = tmp_path / "bad.tree"
    f.write_text("3\n0 1\n1 2\n2 0\n")
    rc, _, err = run_cli(capsys, ["compute", "--in", str(f)])
    assert rc == 2
    assert "line 4" in err


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


def test_verify_binary_fibonacci_notes_literal_divergence(capsys):
    rc, out, _ = run_cli(capsys, ["verify", "--family", "binary-fibonacci",
                                  "--max-order", "12", "--node-budget", "2000"])
    assert rc == 0
    assert "5 at order 3" in out and "10" in out
    assert "not a failure" in out


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


def test_verify_parallel_matches_sequential(capsys):
    args = ["verify", "--family", "binary-fibonacci", "--max-order", "10",
            "--node-budget", "500"]
    rc1, out1, _ = run_cli(capsys, args)
    rc2, out2, _ = run_cli(capsys, args + ["--jobs", "2"])
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_verify_jobs_capped_by_orders_and_cpus(capsys, monkeypatch):
    started = []

    class SerialPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    few = ["verify", "--family", "fibonacci", "--max-order", "1"]  # orders -1..1
    many = ["verify", "--family", "fibonacci", "--max-order", "9"]
    for args in (few, many):
        rc, out, _ = run_cli(capsys, args + ["--jobs", "64"])
        assert rc == 0
        assert (rc, out) == run_cli(capsys, args)[:2]
    assert started == [3, 4]


def test_verify_detects_mismatch(capsys, monkeypatch):
    monkeypatch.setattr(formulas, "wiener_binomial", lambda k: 999)
    rc, out, _ = run_cli(capsys, ["verify", "--family", "binomial",
                                  "--max-order", "3", "--node-budget", "100"])
    assert rc == 1
    assert "MISMATCH" in out


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
