"""Command-line front end.

Subcommands:
  closed-form   evaluate W for a family/order by formula, recurrence, or replay
  generate      materialize a tree and write it as an edge-list file
  compute       run a brute-force Wiener algorithm on an edge-list file
  verify        sweep orders, comparing formula vs recurrence vs replay vs oracles
  bench         time the closed-form path against the O(n) and O(n^2) tiers

Exit codes: 0 success, 1 verification mismatch, 2 usage or input error
(out of memory included), 3 internal invariant violation (a division that
should have been exact).

All numeric output is exact decimal; JSON mode renders integers as decimal
strings because the values outgrow every fixed-width type.  Stdout is
byte-deterministic for identical invocations; bench writes its wall-clock
numbers to stderr (text mode) or into a dedicated "seconds" field (JSON).

main builds a parser on every call, and at small orders building it costs
more than the evaluation, so it adds only the named subcommand's arguments
(build_parser(command)).  Every subcommand is still registered with its
help, so --help, usage lines and error messages are those of the parser
with every argument.
"""

import argparse
import sys
import time

from treewiener import compose, oracle
from treewiener.errors import (
    InvalidOrderError,
    NotDivisibleError,
    TreeWienerError,
)
from treewiener.trees import (
    DEFAULT_NODE_BUDGET,
    MAX_LINEAR_ORDER,
    TreeFamily,
    generate,
    node_count,
    parse,
    read_edge_list,
    serialize,
)

FAMILY_CHOICES = [f.value for f in TreeFamily]

# Work caps on an order, checked before any evaluation starts.  The first
# two sit far above the largest order a benchmark request asks for (12,000).
#
# MAX_RESULT_BITS caps --method closed by a bound on W's bit length that k
# alone gives: from order 0 on, every family has at most 2^k vertices, any
# two at most 2k edges apart, so W < k * 4^k has at most 2k + k.bit_length()
# bits.  At the cap a Fibonacci closed form (k near 4.2 million) takes
# seconds, and the binomial one is a shift.
MAX_RESULT_BITS = 1 << 23
# MAX_LINEAR_ORDER, trees.generate's cap on the order of a tree, also caps k
# for the recurrence and replay routes.  The recurrence's O(k) additions on
# integers that grow with k take time that grows like k^2: 0.05-0.06 s for
# binomial and 0.38-0.45 s for the two Fibonacci families at the cap
# (Python 3.11, in process, best of 3, two runs, decimal output included).
# Replay takes 0.03-0.08 s there (Python 3.11, one run per family, decimal
# output included) and keeps the cap, so both routes refuse the same
# orders.
# MAX_SWEEP_ORDER caps the --max-order K of verify and bench.  verify's sweep
# runs the recurrence from scratch at every order up to K, so that its time
# grows like K^3; bench's runs the closed form and replay, which cost
# O(log k) multiplications per order.  At the cap the slowest family, binary
# Fibonacci, takes 2.3 s to verify and 0.6 s to bench without the oracles,
# 2.9 s and 1.2 s with them (--node-budget 0 and the default; Python 3.11,
# in process, best of 3).
MAX_SWEEP_ORDER = 2_500
# MAX_BFS_NODES caps the tree the quadratic oracle searches, in compute
# --algo bfs, verify and bench (which also keeps its --bfs-budget), and is
# bench's default --bfs-budget.  Its n searches visit n^2 source-vertex
# pairs, so its time grows with the square of the tree.  Near the cap
# (Python 3.11, one run each): the 8192-node binomial tree 0.18 s, a
# 10,000-node random tree 0.24 s, and a 10,000-node path, the slowest
# shape measured, 25 s.  verify still runs the linear oracle on a tree
# past the cap and within --node-budget.
MAX_BFS_NODES = 10_000


def _check_order(k: int, cap: int, what: str, capped: str) -> None:
    if k > cap:
        raise TreeWienerError(
            f"{what} {k} exceeds the cap of {cap} on the order of {capped}")


# The evaluation routes, each (family, k) -> W: the --method choices of
# closed-form, and the routes a verify sweep plays against each other.  They
# look the evaluators up at call time, so replacing a module attribute
# reaches them.
ROUTES = {
    "closed": lambda family, k: family.spec.closed(k),
    "recurrence": lambda family, k: family.spec.recurrence(k),
    "replay": lambda family, k: compose.replay_w(family, k),
}


def _sweep(family: TreeFamily, max_order: int, node_budget: int,
           bfs_budget: int = MAX_BFS_NODES, routes: tuple = tuple(ROUTES)):
    """The sweep behind verify and bench: for every order with a Wiener
    index up to max_order, yield (k, n, {route: (W, seconds)}) for every
    route that ran.  The ROUTES entries named in routes run, all of them by
    default; the oracles "linear" and "bfs" run only while the materialized
    tree fits node_budget, and the quadratic one only up to
    min(bfs_budget, MAX_BFS_NODES) nodes."""
    start = family.spec.min_summary_order
    if max_order < start:
        raise InvalidOrderError(f"--max-order must be >= {start} for {family.value}")
    _check_order(max_order, MAX_SWEEP_ORDER, "--max-order", "a verify or bench sweep")
    for k in range(start, max_order + 1):
        n = node_count(family, k)
        ran = {name: _timed(ROUTES[name], family, k) for name in routes}
        if n <= node_budget:
            tree = generate(family, k, max_nodes=node_budget)
            ran["linear"] = _timed(oracle.wiener_linear, tree)
            if n <= min(bfs_budget, MAX_BFS_NODES):
                ran["bfs"] = _timed(oracle.wiener_bfs, tree)
            # Dropped now: no tree lives on past the node budget, or while
            # the next one is generated.
            del tree
        yield k, n, ran


def _decimal(value) -> str:
    """str(value) for stdout; an integer past the interpreter's
    integer-to-string digit limit is reported as an error, not a crash."""
    try:
        return str(value)
    except ValueError as exc:
        raise TreeWienerError(f"cannot print the result in decimal: {exc}") from None


def _render_table(rows: list, out) -> None:
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    for r in rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip(),
              file=out)


def _print_json(obj) -> None:
    """Print obj to stdout as one line of JSON: the output of every --json
    branch."""
    # Imported where used: only the --json branches need json, and
    # importing it is a measurable share of a command's start-up.
    import json
    print(json.dumps(obj))


def _print_rows(as_json: bool, head: dict, columns: dict, entries: list,
                tail: dict, footer: list) -> None:
    """Print a sweep's entries to stdout, as one JSON object or a table:
    the one place that decides what a sweep prints there in either form.

    In JSON the object is head, then "entries", then tail; every integer in
    an entry except its order is a decimal string.  The table shows the
    entry keys in columns under their headers, with "-" for None, and then
    the lines of footer, which stand for tail in the table's form.  Every
    cell is rendered before anything is printed.
    """
    if as_json:
        rows = [{key: _decimal(v) if isinstance(v, int) and key != "order" else v
                 for key, v in e.items()} for e in entries]
        _print_json({**head, "entries": rows, **tail})
        return
    rows = [list(columns.values())]
    for e in entries:
        rows.append(["-" if e[key] is None else _decimal(e[key]) for key in columns])
    _render_table(rows, sys.stdout)
    for line in footer:
        print(line)


def _timed(fn, *args) -> tuple:
    """(fn(*args), wall seconds it took)."""
    t0 = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - t0


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------

def cmd_closed_form(args) -> int:
    family = TreeFamily(args.family)
    k = args.order
    if args.method == "closed":
        bits = 2 * k + k.bit_length()
        if bits > MAX_RESULT_BITS:
            raise TreeWienerError(
                f"order {k} exceeds the cap on the closed form's result: W may "
                f"need {bits} bits, more than {MAX_RESULT_BITS}")
    else:
        _check_order(k, MAX_LINEAR_ORDER, "order", "the recurrence and replay routes")
    value = _decimal(ROUTES[args.method](family, k))
    if args.json:
        _print_json({"family": family.value, "order": k,
                     "method": args.method, "value": value})
    else:
        print(value)
    return 0


def cmd_generate(args) -> int:
    family = TreeFamily(args.family)
    pieces = serialize(generate(family, args.order, max_nodes=args.max_nodes))
    # Rendered before the file is opened, so an error while rendering
    # leaves no empty file, and an existing one as it was.
    with open(args.out, "wb") as fh:
        fh.writelines(pieces)
    return 0


def cmd_compute(args) -> int:
    data = read_edge_list(args.input, args.max_nodes)
    tree = parse(data, max_nodes=args.max_nodes)
    del data  # not held while the tree is walked
    if args.algo == "bfs" and tree.n > MAX_BFS_NODES:
        raise TreeWienerError(
            f"tree of {tree.n} nodes exceeds the cap of {MAX_BFS_NODES} nodes "
            "on the quadratic oracle (--algo bfs)")
    algo = oracle.wiener_bfs if args.algo == "bfs" else oracle.wiener_linear
    print(_decimal(algo(tree)))
    return 0


def cmd_verify(args) -> int:
    family = TreeFamily(args.family)
    entries = []
    for k, n, ran in _sweep(family, args.max_order, args.node_budget):
        bfs = ran["bfs"][0] if "bfs" in ran else None
        status = ("mismatch" if len({w for w, _ in ran.values()}) > 1
                  else "skipped" if bfs is None else "match")
        entries.append({"order": k, "nodes": n, "formula_value": ran["closed"][0],
                        "replay_value": ran["replay"][0], "oracle_value": bfs,
                        "status": status})
    all_match = all(e["status"] != "mismatch" for e in entries)
    note = family.spec.verify_note
    head = {"family": family.value, "max_order": args.max_order,
            "node_budget": args.node_budget}
    tail = {"all_match": all_match}
    footer = ["result: " + ("all match" if all_match else "MISMATCH")]
    if note:
        tail["note"] = note
        footer.insert(0, note)
    columns = {"order": "order", "nodes": "nodes", "formula_value": "formula",
               "replay_value": "replay", "oracle_value": "oracle",
               "status": "status"}
    _print_rows(args.json, head, columns, entries, tail, footer)
    return 0 if all_match else 1


# bench's timed tiers, in column order, each key to the route or oracle
# whose time it reports: under the key in each JSON entry's "seconds", and
# in the "<key>_s" column of the stderr table.  A tier that did not run
# reports None there, or "-".
_BENCH_TIERS = {"closed_form": "closed", "replay": "replay",
                "linear": "linear", "bfs": "bfs"}


def cmd_bench(args) -> int:
    family = TreeFamily(args.family)
    entries = []
    for k, n, ran in _sweep(family, args.max_order, args.node_budget, args.bfs_budget,
                            ("closed", "replay")):
        seconds = {key: ran[route][1] if route in ran else None
                   for key, route in _BENCH_TIERS.items()}
        entries.append({
            "order": k, "nodes": n, "value": ran["closed"][0],
            "linear": "ran" if "linear" in ran else "skipped",
            "bfs": "ran" if "bfs" in ran else "skipped",
            "seconds": seconds,
        })
    head = {"family": family.value, "max_order": args.max_order}
    columns = {"order": "order", "nodes": "nodes", "value": "wiener",
               "linear": "linear", "bfs": "bfs"}
    _print_rows(args.json, head, columns, entries, {}, [])
    if not args.json:
        # Deterministic surface on stdout; wall times go to stderr.
        trows = [["order"] + [f"{key}_s" for key in _BENCH_TIERS]]
        for e in entries:
            trows.append([str(e["order"])] + ["-" if t is None else f"{t:.6f}"
                                              for t in e["seconds"].values()])
        _render_table(trows, sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# Parser wiring
# ---------------------------------------------------------------------------

_FAMILY = ("--family", {"required": True, "choices": FAMILY_CHOICES})
_ORDER = ("--order", {"required": True, "type": int})
_MAX_ORDER = ("--max-order", {"required": True, "type": int})
_MAX_NODES = ("--max-nodes", {"type": int, "default": DEFAULT_NODE_BUDGET})
_NODE_BUDGET = ("--node-budget", {"type": int, "default": 10**6})
_JSON = ("--json", {"action": "store_true"})

# Every subcommand, in the order --help lists them: name -> (help, the name
# of its handler, its arguments, each (option, add_argument keywords)).  The
# handler is looked up when a parser is built, so replacing a module
# attribute reaches it.
COMMANDS = {
    "closed-form": ("evaluate W(family, order)", "cmd_closed_form", [
        _FAMILY, _ORDER, ("--method", {"choices": list(ROUTES), "default": "closed"}),
        _JSON]),
    "generate": ("write a tree as an edge-list file", "cmd_generate", [
        _FAMILY, _ORDER, ("--out", {"required": True}), _MAX_NODES]),
    "compute": ("Wiener index of an edge-list file", "cmd_compute", [
        ("--in", {"dest": "input", "required": True}),
        ("--algo", {"choices": ["bfs", "linear"], "default": "linear"}), _MAX_NODES]),
    "verify": ("cross-validate formulas against oracles", "cmd_verify", [
        _FAMILY, _MAX_ORDER, _NODE_BUDGET, _JSON]),
    "bench": ("time formula vs linear vs quadratic tiers", "cmd_bench", [
        _FAMILY, _MAX_ORDER, _NODE_BUDGET,
        ("--bfs-budget", {"type": int, "default": MAX_BFS_NODES}), _JSON]),
}


def build_parser(command=None) -> argparse.ArgumentParser:
    """The treewiener parser.  Every subcommand is registered with its help,
    so --help, usage lines and errors read the same whatever command is.
    Only the subparser named command gets its arguments and handler, or
    every subparser when command is None or names no subcommand.

    parse_args reads only the arguments of the subcommand it picks, and
    adding arguments is most of what building the parser costs: main,
    which builds one per call, names its command to skip the others'.
    build_parser() with no command builds the whole parser."""
    parser = argparse.ArgumentParser(
        prog="treewiener",
        description="Exact Wiener indices of binomial, Fibonacci, and binary "
                    "Fibonacci trees.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_, handler, arguments) in COMMANDS.items():
        p = sub.add_parser(name, help=help_)
        if name == command or command not in COMMANDS:
            for option, keywords in arguments:
                p.add_argument(option, **keywords)
            p.set_defaults(func=globals()[handler])
    return parser


def main(argv=None) -> int:
    # argparse leaves reference cycles.  Made with the collector paused, all
    # stay young, and one young collection frees them before the command
    # runs, not a full one many commands later, amid their tree buffers.
    import gc
    collecting = gc.isenabled()
    gc.disable()
    try:
        # The top-level parser takes no option with a value, so the first
        # token not starting with "-" is the only known command parse_args
        # can pick.
        command = next((a for a in (sys.argv[1:] if argv is None else argv)
                        if not a.startswith("-")), None)
        args = build_parser(command).parse_args(argv)
    finally:
        if collecting:
            gc.enable()
            gc.collect(0)
    try:
        return args.func(args)
    except NotDivisibleError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except (TreeWienerError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        # Exit 1 is reserved for a verification mismatch.
        print("error: out of memory", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
