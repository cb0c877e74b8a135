"""Command-line front end.

Subcommands:
  closed-form   evaluate W for a family/order by formula, recurrence, or replay
  generate      materialize a tree and write it as an edge-list file
  compute       run a brute-force Wiener algorithm on an edge-list file
  verify        sweep orders, comparing formula vs recurrence vs replay vs oracles
  bench         time the O(k)-arithmetic path against the O(n) and O(n^2) tiers

Exit codes: 0 success, 1 verification mismatch, 2 usage or input error,
3 internal invariant violation (a division that should have been exact).

All numeric output is exact decimal; JSON mode renders integers as decimal
strings because the values outgrow every fixed-width type.  Stdout is
byte-deterministic for identical invocations; bench writes its wall-clock
numbers to stderr (text mode) or into a dedicated "seconds" field (JSON).
"""

import argparse
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from itertools import repeat

from treewiener import compose, formulas, oracle
from treewiener.errors import (
    InvalidOrderError,
    NotDivisibleError,
    TreeWienerError,
)
from treewiener.trees import (
    DEFAULT_NODE_BUDGET,
    TreeFamily,
    generate,
    node_count,
    parse,
    serialize,
)

FAMILY_CHOICES = [f.value for f in TreeFamily]


@dataclass
class VerificationEntry:
    order: int
    nodes: int
    formula_value: int
    replay_value: int
    oracle_value: int | None
    status: str  # match | mismatch | skipped


@dataclass
class VerificationReport:
    family: TreeFamily
    entries: list = field(default_factory=list)

    @property
    def all_match(self) -> bool:
        return all(e.status != "mismatch" for e in self.entries)


def _verify_order(family: TreeFamily, k: int, node_budget: int) -> VerificationEntry:
    """Compare every evaluation route for one order; oracles only run while
    the materialized tree fits the node budget."""
    formula = family.spec.closed(k)
    recurrence = family.spec.recurrence(k)
    replay = compose.replay_family(family, k).w
    n = node_count(family, k)
    values = [formula, recurrence, replay]
    oracle_value = None
    if n <= node_budget:
        tree = generate(family, k, max_nodes=max(node_budget, 1))
        oracle_value = oracle.wiener_bfs(tree)
        values.append(oracle_value)
        values.append(oracle.wiener_linear(tree))
    if any(v != values[0] for v in values[1:]):
        status = "mismatch"
    elif oracle_value is None:
        status = "skipped"
    else:
        status = "match"
    return VerificationEntry(k, n, formula, replay, oracle_value, status)


def _orders(family: TreeFamily, max_order: int) -> range:
    """Orders a verify or bench sweep covers: every order with a Wiener index."""
    start = family.spec.min_summary_order
    if max_order < start:
        raise InvalidOrderError(f"--max-order must be >= {start} for {family.value}")
    return range(start, max_order + 1)


def run_verify(family: TreeFamily, max_order: int, node_budget: int,
               jobs: int = 1) -> VerificationReport:
    orders = _orders(family, max_order)
    report = VerificationReport(family)
    # A forked pool starts all its workers at once, so never ask for more
    # than there are orders or CPUs.
    workers = min(jobs, len(orders), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            report.entries = list(pool.map(_verify_order, repeat(family), orders,
                                           repeat(node_budget)))
    else:
        report.entries = [_verify_order(family, k, node_budget) for k in orders]
    return report


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


def _print_rows(as_json: bool, head: dict, columns: dict, entries: list,
                tail: dict) -> None:
    """Print a sweep's entries to stdout, as one JSON object or a table.

    In JSON the object is head, then "entries", then tail; every integer in
    an entry except its order is a decimal string.  The table shows the
    entry keys in columns under their headers, with "-" for None.  Every
    cell is rendered before anything is printed.
    """
    if as_json:
        rows = [{key: _decimal(v) if isinstance(v, int) and key != "order" else v
                 for key, v in e.items()} for e in entries]
        print(json.dumps({**head, "entries": rows, **tail}))
        return
    rows = [list(columns.values())]
    for e in entries:
        rows.append(["-" if e[key] is None else _decimal(e[key]) for key in columns])
    _render_table(rows, sys.stdout)


def _literal_note() -> str:
    literal = formulas.wiener_binfib_literal(3)
    corrected = formulas.wiener_binfib(3)
    return (
        f"note: the literal printed recurrence gives {literal} at order 3 "
        f"where direct enumeration gives {corrected}; the corrected form is "
        "used throughout and this divergence is documented, not a failure"
    )


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
        value = family.spec.closed(k)
    elif args.method == "recurrence":
        value = family.spec.recurrence(k)
    else:
        value = compose.replay_family(family, k).w
    value = _decimal(value)
    if args.json:
        print(json.dumps({"family": family.value, "order": k,
                          "method": args.method, "value": value}))
    else:
        print(value)
    return 0


def cmd_generate(args) -> int:
    family = TreeFamily(args.family)
    tree = generate(family, args.order, max_nodes=args.max_nodes)
    with open(args.out, "w", encoding="ascii", newline="\n") as fh:
        fh.write(serialize(tree))
    return 0


def cmd_compute(args) -> int:
    with open(args.input, "r", encoding="ascii") as fh:
        tree = parse(fh.read())
    algo = oracle.wiener_bfs if args.algo == "bfs" else oracle.wiener_linear
    print(_decimal(algo(tree)))
    return 0


def cmd_verify(args) -> int:
    family = TreeFamily(args.family)
    report = run_verify(family, args.max_order, args.node_budget, args.jobs)
    note = _literal_note() if family is TreeFamily.BINARY_FIBONACCI else None
    head = {"family": family.value, "max_order": args.max_order,
            "node_budget": args.node_budget}
    tail = {"all_match": report.all_match}
    if note:
        tail["note"] = note
    columns = {"order": "order", "nodes": "nodes", "formula_value": "formula",
               "replay_value": "replay", "oracle_value": "oracle",
               "status": "status"}
    entries = [asdict(e) for e in report.entries]
    _print_rows(args.json, head, columns, entries, tail)
    if not args.json:
        if note:
            print(note)
        print("result:", "all match" if report.all_match else "MISMATCH")
    return 0 if report.all_match else 1


def cmd_bench(args) -> int:
    family = TreeFamily(args.family)
    entries = []
    for k in _orders(family, args.max_order):
        n = node_count(family, k)
        value, t_closed = _timed(family.spec.closed, k)
        _, t_replay = _timed(compose.replay_family, family, k)
        t_linear = t_bfs = None
        if n <= args.node_budget:
            tree = generate(family, k, max_nodes=max(args.node_budget, 1))
            _, t_linear = _timed(oracle.wiener_linear, tree)
            if n <= args.bfs_budget:
                _, t_bfs = _timed(oracle.wiener_bfs, tree)
        entries.append({
            "order": k, "nodes": n, "value": value,
            "linear": "ran" if t_linear is not None else "skipped",
            "bfs": "ran" if t_bfs is not None else "skipped",
            "seconds": {"closed_form": t_closed, "replay": t_replay,
                        "linear": t_linear, "bfs": t_bfs},
        })
    head = {"family": family.value, "max_order": args.max_order}
    columns = {"order": "order", "nodes": "nodes", "value": "wiener",
               "linear": "linear", "bfs": "bfs"}
    _print_rows(args.json, head, columns, entries, {})
    if not args.json:
        # Deterministic surface on stdout; wall times go to stderr.
        trows = [["order", "closed_form_s", "replay_s", "linear_s", "bfs_s"]]
        for e in entries:
            trows.append([str(e["order"])] + ["-" if t is None else f"{t:.6f}"
                                              for t in e["seconds"].values()])
        _render_table(trows, sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# Parser wiring
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treewiener",
        description="Exact Wiener indices of binomial, Fibonacci, and binary "
                    "Fibonacci trees.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("closed-form", help="evaluate W(family, order)")
    p.add_argument("--family", required=True, choices=FAMILY_CHOICES)
    p.add_argument("--order", required=True, type=int)
    p.add_argument("--method", choices=["closed", "recurrence", "replay"],
                   default="closed")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_closed_form)

    p = sub.add_parser("generate", help="write a tree as an edge-list file")
    p.add_argument("--family", required=True, choices=FAMILY_CHOICES)
    p.add_argument("--order", required=True, type=int)
    p.add_argument("--out", required=True)
    p.add_argument("--max-nodes", type=int, default=DEFAULT_NODE_BUDGET)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("compute", help="Wiener index of an edge-list file")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--algo", choices=["bfs", "linear"], default="linear")
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("verify", help="cross-validate formulas against oracles")
    p.add_argument("--family", required=True, choices=FAMILY_CHOICES)
    p.add_argument("--max-order", required=True, type=int)
    p.add_argument("--node-budget", type=int, default=10**6)
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes for the per-order sweep")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bench", help="time formula vs linear vs quadratic tiers")
    p.add_argument("--family", required=True, choices=FAMILY_CHOICES)
    p.add_argument("--max-order", required=True, type=int)
    p.add_argument("--node-budget", type=int, default=10**6)
    p.add_argument("--bfs-budget", type=int, default=10**4)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except NotDivisibleError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except (TreeWienerError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
