"""Seeded request lists for the four workloads, with their expected outputs.

A request is one argv for `treewiener.cli.main` plus what its stdout must
be.  Expected outputs come from `reference`, never from the library.  The
seed only moves inputs around inside ranges chosen so that the total work of
a pass hardly depends on it: orders are stratified, node budgets stay
between the same two tree sizes, and tree orders are fixed.
"""

import json
from dataclasses import dataclass
from typing import Callable

import reference
from reference import FAMILIES

METHODS = ("closed", "recurrence", "replay")


@dataclass(frozen=True)
class Request:
    argv: tuple
    check: Callable  # check(stdout, expected) -> bool, for a run that exited 0
    expected: object

    def output_ok(self, stdout: str) -> bool:
        return self.check(stdout, self.expected)


def check_line(stdout: str, expected: str) -> bool:
    return stdout == expected + "\n"


def check_json(stdout: str, expected: dict) -> bool:
    lines = stdout.splitlines()
    if len(lines) != 1:
        return False
    try:
        return json.loads(lines[0]) == expected
    except ValueError:
        return False


def check_silent(stdout: str, expected: None) -> bool:
    return stdout == ""


def check_verify(stdout: str, expected: list) -> bool:
    """The table must list exactly the expected rows, the line after them
    must be the note or the result line, and the result must be a match."""
    lines = stdout.splitlines()
    if len(lines) < len(expected) + 2 or lines[-1] != "result: all match":
        return False
    if lines[0].split() != ["order", "nodes", "formula", "replay", "oracle", "status"]:
        return False
    rows = [tuple(line.split()) for line in lines[1:len(expected) + 1]]
    return rows == expected and lines[len(expected) + 1].startswith(("note:", "result:"))


def closed_form(family: str, k: int, method: str, as_json: bool) -> Request:
    argv = ("closed-form", "--family", family, "--order", str(k), "--method", method)
    value = reference.decimal(reference.wiener(family, k))
    if as_json:
        expected = {"family": family, "order": k, "method": method, "value": value}
        return Request(argv + ("--json",), check_json, expected)
    return Request(argv, check_line, value)


# Share of a stratum over which closed-form-large jitters its order.  Cost
# grows about as k^2 and a few top-stratum requests dominate a pass, so the
# jitter stays in the middle fifth of each stratum to keep the work of a pass
# nearly the same for every seed.
STRATUM_JITTER = 0.2


def closed_form_large(rng, smoke: bool, workdir) -> list:
    """Orders over [512, 12000] on a log scale, split into equal strata: one
    request per stratum and (family, method) pair, at a seeded point near
    the stratum's middle, half of each pair's strata in --json.  The range
    crosses the 4300-digit str(int) limit on purpose: binomial fails above
    k ~ 7140 and the Fibonacci families above k ~ 10300."""
    lo, hi, strata = (64, 600, 2) if smoke else (512, 12000, 24)
    requests = []
    for family in FAMILIES:
        for method in METHODS:
            json_strata = set(rng.sample(range(strata), strata // 2))
            for i in range(strata):
                u = i + 0.5 + STRATUM_JITTER * (rng.random() - 0.5)
                k = round(lo * (hi / lo) ** (u / strata))
                requests.append(closed_form(family, k, method, i in json_strata))
    rng.shuffle(requests)
    return requests


def closed_form_small(rng, smoke: bool, workdir) -> list:
    """Orders uniform from the family minimum to 64: each request is about a
    millisecond, so parsing, dispatch and rendering in the CLI dominate."""
    per_pair = 3 if smoke else 300
    requests = [
        closed_form(family, rng.randint(reference.min_order(family), 64), method,
                    rng.random() < 0.5)
        for family in FAMILIES for method in METHODS for _ in range(per_pair)
    ]
    rng.shuffle(requests)
    return requests


def verify_sweep(rng, smoke: bool, workdir) -> list:
    """One verify per family.  Every budget in the range admits the same
    orders (binomial to 11, both Fibonacci families to 16; to 5, 7 and 7 in
    smoke mode), so the O(n^2) oracle does the same work for every seed; the
    sweep runs two to five orders past the budget, which are skipped."""
    lo, hi = (34, 53) if smoke else (2600, 3999)
    families = list(FAMILIES)
    rng.shuffle(families)
    requests = []
    for family in families:
        budget = rng.randint(lo, hi)
        start = reference.min_order(family)
        top = start
        while reference.node_count(family, top + 1) <= budget:
            top += 1
        max_order = top + rng.randint(2, 5)
        rows = []
        for k in range(start, max_order + 1):
            n = reference.node_count(family, k)
            w = str(reference.wiener(family, k))
            in_budget = n <= budget
            rows.append((str(k), str(n), w, w, w if in_budget else "-",
                         "match" if in_budget else "skipped"))
        argv = ("verify", "--family", family, "--max-order", str(max_order),
                "--node-budget", str(budget))
        requests.append(Request(argv, check_verify, rows))
    return requests


TREE_IO_ORDERS = {"binomial": 18, "fibonacci": 26, "binary-fibonacci": 26}
TREE_IO_SMOKE_ORDERS = {"binomial": 6, "fibonacci": 8, "binary-fibonacci": 8}


def tree_io(rng, smoke: bool, workdir) -> list:
    """generate --out then compute --algo linear, one ~3e5-node tree per
    family (262144, 317811 and 317810 nodes), in a seeded family order."""
    orders = TREE_IO_SMOKE_ORDERS if smoke else TREE_IO_ORDERS
    families = list(FAMILIES)
    rng.shuffle(families)
    requests = []
    for family in families:
        k = orders[family]
        path = str(workdir / f"{family}-{k}-{rng.randrange(16 ** 6):06x}.tree")
        requests.append(Request(
            ("generate", "--family", family, "--order", str(k), "--out", path),
            check_silent, None))
        requests.append(Request(
            ("compute", "--in", path, "--algo", "linear"),
            check_line, reference.decimal(reference.wiener(family, k))))
    return requests


WORKLOADS = {
    "closed-form-large": closed_form_large,
    "closed-form-small": closed_form_small,
    "verify-sweep": verify_sweep,
    "tree-io": tree_io,
}

