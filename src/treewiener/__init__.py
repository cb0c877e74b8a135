"""Exact Wiener indices of binomial, Fibonacci, and binary Fibonacci trees.

O(log k)-arithmetic closed forms and O(k)-arithmetic recurrences, a
composition algebra over (vertex count, Wiener index, root distance sum)
summaries, and linear and quadratic brute-force oracles to validate every
formula against.
"""

from treewiener.compose import SINGLE, TreeSummary, identify, join, replay_family
from treewiener.errors import (
    EmptyTreeError,
    InvalidOrderError,
    NotDivisibleError,
    ParseError,
    ResourceLimitError,
    TreeWienerError,
    UnknownNodeError,
)
from treewiener.exact import exact_div, fib, fib_table, pow2
from treewiener.formulas import (
    d_binfib,
    d_binfib_convolution,
    d_binfib_recurrence,
    d_binomial_cross,
    d_binomial_within,
    d_fib,
    d_fib_convolution,
    d_fib_recurrence,
    wiener_binfib,
    wiener_binfib_closed,
    wiener_binfib_literal,
    wiener_binomial,
    wiener_binomial_recurrence,
    wiener_fib,
    wiener_fib_closed,
)
from treewiener.oracle import distance_sum, wiener_bfs, wiener_linear
from treewiener.trees import (
    DEFAULT_NODE_BUDGET,
    ROOT_PARENT,
    RootedTree,
    TreeFamily,
    binary_fibonacci_tree,
    binomial_tree,
    fibonacci_tree,
    generate,
    node_count,
    parse,
    serialize,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_NODE_BUDGET",
    "EmptyTreeError",
    "InvalidOrderError",
    "NotDivisibleError",
    "ParseError",
    "ResourceLimitError",
    "ROOT_PARENT",
    "RootedTree",
    "SINGLE",
    "TreeFamily",
    "TreeSummary",
    "TreeWienerError",
    "UnknownNodeError",
    "binary_fibonacci_tree",
    "binomial_tree",
    "d_binfib",
    "d_binfib_convolution",
    "d_binfib_recurrence",
    "d_binomial_cross",
    "d_binomial_within",
    "d_fib",
    "d_fib_convolution",
    "d_fib_recurrence",
    "distance_sum",
    "exact_div",
    "fib",
    "fib_table",
    "fibonacci_tree",
    "generate",
    "identify",
    "join",
    "node_count",
    "parse",
    "pow2",
    "replay_family",
    "serialize",
    "wiener_bfs",
    "wiener_binfib",
    "wiener_binfib_closed",
    "wiener_binfib_literal",
    "wiener_binomial",
    "wiener_binomial_recurrence",
    "wiener_fib",
    "wiener_fib_closed",
    "wiener_linear",
]
