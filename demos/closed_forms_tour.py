"""Tour of the closed forms and recurrences for all three tree families.

For each family we evaluate the Wiener index several independent ways and
show they agree exactly: formula / recurrence iteration / composition
replay, and (while the trees are small enough to build) brute force over
the materialized tree.  Ends with the one place where a naive reading of
the binary-Fibonacci recurrence goes wrong.
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from treewiener import (
    TreeFamily,
    binary_fibonacci_tree,
    binomial_tree,
    d_binfib,
    d_fib,
    fibonacci_tree,
    node_count,
    replay_family,
    wiener_bfs,
    wiener_binfib,
    wiener_binfib_closed,
    wiener_binfib_literal,
    wiener_binomial,
    wiener_binomial_recurrence,
    wiener_fib,
    wiener_fib_closed,
)

print("=" * 72)
print("Binomial trees: W(k) = (k-1) * 2^(2k-1) + 2^(k-1)")
print("=" * 72)
print(f"{'k':>3} {'nodes':>8} {'formula':>14} {'recurrence':>14} {'replay':>14} {'brute':>14}")
for k in range(0, 11):
    brute = wiener_bfs(binomial_tree(k)) if 2**k <= 1024 else "-"
    print(f"{k:>3} {2**k:>8} {wiener_binomial(k):>14} "
          f"{wiener_binomial_recurrence(k):>14} "
          f"{replay_family(TreeFamily.BINOMIAL, k).w:>14} {brute:>14}")

print()
print("The formula keeps working long after trees stop being buildable:")
k = 200
print(f"  W(binomial, k=200) has {len(str(wiener_binomial(k)))} digits "
      f"for a tree of 2^200 = {2**200} nodes")

print()
print("=" * 72)
print("Fibonacci trees: closed form, and a rolling recurrence")
print("=" * 72)
print(f"{'k':>3} {'nodes':>8} {'D(root)':>12} {'W closed':>14} {'W recur':>14} {'replay':>14} {'brute':>14}")
for k in range(0, 13):
    n = node_count(TreeFamily.FIBONACCI, k)
    brute = wiener_bfs(fibonacci_tree(k)) if n <= 1000 else "-"
    print(f"{k:>3} {n:>8} {d_fib(k):>12} {wiener_fib_closed(k):>14} {wiener_fib(k):>14} "
          f"{replay_family(TreeFamily.FIBONACCI, k).w:>14} {brute:>14}")

print()
print("=" * 72)
print("Binary Fibonacci trees, and why the recurrence needs a correction")
print("=" * 72)
print(f"{'k':>3} {'nodes':>8} {'D(root)':>12} {'closed':>12} {'corrected':>12} {'literal':>12} {'brute':>12}")
for k in range(1, 13):
    n = node_count(TreeFamily.BINARY_FIBONACCI, k)
    brute = wiener_bfs(binary_fibonacci_tree(k)) if n <= 1000 else "-"
    literal = wiener_binfib_literal(k) if k >= 3 else "-"
    print(f"{k:>3} {n:>8} {d_binfib(k):>12} {wiener_binfib_closed(k):>12} {wiener_binfib(k):>12} "
          f"{literal:>12} {brute:>12}")

print("""
The "literal" column iterates the recurrence with the bare left subtree as
the first composition operand.  But the order-k tree hangs that subtree one
edge BELOW a fresh root, so the operand actually carries one extra vertex:
its Wiener index gains the root's distance sum and its anchored distance
sum gains one per subtree vertex.  Fold those in and the corrected column
matches brute-force enumeration at every order; leave them out and the
count is already wrong at k = 3 (5 instead of 10).
""")
