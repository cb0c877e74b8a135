"""Reference values computed without the treewiener library.

Every output the benchmark checks is compared against these, so a bug in
the library cannot hide by agreeing with itself.  Fibonacci numbers come
from this module's own fast doubling; the Wiener indices from closed forms:

  binomial:                W = (k-1) * 2^(2k-1) + 2^(k-1)
  Fibonacci tree:       50 W = (10k-11) F(2k) + (20k-8) F(2k+1)
                               + (8-10k) (-1)^k + 25 F(k)
  binary Fibonacci:     50 W = (30k-124) F(2k) + (50k-197) F(2k+1)
                               + (22-10k) (-1)^k + (30k+155) F(k)
                               + (40k+175) F(k+1)

Fibonacci convention: F(0) = 0, F(1) = F(2) = 1.
"""

import sys

FAMILIES = ("binomial", "fibonacci", "binary-fibonacci")


def fib_pair(n: int) -> tuple:
    """(F(n), F(n+1)) by recursive fast doubling on the bits of n."""
    if n == 0:
        return 0, 1
    a, b = fib_pair(n >> 1)
    c = a * (2 * b - a)  # F(2m)
    d = a * a + b * b    # F(2m+1)
    return (d, c + d) if n & 1 else (c, d)


def _div50(numerator: int) -> int:
    q, r = divmod(numerator, 50)
    if r:
        raise ArithmeticError(f"reference numerator not divisible by 50 (remainder {r})")
    return q


def wiener(family: str, k: int) -> int:
    """Wiener index of the order-k tree of `family`."""
    if family == "binomial":
        return 0 if k == 0 else (k - 1) * (1 << (2 * k - 1)) + (1 << (k - 1))
    if k <= 0:
        # Fibonacci orders -1 and 0 are one vertex; binary Fibonacci order 0
        # is the empty tree, which has no Wiener index.
        if family == "fibonacci" and k >= -1:
            return 0
        raise ValueError(f"no Wiener index for {family} order {k}")
    f2k, f2k1 = fib_pair(2 * k)
    fk, fk1 = fib_pair(k)
    sign = -1 if k & 1 else 1
    if family == "fibonacci":
        return _div50((10 * k - 11) * f2k + (20 * k - 8) * f2k1
                      + (8 - 10 * k) * sign + 25 * fk)
    if family == "binary-fibonacci":
        return _div50((30 * k - 124) * f2k + (50 * k - 197) * f2k1
                      + (22 - 10 * k) * sign + (30 * k + 155) * fk
                      + (40 * k + 175) * fk1)
    raise ValueError(f"unknown family {family!r}")


def node_count(family: str, k: int) -> int:
    if family == "binomial":
        return 1 << k
    n = fib_pair(k + 2)[0]
    return n if family == "fibonacci" else n - 1


def min_order(family: str) -> int:
    """Smallest order whose tree has a Wiener index."""
    return {"binomial": 0, "fibonacci": -1, "binary-fibonacci": 1}[family]


def decimal(value: int) -> str:
    """Exact decimal string of value, whatever its length.  The interpreter's
    int -> str digit limit is lifted for this conversion only; program code
    never runs while it is lifted."""
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(value)
    finally:
        sys.set_int_max_str_digits(saved)
