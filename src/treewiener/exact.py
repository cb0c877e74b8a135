"""Arbitrary-precision integer helpers.

Python ints are already exact at any magnitude, so this module only adds the
three pieces the rest of the library leans on: Fibonacci numbers by fast
doubling, singly or as the pair (F(n), F(n+1)), powers of two, and division
that refuses to be inexact.

Fibonacci convention: F(0) = 0, F(1) = F(2) = 1.
"""

from treewiener.errors import NotDivisibleError


def fib_pair(n: int) -> tuple[int, int]:
    """(F(n), F(n+1)) in O(log n) big-integer multiplications.

    Fast doubling over the bits of n, using
    F(2m) = F(m) * (2*F(m+1) - F(m)) and F(2m+1) = F(m)^2 + F(m+1)^2.
    """
    if n < 0:
        raise ValueError(f"fib_pair expects n >= 0, got {n}")
    a, b = 0, 1  # F(m), F(m+1) with m = prefix of n consumed so far
    for i in range(n.bit_length() - 1, -1, -1):
        c = a * (2 * b - a)
        d = a * a + b * b
        if (n >> i) & 1:
            a, b = d, c + d
        else:
            a, b = c, d
    return a, b


def fib(n: int) -> int:
    """n-th Fibonacci number, the first of fib_pair(n)."""
    if n < 0:
        raise ValueError(f"fib expects n >= 0, got {n}")
    return fib_pair(n)[0]


def fib_table(n: int) -> list[int]:
    """[F(0), F(1), ..., F(n)] by running the addition recurrence once."""
    if n < 0:
        raise ValueError(f"fib_table expects n >= 0, got {n}")
    table = [0, 1]
    for _ in range(n - 1):
        table.append(table[-1] + table[-2])
    return table[: n + 1]


def pow2(k: int) -> int:
    """2**k, exactly."""
    if k < 0:
        raise ValueError(f"pow2 expects k >= 0, got {k}")
    return 1 << k


def exact_div(a: int, d: int) -> int:
    """a / d when d divides a exactly; NotDivisibleError otherwise.

    Never truncates: a nonzero remainder is a bug in a formula, not a value.
    """
    q, r = divmod(a, d)
    if r != 0:
        raise NotDivisibleError(a, d, r)
    return q
