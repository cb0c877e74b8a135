import pytest

from treewiener.errors import NotDivisibleError
from treewiener.exact import exact_div, fib, fib_pair, fib_table, pow2


def naive_fib_sequence(n):
    seq = [0, 1]
    while len(seq) <= n:
        seq.append(seq[-1] + seq[-2])
    return seq[: n + 1]


@pytest.mark.parametrize("n,expected", [(0, 0), (1, 1), (2, 1), (17, 1597)])
def test_fib_anchors(n, expected):
    assert fib(n) == expected


def test_fib_matches_naive_iteration_up_to_1000():
    seq = naive_fib_sequence(1000)
    for n in range(1001):
        assert fib(n) == seq[n], f"fast doubling diverges at n={n}"


def test_fib_pair_matches_naive_iteration_up_to_1000():
    seq = naive_fib_sequence(1001)
    for n in range(1001):
        assert fib_pair(n) == (seq[n], seq[n + 1]), f"n={n}"
    with pytest.raises(ValueError, match="fib_pair expects n >= 0, got -1"):
        fib_pair(-1)


def test_fib_table_matches_fib():
    table = fib_table(300)
    assert len(table) == 301
    assert table == naive_fib_sequence(300)
    assert fib_table(0) == [0]
    assert fib_table(1) == [0, 1]


def test_fib_rejects_negative():
    with pytest.raises(ValueError):
        fib(-1)
    with pytest.raises(ValueError, match="fib_table expects n >= 0, got -1"):
        fib_table(-1)


def test_cassini_identity():
    seq = naive_fib_sequence(501)
    for n in range(1, 501):
        lhs = seq[n - 1] * seq[n + 1] - seq[n] ** 2
        assert lhs == (-1) ** n, f"Cassini fails at n={n}"


def test_five_divides_fibonacci_distance_numerator():
    # Exactness precondition of the Fibonacci-tree distance closed form.
    seq = naive_fib_sequence(1002)
    for k in range(1001):
        assert (k * seq[k + 2] + (k + 2) * seq[k]) % 5 == 0, f"k={k}"


@pytest.mark.parametrize("k,expected", [(0, 1), (1, 2), (10, 1024)])
def test_pow2(k, expected):
    assert pow2(k) == expected


def test_pow2_matches_repeated_doubling():
    value = 1
    for k in range(200):
        assert pow2(k) == value
        value *= 2


def test_pow2_rejects_negative():
    with pytest.raises(ValueError):
        pow2(-3)


@pytest.mark.parametrize("a,d,q", [(10, 5, 2), (0, 5, 0), (-10, 5, -2), (21, -7, -3)])
def test_exact_div(a, d, q):
    assert exact_div(a, d) == q


def test_exact_div_rejects_inexact():
    with pytest.raises(NotDivisibleError) as exc:
        exact_div(11, 5)
    assert exc.value.remainder == 1
    assert "11" in str(exc.value)


def test_exact_div_rejects_inexact_past_digit_limit():
    # The dividend may have no decimal form; the error is still typed.
    with pytest.raises(NotDivisibleError) as exc:
        exact_div((1 << 20000) | 1, 2)
    assert exc.value.remainder == 1
    assert "is not divisible by 2 (remainder 1)" in str(exc.value)


def test_exact_div_zero_divisor():
    with pytest.raises(ZeroDivisionError):
        exact_div(11, 0)


def test_exact_div_huge_values():
    big = fib(4000)
    assert exact_div(big * 12345, 12345) == big
