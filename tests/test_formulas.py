import sys
import time
from functools import partial

import pytest

from treewiener import cli, compose, formulas
from treewiener.compose import LIFT_DIM, replay_family, replay_w
from treewiener.errors import InvalidOrderError
from treewiener.exact import fib
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
from treewiener.oracle import distance_sum, wiener_bfs
from treewiener.trees import TreeFamily, binary_fibonacci_tree, binomial_tree, fibonacci_tree

from helpers import count_arithmetic, per_order_increments

# Ground truth frozen from breadth-first enumeration on materialized trees
# (see tests/test_oracle.py for the enumeration route itself).
BINOMIAL_W = [0, 1, 10, 68, 392, 2064, 10272, 49216, 229504]
FIB_W = {-1: 0, 0: 0, 1: 1, 2: 4, 3: 18, 4: 62, 5: 210, 6: 666, 7: 2063,
         8: 6226, 9: 18484, 10: 54100}
FIB_D = [0, 1, 2, 5, 10, 20, 38, 71, 130, 235, 420]
BINFIB_W = {1: 0, 2: 1, 3: 10, 4: 50, 5: 214, 6: 802, 7: 2802, 8: 9275,
            9: 29580, 10: 91668, 11: 277924}
BINFIB_D = {1: 0, 2: 1, 3: 4, 4: 11, 5: 26, 6: 56, 7: 114, 8: 223, 9: 424,
            10: 789}
BINFIB_W_LITERAL = {3: 5, 4: 29, 5: 142, 6: 587}


# ---------------------------------------------------------------------------
# Binomial trees
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("k,expected", [(1, 1), (2, 3), (5, 48)])
def test_d_binomial_cross_anchors(k, expected):
    assert d_binomial_cross(k) == expected


@pytest.mark.parametrize("k,expected", [(1, 0), (2, 1), (4, 12)])
def test_d_binomial_within_anchors(k, expected):
    assert d_binomial_within(k) == expected


def test_d_binomial_invalid_orders():
    for fn in (d_binomial_cross, d_binomial_within):
        with pytest.raises(InvalidOrderError):
            fn(0)


def test_d_binomial_within_is_root_distance_sum():
    for k in range(1, 13):
        t = binomial_tree(k - 1)
        assert d_binomial_within(k) == distance_sum(t, t.root), f"k={k}"


def test_d_binomial_cross_measured_on_tree():
    # Distance sum from the attached half's root into the other half,
    # measured directly: full distance sum minus the within-subtree part.
    for k in range(1, 13):
        t = binomial_tree(k)
        attached = t.children[t.root][0]
        in_subtree = set()
        stack = [attached]
        while stack:
            u = stack.pop()
            in_subtree.add(u)
            stack.extend(t.children[u])
        assert len(in_subtree) == t.n // 2
        sub = binomial_tree(k - 1)
        within = distance_sum(sub, sub.root)
        cross = distance_sum(t, attached) - within
        assert d_binomial_cross(k) == cross, f"k={k}"


def test_d_binomial_cross_within_relation():
    for k in range(1, 201):
        assert d_binomial_within(k) == d_binomial_cross(k) - 2 ** (k - 1)


@pytest.mark.parametrize("k,expected", [(0, 0), (1, 1), (3, 68)])
def test_wiener_binomial_anchors(k, expected):
    assert wiener_binomial(k) == expected


@pytest.mark.parametrize("k,expected", [(1, 1), (2, 10), (6, 10272)])
def test_wiener_binomial_recurrence_anchors(k, expected):
    assert wiener_binomial_recurrence(k) == expected


def test_wiener_binomial_three_routes_agree():
    for k in range(0, 201):
        closed = wiener_binomial(k)
        assert closed == wiener_binomial_recurrence(k)
        assert closed == replay_family(TreeFamily.BINOMIAL, k).w


def test_wiener_binomial_invalid_order():
    for fn in (wiener_binomial, wiener_binomial_recurrence):
        with pytest.raises(InvalidOrderError, match="binomial order must be >= 0, got -1"):
            fn(-1)


def test_wiener_binomial_matches_enumeration():
    for k, expected in enumerate(BINOMIAL_W):
        assert wiener_binomial(k) == expected
        assert wiener_bfs(binomial_tree(k)) == expected


# ---------------------------------------------------------------------------
# Fibonacci trees
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("k,expected", [(0, 0), (2, 2), (3, 5)])
def test_d_fib_anchors(k, expected):
    assert d_fib(k) == expected


@pytest.mark.parametrize("k,expected", [(1, 1), (4, 10), (6, 38)])
def test_d_fib_recurrence_anchors(k, expected):
    assert d_fib_recurrence(k) == expected


@pytest.mark.parametrize("k,expected", [(0, 0), (2, 2), (3, 5)])
def test_d_fib_convolution_anchors(k, expected):
    assert d_fib_convolution(k) == expected


def test_d_fib_three_routes_agree():
    for k in range(0, 301):
        closed = d_fib(k)
        assert closed == d_fib_recurrence(k), f"k={k}"
        assert closed == d_fib_convolution(k), f"k={k}"


def test_d_fib_matches_tree_distance_sums():
    for k, expected in enumerate(FIB_D):
        assert d_fib(k) == expected
        t = fibonacci_tree(k)
        assert distance_sum(t, t.root) == expected


def test_d_fib_invalid_order():
    for fn in (d_fib, d_fib_recurrence, d_fib_convolution):
        with pytest.raises(InvalidOrderError, match="d_fib needs k >= 0, got -1"):
            fn(-1)


@pytest.mark.parametrize("k,expected", [(-1, 0), (0, 0), (1, 1), (2, 4),
                                        (3, 18), (6, 666)])
def test_wiener_fib_anchors(k, expected):
    assert wiener_fib(k) == expected


def test_wiener_fib_matches_enumeration():
    for k, expected in FIB_W.items():
        assert wiener_fib(k) == expected
        assert wiener_fib_closed(k) == expected
        if k >= -1:
            assert wiener_bfs(fibonacci_tree(k)) == expected


def test_wiener_fib_matches_replay():
    for k in range(-1, 301):
        assert wiener_fib(k) == replay_family(TreeFamily.FIBONACCI, k).w


def test_wiener_fib_large_order_is_fast():
    t0 = time.perf_counter()
    value = wiener_fib(500)
    assert time.perf_counter() - t0 < 1.0
    assert value == replay_family(TreeFamily.FIBONACCI, 500).w


# ---------------------------------------------------------------------------
# Binary Fibonacci trees
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("k,expected", [(1, 0), (2, 1), (4, 11)])
def test_d_binfib_anchors(k, expected):
    assert d_binfib(k) == expected


@pytest.mark.parametrize("k,expected", [(2, 1), (3, 4), (5, 26)])
def test_d_binfib_recurrence_anchors(k, expected):
    assert d_binfib_recurrence(k) == expected


@pytest.mark.parametrize("k,expected", [(1, 0), (2, 1), (3, 4)])
def test_d_binfib_convolution_anchors(k, expected):
    assert d_binfib_convolution(k) == expected


def test_d_binfib_three_routes_agree():
    for k in range(1, 301):
        closed = d_binfib(k)
        assert closed == d_binfib_recurrence(k), f"k={k}"
        assert closed == d_binfib_convolution(k), f"k={k}"


def test_d_binfib_matches_tree_distance_sums():
    for k, expected in BINFIB_D.items():
        assert d_binfib(k) == expected
        t = binary_fibonacci_tree(k)
        assert distance_sum(t, t.root) == expected


def test_d_binfib_invalid_order():
    with pytest.raises(InvalidOrderError):
        d_binfib(0)
    with pytest.raises(InvalidOrderError):
        wiener_binfib(0)
    for fn in (d_binfib_recurrence, d_binfib_convolution):
        with pytest.raises(InvalidOrderError, match="d_binfib needs k >= 1, got 0"):
            fn(0)


@pytest.mark.parametrize("k,expected", [(1, 0), (2, 1), (3, 10), (4, 50)])
def test_wiener_binfib_anchors(k, expected):
    assert wiener_binfib(k) == expected


def test_wiener_binfib_matches_enumeration():
    for k, expected in BINFIB_W.items():
        assert wiener_binfib(k) == expected
        assert wiener_binfib_closed(k) == expected
        assert wiener_bfs(binary_fibonacci_tree(k)) == expected


def test_wiener_binfib_matches_replay():
    for k in range(1, 301):
        assert wiener_binfib(k) == replay_family(TreeFamily.BINARY_FIBONACCI, k).w


def test_literal_recurrence_documented_divergence():
    # Pinned regression: the printed recurrence undercounts from k = 3 on.
    assert wiener_binfib_literal(3) == 5
    assert wiener_bfs(binary_fibonacci_tree(3)) == 10
    for k, expected in BINFIB_W_LITERAL.items():
        assert wiener_binfib_literal(k) == expected
        assert wiener_binfib_literal(k) != BINFIB_W[k]
    with pytest.raises(InvalidOrderError):
        wiener_binfib_literal(2)


def test_recurrences_build_no_fibonacci_table(monkeypatch):
    # The O(k) loops roll (F(i), F(i+1)) instead of holding F(0..k+1), and
    # never reach fast doubling, exact division or the closed forms they are
    # checked against.  The literal recurrence calls d_binfib at every step,
    # so it runs before the closed forms are taken away.
    def refuse(name):
        def fn(*args):
            raise AssertionError(f"{name}{args} called")
        return fn

    closed = {"wiener_fib": wiener_fib_closed(60), "d_fib": d_fib(60),
              "wiener_binfib": wiener_binfib_closed(60), "d_binfib": d_binfib(60)}
    monkeypatch.setattr("treewiener.formulas.fib_table", refuse("fib_table"))
    for k, expected in BINFIB_W_LITERAL.items():
        assert wiener_binfib_literal(k) == expected
    for name in ("fib", "exact_div", "d_fib", "d_binfib", "wiener_fib_closed",
                 "wiener_binfib_closed"):
        monkeypatch.setattr(f"treewiener.formulas.{name}", refuse(name))
    assert {k: wiener_fib(k) for k in FIB_W} == FIB_W
    assert [d_fib_recurrence(k) for k in range(len(FIB_D))] == FIB_D
    assert {k: wiener_binfib(k) for k in BINFIB_W} == BINFIB_W
    assert {k: d_binfib_recurrence(k) for k in BINFIB_D} == BINFIB_D
    assert closed == {"wiener_fib": wiener_fib(60), "d_fib": d_fib_recurrence(60),
                      "wiener_binfib": wiener_binfib(60),
                      "d_binfib": d_binfib_recurrence(60)}


# ---------------------------------------------------------------------------
# Closed forms of both Fibonacci families
# ---------------------------------------------------------------------------

def test_fibonacci_closed_forms_invalid_orders():
    with pytest.raises(InvalidOrderError, match="fibonacci order must be >= -1, got -2"):
        wiener_fib_closed(-2)
    with pytest.raises(InvalidOrderError,
                       match="binary-fibonacci order must be >= 1, got 0"):
        wiener_binfib_closed(0)


def _poly_mul(*factors):
    """Coefficients, highest degree first, of a product of polynomials."""
    product = [1]
    for factor in factors:
        out = [0] * (len(product) + len(factor) - 1)
        for i, a in enumerate(product):
            for j, b in enumerate(factor):
                out[i + j] += a * b
        product = out
    return product


def _image(poly, values):
    """The sequence s(i) = sum of c * values[i - j] over poly's coefficients
    c, highest degree (j = 0) first, from the len(poly)-th value on."""
    d = len(poly) - 1
    return [sum(c * values[i - j] for j, c in enumerate(poly))
            for i in range(d, len(values))]


def _annihilates(poly, values):
    """True when every len(poly) consecutive values satisfy the recurrence
    whose characteristic polynomial is poly."""
    return not any(_image(poly, values))


X2_X_1 = [1, -1, -1]   # x^2 - x - 1: roots phi, psi
X2_3X_1 = [1, -3, 1]   # x^2 - 3x + 1: roots phi^2, psi^2
X_PLUS_1 = [1, 1]      # root -1 = phi * psi
X_MINUS_1 = [1, -1]    # root 1


def test_fibonacci_closed_forms_equal_recurrences_finite_proof():
    """closed == recurrence at every order, by a finite check.

    Closed side.  Each closed form sums terms p(k) * r^k with p of degree
    <= 1 and r in {phi^2, psi^2, -1, phi, psi}; a degree-1 coefficient
    doubles the root.  So the values from k = 1 on satisfy the recurrence
    with characteristic polynomial
        Fibonacci:         P_F = (x^2-3x+1)^2 (x+1)^2 (x^2-x-1),    degree 8
        binary Fibonacci:  P_B = (x^2-3x+1)^2 (x+1)^2 (x^2-x-1)^2,  degree 10
    (phi, psi are single roots of P_F, double roots of P_B), and P_F
    divides P_B, so both satisfy P_B from k = 1 on.

    Recurrence side.  Both families share formulas._roll.  Up to order 10
    each runs its own step, W(i) = W(i-1) + W(i-2) + g(i) with g built from
    F and D; past it, the roll takes W to the next order by W's step with g
    carried through the factors of P_B / (x^2-x-1).  Each stage of that
    cascade is read off W(1) .. W(10) by its definition, and each is taken
    up by the recurrence of its own factor, so the values from k = 1 on
    satisfy P_B by construction: W(1) .. W(10) fix them, and from k = 11 on
    each is the one P_B gives.  test_roll_stages_equal_their_definitions
    checks every stage against its definition from W.

    Both sides therefore satisfy P_B from k = 1 on, and so does their
    difference, which is zero everywhere once it is zero at k = 1..10, 10
    orders for each family.  The Fibonacci orders -1 and 0 lie below the
    window and are checked directly.  Orders 1..10 come from each family's
    own step, with D from the loop that d_fib_recurrence and
    d_binfib_recurrence run, so criteria 3 and 4 (tests/test_acceptance.py)
    check the very D the W recurrences use.  The check runs from the floor
    to k = 399, far past the bound, plus k = 5000, and confirms that P_B
    annihilates the values actually computed on both sides.  That these
    values are the trees' W rests on test_closed_forms_equal_replay_finite_proof
    below: the closed forms equal the replay of the composition at every
    order.
    """
    p_f = _poly_mul(X2_3X_1, X2_3X_1, X_PLUS_1, X_PLUS_1, X2_X_1)
    p_b = _poly_mul(p_f, X2_X_1)
    cases = [(wiener_fib_closed, wiener_fib, -1, p_f),
             (wiener_binfib_closed, wiener_binfib, 1, p_b)]
    for closed, recurrence, floor, p in cases:
        orders = range(floor, 400)
        closed_values = [closed(k) for k in orders]
        recurrence_values = [recurrence(k) for k in orders]
        assert closed_values == recurrence_values
        from_one = 1 - floor
        assert _annihilates(p, closed_values[from_one:])
        assert _annihilates(p_b, closed_values[from_one:])
        assert _annihilates(p_b, recurrence_values[from_one:])
        assert closed(5000) == recurrence(5000)
    assert (len(p_f) - 1, len(p_b) - 1) == (8, 10)


def test_roll_stages_equal_their_definitions(monkeypatch):
    # Every value the roll carries, from its start at order 10 to order
    # 200, equals its definition from W, taken from the closed form:
    # g = (x^2-x-1) W, t = (x^2-3x+1) g, u = (x^2-3x+1) t, v = (x^2-x-1) u.
    # The roll is run one order at a time, from the state the W recurrence
    # itself hands it.
    real_roll = formulas._roll
    states = []

    def recording_roll(state, steps):
        for _ in range(steps):
            states.append(state)
            state = real_roll(state, 1)
        states.append(state)
        return state

    monkeypatch.setattr(formulas, "_roll", recording_roll)
    for closed, recurrence in ((wiener_fib_closed, wiener_fib),
                               (wiener_binfib_closed, wiener_binfib)):
        w = [closed(k) for k in range(1, 201)]  # w[i - 1] is W(i)
        g = [None] * 2 + _image(X2_X_1, w)  # g[i - 1] is g(i), from i = 3
        t = [None] * 4 + _image(X2_3X_1, g[2:])
        u = [None] * 6 + _image(X2_3X_1, t[4:])
        v = [None] * 8 + _image(X2_X_1, u[6:])
        states.clear()
        assert recurrence(200) == w[-1]
        assert len(states) == 191
        for i, state in enumerate(states, start=10):
            j = i - 1
            assert state == (w[j - 1], w[j], g[j], g[j] - g[j - 1], t[j], t[j] - t[j - 1],
                             u[j - 1], u[j], v[j - 1], v[j]), f"{recurrence.__name__} i={i}"


def test_closed_forms_equal_replay_finite_proof():
    """closed == replay at every order, by a finite check, for the three W
    closed forms and the two Fibonacci D closed forms.

    Replay side.  From one order above min_summary_order, W and D of
    replay_family are coordinates of the lift in the treewiener.compose
    docstring, so each obeys a linear recurrence of order at most
    LIFT_DIM; Berlekamp-Massey on 2 * LIFT_DIM values returns the minimal
    one, which replay_w then follows at every order, so replay_w obeys it
    by construction.  The test runs Berlekamp-Massey on D too and checks
    the bound on both.

    Closed side.  Each closed form sums terms p(k) * r^k, and a root r
    with p of degree 1 is double, so A annihilates it from order `since`:
        binomial W = (k-1) 2^(2k-1) + 2^(k-1):  (x-4)^2 (x-2), degree 3
        Fibonacci W:         P_F, degree 8 (see the recurrence proof above)
        binary Fibonacci W:  P_B, degree 10
        Fibonacci D = (k F(k+2) + (k+2) F(k)) / 5:  (x^2-x-1)^2, degree 4
        binary Fibonacci D = ((k-3) F(k+3) + 2(k-2) F(k+2)) / 5 + 2:
                             (x^2-x-1)^2 (x-1), degree 5

    closed - replay therefore obeys a recurrence of order at most
    LIFT_DIM + deg A from max(one order above the floor, since) on, and is
    zero everywhere once it is zero on that many consecutive orders.  The
    orders below that window, from the closed form's own floor, are among
    those compared.  Order 5000 is compared as well, with D taken from its
    recurrence by compose._nth_term.
    """
    p_f = _poly_mul(X2_3X_1, X2_3X_1, X_PLUS_1, X_PLUS_1, X2_X_1)
    p_b = _poly_mul(p_f, X2_X_1)
    # (family, closed form, summary field, closed form's floor, A, since)
    cases = [
        (TreeFamily.BINOMIAL, wiener_binomial, "w", 0, _poly_mul([1, -4], [1, -4], [1, -2]), 0),
        (TreeFamily.FIBONACCI, wiener_fib_closed, "w", -1, p_f, 1),
        (TreeFamily.BINARY_FIBONACCI, wiener_binfib_closed, "w", 1, p_b, 1),
        (TreeFamily.FIBONACCI, d_fib, "d_anchor", 0, _poly_mul(X2_X_1, X2_X_1), 0),
        (TreeFamily.BINARY_FIBONACCI, d_binfib, "d_anchor", 1,
         _poly_mul(X2_X_1, X2_X_1, X_MINUS_1), 1),
    ]
    for family, closed, field, floor, annihilator, since in cases:
        start = family.spec.min_summary_order + 1
        seeds = [getattr(replay_family(family, k), field)
                 for k in range(start, start + 2 * LIFT_DIM)]
        rec = compose._minimal_recurrence(seeds)
        assert len(rec) <= LIFT_DIM
        window = max(start, since)
        orders = range(floor, window + LIFT_DIM + len(annihilator) - 1)
        closed_values = [closed(k) for k in orders]
        if field == "w":
            assert rec == compose._replay_recurrence(family)[2]
            replayed = [replay_w(family, k) for k in orders]
        else:
            replayed = [getattr(replay_family(family, k), field) for k in orders]
        assert closed_values == replayed, f"{closed.__name__}"
        assert _annihilates(annihilator, closed_values[since - floor:])
        assert closed(5000) == compose._nth_term(seeds, rec, 5000 - start)
    assert [len(compose._replay_recurrence(f)[2]) for f in TreeFamily] == [3, 8, 10]


# ---------------------------------------------------------------------------
# Arithmetic cost of every route to W
# ---------------------------------------------------------------------------

# Every way the library computes W but the closed form wiener_binomial, by
# the cost class its arithmetic instruction count must show as k doubles.
LINEAR_W_ROUTES = {
    "wiener_fib": wiener_fib,
    "wiener_binfib": wiener_binfib,
    "wiener_binomial_recurrence": wiener_binomial_recurrence,
    **{f"replay_family[{family.value}]": partial(replay_family, family)
       for family in TreeFamily},
}
LOGARITHMIC_W_ROUTES = {
    "wiener_fib_closed": wiener_fib_closed,
    "wiener_binfib_closed": wiener_binfib_closed,
}


def _wiener_fib_fib_per_step(k):
    """wiener_fib's step with F(i) and F(i+1) found by fast doubling at
    every step instead of rolled: right values in O(k log k) arithmetic, the
    kind of slip the linear cost class must catch."""
    w_prev2 = w_prev = 0
    d_prev2 = d_prev = 0
    for i in range(1, k + 1):
        f, f_next = fib(i), fib(i + 1)
        w = w_prev + w_prev2 + f_next * d_prev2 + f * d_prev + f_next * f
        w_prev2, w_prev = w_prev, w
        d_prev2, d_prev = d_prev, d_prev + d_prev2 + f
    return w_prev


def test_count_arithmetic_measures_the_fibonacci_step():
    # Up to order 10 both W recurrences run only their start, a fixed count
    # of operations on small integers.  Each order past it is one step of
    # formulas._roll, 12 operations:
    #   v(i) = -2 v(i-1) - v(i-2)             2 (the negation is unary)
    #   u(i) = u(i-1) + u(i-2) + v(i)         2
    #   t(i) - t(i-1), then t(i)              2 + 1
    #   g(i) - g(i-1), then g(i)              2 + 1
    #   W(i) = W(i-1) + W(i-2) + g(i)         2
    # The range loop and the order check are no arithmetic.
    for fn, floor in ((wiener_fib, -1), (wiener_binfib, 1)):
        start = {count_arithmetic(fn, k) for k in range(floor, 11)}
        assert len(start) == 1 and max(start) < 250, f"{fn.__name__}: {start}"
        base = count_arithmetic(fn, 11) - 12
        for k in list(range(11, 51)) + [800]:
            assert count_arithmetic(fn, k) == base + 12 * (k - 10), f"{fn.__name__} k={k}"


def test_d_recurrences_roll_d_and_f_alone():
    # 4 additions per order, 2 for D(i) = D(i-1) + D(i-2) + s(i) and 2 for
    # s(i) = s(i-1) + s(i-2) + c, with no product; d_binfib_recurrence adds
    # one subtraction, k - 1, to find its order's place in the loop.
    for k in list(range(1, 51)) + [800]:
        assert count_arithmetic(d_fib_recurrence, k) == 4 * k, f"k={k}"
        assert count_arithmetic(d_binfib_recurrence, k) == 4 * (k - 1) + 1, f"k={k}"
    for fn in (d_fib_recurrence, d_binfib_recurrence):
        assert count_arithmetic(fn, 800, operators={"*"}) == 0
    assert d_fib_recurrence(11_500) == d_fib(11_500)
    assert d_binfib_recurrence(11_500) == d_binfib(11_500)


def test_count_arithmetic_counts_chosen_operators():
    def step(x):
        x *= 3
        x <<= 2
        return x * x + 1

    assert count_arithmetic(step, 2) == 4
    assert count_arithmetic(step, 2, operators={"*"}) == 2
    assert count_arithmetic(step, 2, operators={"<<", "+"}) == 2
    assert count_arithmetic(step, 2, operators={"//"}) == 0


def _monitoring_tools():
    """The sys.monitoring tool ids in use, by name (none before 3.12)."""
    if not hasattr(sys, "monitoring"):
        return []
    return [sys.monitoring.get_tool(i) for i in range(6)]


def test_count_arithmetic_restores_the_tracer():
    def outer(frame, event, arg):
        return None

    tools = _monitoring_tools()
    before = sys.gettrace()
    sys.settrace(outer)
    try:
        count_arithmetic(wiener_fib, 5)
        assert sys.gettrace() is outer
        with pytest.raises(InvalidOrderError):
            count_arithmetic(wiener_fib, -2)
        assert sys.gettrace() is outer
        assert _monitoring_tools() == tools
    finally:
        sys.settrace(before)
    count_arithmetic(wiener_fib, 5)
    assert sys.gettrace() is before
    assert _monitoring_tools() == tools


def test_count_arithmetic_catches_a_superlinear_evaluator():
    assert all(_wiener_fib_fib_per_step(k) == wiener_fib(k) for k in range(60))
    counts = {k: count_arithmetic(_wiener_fib_fib_per_step, k)
              for k in (100, 200, 400, 800)}
    for k in (100, 200, 400):
        assert counts[2 * k] / counts[k] > 2.2, f"k={k}: {counts}"


def test_w_route_arithmetic_cost_classes():
    # An O(k) route is read from what one more order costs, not from
    # ops(2k) / ops(k), which a fixed start-up cost pulls below 2.
    for name, fn in LINEAR_W_ROUTES.items():
        steps, mean = per_order_increments(fn)
        assert mean > 0 and set(steps.values()) == {mean}, (
            f"{name}: ops(k + 1) - ops(k) = {steps}, {mean} on average")
    for name, fn in LOGARITHMIC_W_ROUTES.items():
        low, high = count_arithmetic(fn, 100), count_arithmetic(fn, 800)
        assert high < 1.5 * low, f"{name}: ops(800) = {high}, ops(100) = {low}"
    counts = {count_arithmetic(wiener_binomial, k) for k in (100, 200, 400, 800)}
    assert len(counts) == 1, f"wiener_binomial: {counts}"


def test_recurrences_multiply_no_growing_integer():
    # F, D and the products of W's step are rolled by additions and the
    # binomial powers of two are shifts, so the count of "*" cannot grow
    # with k; it is in fact zero.
    for fn in (wiener_fib, wiener_binfib, d_fib_recurrence, d_binfib_recurrence,
               wiener_binomial_recurrence):
        counts = [count_arithmetic(fn, k, operators={"*"}) for k in (100, 800)]
        assert counts[0] == counts[1], f"{fn.__name__}: {counts}"


def test_replay_multiplies_twice_per_join(monkeypatch):
    joins = 0
    real_join = compose.join

    def counted_join(a, b):
        nonlocal joins
        joins += 1
        return real_join(a, b)

    monkeypatch.setattr(compose, "join", counted_join)
    for family in TreeFamily:
        for k in (100, 800):
            joins = 0
            products = count_arithmetic(replay_family, family, k, operators={"*"})
            assert joins >= k - 1
            assert products == 2 * joins, f"{family.value} k={k}: {products}, {joins} joins"


def test_replay_route_multiplies_logarithmically():
    # Each doubling of k adds one squaring mod the recurrence's polynomial,
    # at most 2 L^2 products with L <= LIFT_DIM; replay_family's two per
    # join would add 2k.  The recurrence is built before counting.
    for family in TreeFamily:
        route = partial(cli.ROUTES["replay"], family)
        route(1000)
        counts = [count_arithmetic(route, k, operators={"*"})
                  for k in (1000, 2000, 4000, 8000, 16000)]
        steps = [b - a for a, b in zip(counts, counts[1:])]
        assert all(0 < step <= 2 * LIFT_DIM ** 2 for step in steps), f"{family.value}: {counts}"
