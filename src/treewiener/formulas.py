"""Closed forms and recurrences for the three families' Wiener indices.

Naming scheme: wiener_* evaluates W of the order-k tree; d_* evaluates the
distance sum from a distinguished vertex.  Each quantity comes in several
independently computable flavors (closed form, recurrence iteration,
convolution sum) precisely so tests can play them against one another and
against the brute-force oracles in treewiener.oracle.

The closed forms cost O(log k) big-integer multiplications: each is a
fixed combination of a few Fibonacci numbers and of powers of two, and the
two Fibonacci closed forms take all of theirs, F(k), F(k+1), F(2k) and
F(2k+1), from one fast-doubling pass.  The recurrences iterate upward,
without recursion, in O(k) big-integer additions and shifts per call, and
multiply no growing integer.  Each Fibonacci family has one loop that
starts from the summaries below the family's floor and rolls W, D, the pair
(F(i), F(i+1)) and the products of W's step together, so it needs neither
base cases nor a table of Fibonacci numbers.  The convolution forms are
O(k^2) and exist only as cross-check identities.

The binary Fibonacci Wiener recurrence is implemented in a corrected form:
the textbook-style printed recurrence

    W(k) = W(k-1) + W(k-2) + F(k+1)*D(k-2) + (F(k)-1)*D(k-1) + F(k+1)*(F(k)-1)

undercounts, because the left operand of the final composition is not the
bare left subtree but the left subtree PLUS the new root hanging above it.
Folding that extra pendant vertex into the left operand's Wiener index and
anchored distance sum (see wiener_binfib) makes the recurrence agree with
direct enumeration at every order; the literal printed form is retained as
wiener_binfib_literal to document the divergence (first at k = 3: 5 vs 10).
"""

from treewiener.errors import InvalidOrderError
from treewiener.exact import exact_div, fib, fib_pair, fib_table, pow2


# ---------------------------------------------------------------------------
# Binomial trees
# ---------------------------------------------------------------------------

def d_binomial_cross(k: int) -> int:
    """Distance sum (k + 1) * 2^(k-2) across the two halves of the order-k
    binomial tree: from one half's root to every vertex of the other half.

    Multiply first, divide last, so k = 1 never forms a fractional term.
    """
    if k < 1:
        raise InvalidOrderError(f"d_binomial_cross needs k >= 1, got {k}")
    return exact_div((k + 1) * pow2(k), 4)


def d_binomial_within(k: int) -> int:
    """Distance sum (k - 1) * 2^(k-2) within one half: from the root of an
    order-(k-1) binomial tree to its own 2^(k-1) vertices.  Equals
    d_binomial_cross(k) - 2^(k-1), one edge saved per target vertex."""
    if k < 1:
        raise InvalidOrderError(f"d_binomial_within needs k >= 1, got {k}")
    return exact_div((k - 1) * pow2(k), 4)


def wiener_binomial(k: int) -> int:
    """W of the order-k binomial tree: (k - 1) * 2^(2k-1) + 2^(k-1).

    The two terms are half-integral at k = 0 and cancel; the single-vertex
    case is returned directly instead.
    """
    if k < 0:
        raise InvalidOrderError(f"binomial order must be >= 0, got {k}")
    if k == 0:
        return 0
    return (k - 1) * pow2(2 * k - 1) + pow2(k - 1)


def wiener_binomial_recurrence(k: int) -> int:
    """Same value by iterating W(i) = 2 * W(i-1) + i * 2^(2i-2) from W(0) = 0,
    both products as shifts."""
    if k < 0:
        raise InvalidOrderError(f"binomial order must be >= 0, got {k}")
    w = 0
    for i in range(1, k + 1):
        w = (w << 1) + (i << (i + i - 2))
    return w


# ---------------------------------------------------------------------------
# Fibonacci trees
# ---------------------------------------------------------------------------

def d_fib(k: int) -> int:
    """Root distance sum of the order-k Fibonacci tree, closed form
    (k * F(k+2) + (k+2) * F(k)) / 5.  The division is always exact."""
    if k < 0:
        raise InvalidOrderError(f"d_fib needs k >= 0, got {k}")
    return exact_div(k * fib(k + 2) + (k + 2) * fib(k), 5)


def _fib_loop(k: int) -> tuple:
    """(W(k), D(k)) of the order-k Fibonacci tree, by the recurrences of
    wiener_fib and d_fib_recurrence, from orders -1 and 0, single vertices
    with W = D = 0.

    W's step needs the products F(i+1)*D(i-2), F(i)*D(i-1) and F(i+1)*F(i).
    F and D obey linear recurrences, so their products do as well: the loop
    carries the cross products {F(i), F(i+1)} x {D(i-2), D(i-1)} and the
    squares and product of F(i), F(i+1), and takes each to the next order as
    a sum of the others.  A step is therefore additions only; no growing
    integer is ever multiplied.  The tests count the operations as executed.
    """
    if k < -1:
        raise InvalidOrderError(f"fibonacci order must be >= -1, got {k}")
    w_prev2 = w_prev = 0  # W(i-2), W(i-1)
    d_prev2 = d_prev = 0  # D(i-2), D(i-1)
    f, fn = 1, 1  # F(i), F(i+1)
    f_d2 = f_d1 = fn_d2 = fn_d1 = 0  # F(i)*D(i-2), F(i)*D(i-1), F(i+1)*...
    f_f = f_fn = fn_fn = 1  # F(i)^2, F(i)*F(i+1), F(i+1)^2
    for _ in range(k):
        cross = fn_d2 + f_fn  # F(i+1)*(D(i-2) + F(i))
        w = w_prev + w_prev2 + f_d1 + cross
        w_prev2, w_prev = w_prev, w
        # Each product one order up, by D(i) = D(i-1) + D(i-2) + F(i) and
        # F(i+2) = F(i) + F(i+1).
        fn_d = fn_d1 + cross  # F(i+1)*D(i)
        f_d2, f_d1, fn_d2, fn_d1 = fn_d1, fn_d, f_d1 + fn_d1, f_d1 + f_d2 + f_f + fn_d
        f_f, f_fn, fn_fn = fn_fn, f_fn + fn_fn, f_f + f_fn + f_fn + fn_fn
        d_prev2, d_prev = d_prev, d_prev + d_prev2 + f
        f, fn = fn, f + fn
    return w_prev, d_prev


def d_fib_recurrence(k: int) -> int:
    """Same value by iterating D(i) = D(i-1) + D(i-2) + F(i) from D(-1) =
    D(0) = 0: the rightmost-attached order-(i-2) subtree sits one edge
    lower, adding its F(i) vertices on top of both smaller distance sums."""
    if k < 0:
        raise InvalidOrderError(f"d_fib needs k >= 0, got {k}")
    return _fib_loop(k)[1]


def d_fib_convolution(k: int) -> int:
    """Same value as the Fibonacci self-convolution sum of F(j) * F(k-j+1)
    for j = 1..k+1 (cross-check identity only; O(k^2))."""
    if k < 0:
        raise InvalidOrderError(f"d_fib needs k >= 0, got {k}")
    f = fib_table(k + 1)
    return sum(f[j] * f[k - j + 1] for j in range(1, k + 2))


def wiener_fib(k: int) -> int:
    """W of the order-k Fibonacci tree by iterating compose.join written
    out on the order-(i-1) and order-(i-2) trees, of F(i+1) and F(i) vertices,

        W(i) = W(i-1) + W(i-2) + F(i+1)*D(i-2) + F(i)*D(i-1) + F(i+1)*F(i)

    from W(-1) = W(0) = 0, with D rolled alongside by d_fib_recurrence's
    step, and F and the three products by additions (see _fib_loop)."""
    return _fib_loop(k)[0]


def _fib_doubled(k: int) -> tuple:
    """(F(k), F(k+1), F(2k), F(2k+1)), the Fibonacci numbers the two
    Fibonacci closed forms combine: one fast-doubling pass to (F(k), F(k+1))
    and one more doubling step."""
    f, fn = fib_pair(k)
    return f, fn, f * (2 * fn - f), f * f + fn * fn


def wiener_fib_closed(k: int) -> int:
    """W of the order-k Fibonacci tree in closed form,

        50*W(k) = (10k-11)*F(2k) + (20k-8)*F(2k+1) + (8-10k)*(-1)^k + 25*F(k),

    in O(log k) big-integer multiplications.  W is C-finite, since sums and
    products of Fibonacci numbers and polynomials in k are; the identity is
    pinned against wiener_fib by a finite check (tests/test_formulas.py)."""
    if k < -1:
        raise InvalidOrderError(f"fibonacci order must be >= -1, got {k}")
    if k <= 0:
        return 0
    f, _, f2, f2n = _fib_doubled(k)
    sign = -1 if k & 1 else 1
    return exact_div((10 * k - 11) * f2 + (20 * k - 8) * f2n
                     + (8 - 10 * k) * sign + 25 * f, 50)


# ---------------------------------------------------------------------------
# Binary Fibonacci trees
# ---------------------------------------------------------------------------

def d_binfib(k: int) -> int:
    """Root distance sum of the order-k binary Fibonacci tree, closed form
    ((k-3) * F(k+3) + 2 * (k-2) * F(k+2)) / 5 + 2 (division always exact)."""
    if k < 1:
        raise InvalidOrderError(f"d_binfib needs k >= 1, got {k}")
    return exact_div((k - 3) * fib(k + 3) + 2 * (k - 2) * fib(k + 2), 5) + 2


def _binfib_loop(k: int) -> tuple:
    """(W(k), D(k)) of the order-k binary Fibonacci tree, by the recurrences
    of wiener_binfib and d_binfib_recurrence, from order 0, the empty tree,
    and order 1, both with W = D = 0.  At the first step, order 2, every term
    that multiplies the empty right subtree's F(2) - 1 = 0 vertices vanishes.

    Multiplied out, wiener_binfib's step is

        W(i) = W(i-1) + W(i-2) + F(i+1)*D(i-2) + F(i)*D(i-1)
               + 2*F(i)*F(i+1) - F(i) - F(i+1),

    and D(i) = D(i-1) + D(i-2) + F(i) + F(i+1) - 2.  As in _fib_loop, the
    cross products {F(i), F(i+1)} x {D(i-2), D(i-1)} and the squares and
    product of F(i), F(i+1) are carried and rolled by sums of one another,
    now with the affine -1 and -2 terms of D carried along as multiples of
    F(i) and F(i+1).  A step is additions only.
    """
    if k < 1:
        raise InvalidOrderError(f"binary-fibonacci order must be >= 1, got {k}")
    w_prev2 = w_prev = 0  # W(i-2), W(i-1)
    d_prev2 = d_prev = 0  # D(i-2), D(i-1)
    f, fn = 1, 2  # F(i), F(i+1)
    f_d2 = f_d1 = fn_d2 = fn_d1 = 0  # F(i)*D(i-2), F(i)*D(i-1), F(i+1)*...
    f_f, f_fn, fn_fn = 1, 2, 4  # F(i)^2, F(i)*F(i+1), F(i+1)^2
    for _ in range(k - 1):
        cross = fn_d2 + f_fn - fn  # F(i+1)*(D(i-2) + F(i) - 1)
        w = w_prev + w_prev2 + f_d1 + cross + f_fn - f
        w_prev2, w_prev = w_prev, w
        # Each product one order up, by D(i) = D(i-1) + D(i-2) + F(i) +
        # F(i+1) - 2 and F(i+2) = F(i) + F(i+1).
        fn_d = fn_d1 + cross + fn_fn - fn  # F(i+1)*D(i)
        f_d = f_d1 + f_d2 + f_f + f_fn - f - f  # F(i)*D(i)
        f_d2, f_d1, fn_d2, fn_d1 = fn_d1, fn_d, f_d1 + fn_d1, f_d + fn_d
        f_f, f_fn, fn_fn = fn_fn, f_fn + fn_fn, f_f + f_fn + f_fn + fn_fn
        d_prev2, d_prev = d_prev, d_prev + d_prev2 + f + fn - 2
        f, fn = fn, f + fn
    return w_prev, d_prev


def d_binfib_recurrence(k: int) -> int:
    """Same value by iterating D(i) = D(i-1) + D(i-2) + F(i+2) - 2 from
    D(0) = D(1) = 0: both subtrees hang one edge below the fresh root,
    which adds one per vertex, F(i+2) - 2 in total."""
    if k < 1:
        raise InvalidOrderError(f"d_binfib needs k >= 1, got {k}")
    return _binfib_loop(k)[1]


def d_binfib_convolution(k: int) -> int:
    """Same value as the sum of (F(j+2) - 2) * F(k-j+1) for j = 2..k+1
    (cross-check identity only; O(k^2))."""
    if k < 1:
        raise InvalidOrderError(f"d_binfib needs k >= 1, got {k}")
    f = fib_table(k + 3)
    return sum((f[j + 2] - 2) * f[k - j + 1] for j in range(2, k + 2))


def wiener_binfib(k: int) -> int:
    """W of the order-k binary Fibonacci tree, by the corrected recurrence.

    Per step the order-i tree is assembled in two compositions: first the
    fresh root r is joined to the left subtree (order i-1), giving

        A   = W(i-1) + D(i-1) + F(i+1) - 1     (Wiener index of root+left)
        D_A = D(i-1) + F(i+1) - 1              (distance sum from r)

    and then that augmented tree is joined to the right subtree (order i-2):

        W(i) = A + W(i-2) + F(i+1)*D(i-2) + (F(i)-1)*D_A + F(i+1)*(F(i)-1),

    from W(0) = W(1) = 0.  D(i) = D_A + D(i-2) + F(i) - 1 rolls alongside W,
    which is d_binfib_recurrence's step, and F and the products by additions
    (see _binfib_loop), so a call costs O(k) big-integer additions and never
    touches the closed forms.
    """
    return _binfib_loop(k)[0]


def wiener_binfib_closed(k: int) -> int:
    """W of the order-k binary Fibonacci tree in closed form,

        50*W(k) = (30k-124)*F(2k) + (50k-197)*F(2k+1) + (22-10k)*(-1)^k
                  + (30k+155)*F(k) + (40k+175)*F(k+1),

    in O(log k) big-integer multiplications.  The identity is pinned against
    the corrected recurrence wiener_binfib by a finite check
    (tests/test_formulas.py)."""
    if k < 1:
        raise InvalidOrderError(f"binary-fibonacci order must be >= 1, got {k}")
    f, fn, f2, f2n = _fib_doubled(k)
    sign = -1 if k & 1 else 1
    return exact_div((30 * k - 124) * f2 + (50 * k - 197) * f2n
                     + (22 - 10 * k) * sign + (30 * k + 155) * f
                     + (40 * k + 175) * fn, 50)


def wiener_binfib_literal(k: int) -> int:
    """The printed recurrence verbatim, iterated from W(1) = 0, W(2) = 1.

    Kept only to document that it disagrees with direct enumeration (5
    instead of 10 already at k = 3); never use it for real values.
    """
    if k < 3:
        raise InvalidOrderError(f"the literal recurrence starts at k = 3, got {k}")
    w_prev2, w_prev = 0, 1  # W(1), W(2)
    f, f_next = 2, 3  # F(i), F(i+1)
    for i in range(3, k + 1):
        d1 = d_binfib(i - 1)
        d2 = d_binfib(i - 2)
        w = w_prev + w_prev2 + f_next * d2 + (f - 1) * d1 + f_next * (f - 1)
        w_prev2, w_prev = w_prev, w
        f, f_next = f_next, f + f_next
    return w_prev
