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
multiply no growing integer.  Both Fibonacci families share one roll
(_roll): each runs its own W step, with D from its own D loop, up to
order 10, and from there W and the step's cross term go up by one linear
recurrence that both families' W obey, in 12 additions per order.  The D
recurrences run a loop of their own that rolls only D and F, 4 additions
per order.  The convolution forms are O(k^2) and exist only as
cross-check identities.

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

from itertools import islice

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
    """Same value by the recurrence W(i) = 2 * W(i-1) + i * 4^(i-1) from
    W(0) = 0, iterated on X(i) = W(i) / 2^(i-1): X(i) = X(i-1) + i * 2^(i-1),
    so each step adds an i-bit shift where W's would add a 2i-bit one, and
    W(k) = X(k) * 2^(k-1) is one shift at the end."""
    if k < 0:
        raise InvalidOrderError(f"binomial order must be >= 0, got {k}")
    x = 0
    for i in range(1, k + 1):
        x += i << (i - 1)
    return x << (k - 1) if k else 0


# ---------------------------------------------------------------------------
# One roll for both Fibonacci families
# ---------------------------------------------------------------------------

def _d_values(c: int):
    """D at every order of a Fibonacci family above its lowest one, upward
    without end.  The two lowest orders have D = 0, and each step is

        D(i) = D(i-1) + D(i-2) + s(i),   s(i) = s(i-1) + s(i-2) + c,

    where s(i) counts the vertices that the step hangs one edge deeper:
    F(i) with c = 0 (Fibonacci), F(i+2) - 2 with c = 2 (binary Fibonacci).
    Both families have s = 0, 1 at the orders before and at their first
    step.  A step is 4 additions on integers of D's size, about half W's.
    """
    d_prev, d, s_prev, s = 0, 0, 0, 1
    while True:
        yield d
        d_prev, d, s_prev, s = d, d + d_prev + s, s, s + s_prev + c


def _start(low: int, c: int, cross) -> tuple:
    """W of a Fibonacci family at the orders low .. 10, and the state of
    _roll at order 10, all from small integers.

    Orders low and low + 1 have W = 0.  From order low + 2 on, W(i) =
    W(i-1) + W(i-2) + cross(F(i), F(i+1), D(i-2), D(i-1)), the family's own
    step, with D taken from _d_values(c).  The cascade's stages are then
    read off W(1) .. W(10) by their definitions (see _roll), each stage
    applying one factor x^2 - ax - b to the one before."""
    d = [0, *islice(_d_values(c), 9 - low)]  # D(low) .. D(9)
    f, fn = fib_pair(low + 2)  # F(i), F(i+1)
    w = [0, 0]  # W(low), W(low + 1), ...
    for d2, d1 in zip(d, d[1:]):  # D(i-2), D(i-1)
        w.append(w[-1] + w[-2] + cross(f, fn, d2, d1))
        f, fn = fn, f + fn
    stages = [w[1 - low:]]  # W(1) .. W(10), then g, t, u and v
    for a, b in (1, 1), (3, -1), (3, -1), (1, 1):
        s = stages[-1]
        stages.append([z - a * y - b * x for x, y, z in zip(s, s[1:], s[2:])])
    _, g, t, u, v = stages  # g(3) .. g(10), t(5) .., u(7) .., v(9), v(10)
    return w, (w[-2], w[-1], g[-1], g[-1] - g[-2], t[-1], t[-1] - t[-2],
               u[-2], u[-1], v[-2], v[-1])


def _roll(state: tuple, steps: int) -> tuple:
    """The state (W(i-1), W(i), g(i), g(i) - g(i-1), t(i), t(i) - t(i-1),
    u(i-1), u(i), v(i-1), v(i)) taken `steps` orders up, by additions only.

    W(i) = W(i-1) + W(i-2) + g(i) is the paper's step.  Its cross term g is
    a sum of products of F and D, which are C-finite, so g obeys a linear
    recurrence with small integer coefficients (Kauers & Paule, The
    Concrete Tetrahedron, 2011, ch. 4).  From order 1 on, W of either
    Fibonacci family is annihilated by

        P_B = (x^2-x-1)^2 (x^2-3x+1)^2 (x+1)^2

    (the closed forms show it, and tests/test_formulas.py pins it by a
    finite check), so g, W's image under x^2-x-1, is annihilated by the
    other factors.  Writing (x^2-ax-b) s for the sequence s(i) - a*s(i-1) -
    b*s(i-2), g is carried through them one at a time:

        t = (x^2-3x+1) g,   u = (x^2-3x+1) t,   v = (x^2-x-1) u,
        v(i) = -2 v(i-1) - v(i-2).

    Each x^2-3x+1 stage runs as a value and its difference, since g(i) -
    g(i-1) = g(i-1) + (g(i-1) - g(i-2)) + t(i), so no step multiplies.  A
    step is 12 additions, 8 of them on integers of W's size (W, g and t);
    u is half that size and v is (-1)^i times a linear polynomial in i.
    """
    w_prev, w, g, dg, t, dt, u_prev, u, v_prev, v = state
    for _ in range(steps):
        v_prev, v = v, -(v + v + v_prev)
        u_prev, u = u, u + u_prev + v
        dt += t + u
        t += dt
        dg += g + t
        g += dg
        w_prev, w = w, w + w_prev + g
    return w_prev, w, g, dg, t, dt, u_prev, u, v_prev, v


# ---------------------------------------------------------------------------
# Fibonacci trees
# ---------------------------------------------------------------------------

def d_fib(k: int) -> int:
    """Root distance sum of the order-k Fibonacci tree, closed form
    (k * F(k+2) + (k+2) * F(k)) / 5.  The division is always exact."""
    if k < 0:
        raise InvalidOrderError(f"d_fib needs k >= 0, got {k}")
    return exact_div(k * fib(k + 2) + (k + 2) * fib(k), 5)


def d_fib_recurrence(k: int) -> int:
    """Same value by iterating D(i) = D(i-1) + D(i-2) + F(i) from D(-1) =
    D(0) = 0: the rightmost-attached order-(i-2) subtree sits one edge
    lower, adding its F(i) vertices on top of both smaller distance sums."""
    if k < 0:
        raise InvalidOrderError(f"d_fib needs k >= 0, got {k}")
    return next(islice(_d_values(0), k, None))


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

    from W(-1) = W(0) = 0, with D from d_fib_recurrence's loop.  The step
    runs as written up to order 10; from there _roll carries its cross term
    by additions only, 12 per order.
    """
    if k < -1:
        raise InvalidOrderError(f"fibonacci order must be >= -1, got {k}")
    w, state = _start(-1, 0, lambda f, fn, d2, d1: fn * d2 + f * d1 + fn * f)
    return w[k + 1] if k <= 10 else _roll(state, k - 10)[1]


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


def d_binfib_recurrence(k: int) -> int:
    """Same value by iterating D(i) = D(i-1) + D(i-2) + F(i+2) - 2 from
    D(0) = D(1) = 0: both subtrees hang one edge below the fresh root,
    which adds one per vertex, F(i+2) - 2 in total."""
    if k < 1:
        raise InvalidOrderError(f"d_binfib needs k >= 1, got {k}")
    return next(islice(_d_values(2), k - 1, None))


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

    from W(0) = W(1) = 0, with D from d_binfib_recurrence's loop, whose step
    D(i) = D_A + D(i-2) + F(i) - 1 is the same composition.  Since
    (F(i)-1)*D_A + D_A = F(i)*D_A, the step's cross term is
    F(i+1)*(D(i-2) + F(i) - 1) + F(i)*D_A.  The step runs as written up to
    order 10; from there _roll carries that term by additions only, 12 per
    order, so a call costs O(k) big-integer additions and never touches the
    closed forms.
    """
    if k < 1:
        raise InvalidOrderError(f"binary-fibonacci order must be >= 1, got {k}")
    w, state = _start(0, 2, lambda f, fn, d2, d1: fn * (d2 + f - 1) + f * (d1 + fn - 1))
    return w[k] if k <= 10 else _roll(state, k - 10)[1]


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
