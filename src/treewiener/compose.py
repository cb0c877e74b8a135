"""Summary algebra for composing Wiener indices without building trees.

A tree is summarized by the triple (n, w, d_anchor): vertex count, Wiener
index, and the distance sum from a designated anchor vertex.  Two classic
composition rules close over such triples:

* identify(a, b): glue the two anchors into one shared vertex.
* join(a, b): connect the two anchors by a new edge (result anchored at a's
  anchor).

Replaying a family's recursive construction with join then yields the exact
(n, W, D_root) of the order-k tree in O(k) integer operations, which is the
cross-check used against both the closed forms and the brute-force oracles.
The construction rules themselves live with the families, as the grow field
of treewiener.trees.FamilySpec, and FamilySpec.build is the one loop that
runs them, here on summaries and in trees.generate on the trees themselves;
this module knows no family by name.

replay_w reads the same W in O(log k) multiplications, by the lift of the
construction rule.  grow builds order i from the single vertex and the
summaries of orders i-2 and i-1 by joins alone, and join adds W's and
multiplies two linear forms in (n, d_anchor) while n and d_anchor stay
linear.  So one fixed integer matrix takes the vector of W at orders i-2
and i-1 and every monomial of degree <= 2 in their four (n, d_anchor),
1 included, to the same vector one order up: LIFT_DIM = 2 + 15 = 17
coordinates, once both orders are trees, from one order above
min_summary_order.  (The binomial rule reads order i-1 alone and lifts in
1 + 6 = 7, which 17 bounds.)  W and d_anchor are coordinates, so each
satisfies a linear recurrence of order at most LIFT_DIM from there on, and
Berlekamp-Massey on 2 * LIFT_DIM replayed values returns its minimal one,
exactly, not by a fit: a recurrence of order L <= LIFT_DIM is fixed by any
2L consecutive values it generates.
"""

import functools
import math
from collections import namedtuple

from treewiener.errors import InvalidOrderError
from treewiener.exact import exact_div

LIFT_DIM = 17


class TreeSummary(namedtuple("TreeSummary", "n w d_anchor")):
    """(vertex count, Wiener index, anchored distance sum) of some tree: an
    immutable tuple, equal to the plain tuple (n, w, d_anchor)."""

    __slots__ = ()

    def __new__(cls, n: int, w: int, d_anchor: int):
        if n < 1:
            raise ValueError(f"summary needs n >= 1, got {n}")
        if w < 0 or d_anchor < 0:
            raise ValueError("w and d_anchor must be >= 0")
        if n == 1 and (w != 0 or d_anchor != 0):
            raise ValueError("a single vertex has w = 0 and d_anchor = 0")
        return tuple.__new__(cls, (n, w, d_anchor))

    @classmethod
    def _make(cls, iterable):
        """namedtuple's _make, which _replace calls, skips __new__ and so
        the checks above; build through __new__ instead."""
        return cls(*iterable)

    def astuple(self) -> tuple:
        return tuple(self)


SINGLE = TreeSummary(1, 0, 0)


def identify(a: TreeSummary, b: TreeSummary) -> TreeSummary:
    """Summary of the tree obtained by gluing the two anchor vertices.

    The shared vertex u contributes distances into both parts, so every
    pairing of a non-u vertex on one side with a path through u on the other
    shows up as (count - 1) * opposite distance sum.  Anchor of the result
    is u itself.
    """
    return TreeSummary(
        n=a.n + b.n - 1,
        w=a.w + b.w + (a.n - 1) * b.d_anchor + (b.n - 1) * a.d_anchor,
        d_anchor=a.d_anchor + b.d_anchor,
    )


def join(a: TreeSummary, b: TreeSummary) -> TreeSummary:
    """Summary of the tree obtained by adding an edge between the anchors.

    Every cross pair travels the new edge once, hence the extra n_a * n_b.
    The result is anchored at a's anchor u; each b-vertex sits one edge
    farther from u than from b's anchor, hence d_anchor gains b.n.  The
    cross pairs' distances sum to a.n * (b.d_anchor + b.n) + b.n * a.d_anchor,
    two multiplications, and b.d_anchor + b.n is also the distance sum from
    u to b's side, so the new anchor sum reuses it.
    """
    b_from_u = b.d_anchor + b.n
    return TreeSummary(
        n=a.n + b.n,
        w=a.w + b.w + a.n * b_from_u + b.n * a.d_anchor,
        d_anchor=a.d_anchor + b_from_u,
    )


def replay_family(family, k: int) -> TreeSummary:
    """Summary of the order-k tree of a trees.TreeFamily (anchor = root).

    The family's FamilySpec.build on summaries, from the single vertex at
    min_summary_order: O(k) joins.  join is looked up at each call, so
    replacing the module attribute reaches replay.
    """
    floor = family.spec.min_summary_order
    if k < floor:
        raise InvalidOrderError(
            f"{family.value} summaries need order >= {floor}, got {k}"
        )
    return family.spec.build(k, join, SINGLE)


def _minimal_recurrence(values) -> list:
    """The shortest [c1, ..., cL] with values[i] = c1 * values[i-1] + ... +
    cL * values[i-L] for every i >= L: Berlekamp-Massey, fraction-free.

    The connection polynomial C (C[0] its scale) is kept over the integers:
    each update scales C by the discrepancy of the saved polynomial B
    instead of dividing by it, and divides out the content, so that the
    coefficients stay small.  The recurrence is -C[1:] / C[0], and an
    inexact division raises NotDivisibleError.
    """
    conn, saved = [1], [1]
    length, shift, saved_disc = 0, 1, 1
    for i in range(len(values)):
        disc = sum(c * values[i - j] for j, c in enumerate(conn))
        if disc == 0:
            shift += 1
            continue
        new = [saved_disc * c for c in conn]
        new += [0] * (shift + len(saved) - len(new))
        for j, b in enumerate(saved, shift):
            new[j] -= disc * b
        while new[-1] == 0:
            new.pop()
        g = math.gcd(*new)
        new = [c // g for c in new]
        if 2 * length <= i:
            length, saved, saved_disc, shift = i + 1 - length, conn, disc, 1
        else:
            shift += 1
        conn = new
    conn += [0] * (length + 1 - len(conn))
    return [exact_div(-c, conn[0]) for c in conn[1:]]


@functools.cache
def _replay_recurrence(family) -> tuple:
    """(start, seeds, recurrence) of W in replay_family: W at the orders
    start, ..., start + 2 * LIFT_DIM - 1 from one order above
    min_summary_order, and their minimal recurrence.  Built on the first
    call for a family, never at import."""
    start = family.spec.min_summary_order + 1
    seeds = [replay_family(family, k).w for k in range(start, start + 2 * LIFT_DIM)]
    return start, seeds, _minimal_recurrence(seeds)


def _square_mod(a: list, rec: list) -> list:
    """a * a mod P, with P(x) = x^L - c1 x^(L-1) - ... - cL for rec =
    [c1, ..., cL]; polynomials are coefficient lists of length L, lowest
    degree first.  L(L+1)/2 multiplications of a's coefficients, and the
    rest by the small c's."""
    size = len(rec)
    prod = [0] * (2 * size - 1)
    for i, x in enumerate(a):
        prod[2 * i] += x * x
        x2 = 2 * x
        for j in range(i + 1, size):
            prod[i + j] += x2 * a[j]
    for d in range(2 * size - 2, size - 1, -1):  # x^d = x^(d-L) * x^L
        top = prod.pop()
        for j, c in enumerate(rec, 1):
            prod[d - j] += c * top
    return prod


def _nth_term(seeds: list, rec: list, j: int) -> int:
    """Term j of the sequence that starts with seeds and obeys the
    recurrence rec = [c1, ..., cL], in O(log j) multiplications: x^j mod P,
    with P(x) = x^L - c1 x^(L-1) - ... - cL, by squaring, dotted with the
    first L seeds (Fiduccia, SIAM J. Comput. 14, 1985)."""
    if j < len(seeds):
        return seeds[j]
    # The leading bits of j that stay below L give x^lead itself.
    shift = 0
    while j >> shift >= len(rec):
        shift += 1
    power = [0] * len(rec)
    power[j >> shift] = 1
    for i in range(shift - 1, -1, -1):
        power = _square_mod(power, rec)
        if j >> i & 1:  # times x
            top = power.pop()
            power.insert(0, 0)
            for n, c in enumerate(rec, 1):
                power[-n] += c * top
    return sum(p * s for p, s in zip(power, seeds))


def replay_w(family, k: int) -> int:
    """W of the order-k tree of a trees.TreeFamily, equal to
    replay_family(family, k).w, in O(log k) big-integer multiplications,
    by the minimal recurrence of replay_family's W (module docstring).
    Orders up to min_summary_order go to replay_family, which refuses the
    ones below it."""
    if k <= family.spec.min_summary_order:
        return replay_family(family, k).w
    start, seeds, rec = _replay_recurrence(family)
    return _nth_term(seeds, rec, k - start)
