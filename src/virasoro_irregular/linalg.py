"""Exact linear algebra over the Laurent ring and its fraction field.

Determinants use the Bareiss fraction-free scheme so intermediate entries
stay in the ring and every division is exact.  Adjugate columns of a matrix
of up to ``EXPANSION_ROWS`` rows (every frame up to rank 7, and the
rank-one level matrices up to level 5) come from Laplace expansion, each
minor computed once and shared, with no division at all; a larger matrix
takes one Bareiss elimination of itself bordered by unit columns, then
fraction-free back substitution.  Frame inverses take every column; the
rank-one level solve multiplies the adjugate into a right-hand side that
vanishes at most partitions, so it asks only for the columns where that
side is nonzero: at level ``k`` (a ``p(k)``-row matrix, 11 rows at level 6)
at most ``1 + k // 2`` of them.  Both read the determinant off one computed
column instead of eliminating again.  Rational systems, such as the
odd-family scalar completion, are solved sparsely.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .ring import LaurentPoly, NotDivisible, dot


class LinalgError(Exception):
    """Base class for exact linear-algebra failures."""


class SingularSystem(LinalgError):
    """A matrix expected to be invertible has rank deficiency."""


class InconsistentSystem(LinalgError):
    """An overdetermined system has no solution."""


Matrix = list[list[LaurentPoly]]


def _bareiss(a: Matrix, n: int) -> int:
    """Fraction-free elimination of the leading ``n`` columns of ``a``, in place.

    Every column right of the pivot is carried along, so bordered columns
    come out reduced too; an entry that is zero and stays zero is skipped.
    Returns the row-swap sign, or 0 when a column has no pivot.  Afterwards
    ``a[n-1][n-1]`` is the determinant of the row-permuted square block.
    """
    width = len(a[0])
    table = a[0][0].table
    sign, prev = 1, LaurentPoly.const(table, 1)
    for k in range(n - 1):
        if a[k][k].is_zero():
            swap = next((i for i in range(k + 1, n) if not a[i][k].is_zero()), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        top, pivot = a[k], a[k][k]
        for row in a[k + 1:]:
            f = row[k]
            neg_f = -f
            for j in range(k + 1, width):
                if row[j].is_zero() and (f.is_zero() or top[j].is_zero()):
                    continue
                row[j] = dot(table, [(pivot, row[j]), (neg_f, top[j])]).exact_div(prev)
        prev = pivot
    return sign


def det_bareiss(rows: Sequence[Sequence[LaurentPoly]]) -> LaurentPoly:
    """Determinant by fraction-free elimination with row pivoting."""
    n = len(rows)
    if n == 0:
        raise ValueError("empty matrix")
    if any(len(row) != n for row in rows):
        raise ValueError("matrix must be square")
    a = [list(row) for row in rows]
    return _bareiss(a, n) * a[n - 1][n - 1]


# Largest matrix whose adjugate is taken by expansion.  The expansion does
# no division, but it forms on the order of 2**n minors where the
# elimination forms n**3 entries; the crossover, measured on the level
# matrices, the frames and random dense matrices, is in CHANGES.md.
EXPANSION_ROWS = 7


def adjugate(rows: Sequence[Sequence[LaurentPoly]],
             cols: Sequence[int] | None = None) -> Matrix:
    """Adjugate matrix: ``A @ adjugate(A) == det(A) * I``.

    With ``cols`` only those columns are computed; every other entry is
    zero, so ``mat_vec(adjugate(A, cols), v)`` is ``adjugate(A) @ v``
    whenever ``v`` vanishes outside ``cols``.

    Up to ``EXPANSION_ROWS`` rows, and for a singular matrix whose
    elimination runs out of pivots, each cofactor is a Laplace expansion
    (see :func:`_expansion_adjugate`).  Otherwise one Bareiss elimination
    of ``[A | e_cols]`` leaves ``U x = b`` with ``U[-1][-1] = det(PA)`` for
    the row permutation ``P``; fraction-free back substitution then gives
    ``det(PA) x = sign(P) adj(A) e_j``.  Every intermediate is a minor, so
    every division is exact.
    """
    n = len(rows)
    table = rows[0][0].table
    zero = LaurentPoly.zero(table)
    cols = range(n) if cols is None else cols
    out = [[zero] * n for _ in range(n)]
    if n <= EXPANSION_ROWS:
        return _expansion_adjugate(rows, cols, out)
    one = LaurentPoly.const(table, 1)
    a = [list(row) + [one if i == j else zero for j in cols]
         for i, row in enumerate(rows)]
    sign = _bareiss(a, n)
    if sign == 0:
        return _expansion_adjugate(rows, cols, out)
    det = a[n - 1][n - 1]
    for c, j in enumerate(cols, start=n):
        neg = [zero] * n   # -x, so that each row is one sum of products
        for i in range(n - 1, -1, -1):
            x = a[i][c] if i == n - 1 else dot(
                table, [(det, a[i][c]), *zip(a[i][i + 1:n], neg[i + 1:])]).exact_div(a[i][i])
            neg[i] = -x
            out[i][j] = x if sign == 1 else neg[i]
    return out


def _expansion_adjugate(rows: Sequence[Sequence[LaurentPoly]], cols: Sequence[int],
                        out: Matrix) -> Matrix:
    """``adjugate`` with entry ``(i, j)`` the minor of ``A`` without row ``j``
    and column ``i``, signed, each by Laplace expansion along its last row.

    The cofactors of one column share every minor on the rows above the
    row they drop, so the minors are memoized by (row tuple, column tuple).
    """
    n = len(rows)
    if n == 1:
        for j in cols:
            out[0][j] = LaurentPoly.const(rows[0][0].table, 1)
        return out
    neg = [[-a for a in row] for row in rows]
    minors: dict[tuple[tuple[int, ...], tuple[int, ...]], LaurentPoly] = {}
    full = tuple(range(n))
    for j in cols:
        kept = full[:j] + full[j + 1:]
        for i in range(n):
            out[i][j] = _expand(rows, neg, minors, kept, full[:i] + full[i + 1:],
                                (i + j) % 2)
    return out


def _expand(rows: Sequence[Sequence[LaurentPoly]], neg: Matrix,
            minors: dict, r: tuple[int, ...], c: tuple[int, ...],
            odd: int) -> LaurentPoly:
    """The minor of ``rows`` on rows ``r`` and columns ``c``, negated when
    ``odd``, expanded along row ``r[-1]`` over the memoized smaller minors:
    one ``dot``, where a zero entry or a zero minor adds no pair."""
    last, above = r[-1], r[:-1]
    if not above:
        return (neg if odd else rows)[last][c[0]]
    top, ntop = rows[last], neg[last]
    odd += len(above)   # r[-1] is row len(above) of the minor
    pairs = []
    for k, col in enumerate(c):
        entry = top[col]
        if entry.is_zero():
            continue
        rest = c[:k] + c[k + 1:]
        sub = minors.get((above, rest))
        if sub is None:
            sub = minors[above, rest] = _expand(rows, neg, minors, above, rest, 0)
        if not sub.is_zero():
            pairs.append((ntop[col] if (odd + k) % 2 else entry, sub))
    return dot(top[0].table, pairs)


def det_from_adjugate(rows: Sequence[Sequence[LaurentPoly]], adj: Matrix,
                      j: int) -> LaurentPoly:
    """``det(A)`` as row ``j`` of ``A`` times column ``j`` of its adjugate."""
    return dot(rows[0][0].table, [(a, adj[i][j]) for i, a in enumerate(rows[j])])


def inverse_exact(rows: Sequence[Sequence[LaurentPoly]]) -> Matrix:
    """Inverse with entries in the Laurent ring; needs det to divide every cofactor."""
    adj = adjugate(rows)
    d = det_from_adjugate(rows, adj, 0)
    if d.is_zero():
        raise SingularSystem("matrix determinant is zero")
    try:
        return [[entry.exact_div(d) for entry in row] for row in adj]
    except NotDivisible as exc:
        raise NotDivisible(f"inverse leaves the Laurent ring: {exc}") from exc


def mat_vec(a: Sequence[Sequence[LaurentPoly]], v: Sequence[LaurentPoly]) -> list[LaurentPoly]:
    table = v[0].table
    return [dot(table, zip(row, v)) for row in a]


def sparse_solve(rows: Sequence[dict[int, Fraction]], rhs: Sequence[Fraction],
                 ncols: int) -> list[Fraction]:
    """Solve a sparse rational system, zeroing all free columns.

    Each row maps a column to its nonzero coefficient.  The columns are
    eliminated left to right, each on the sparsest live row that holds it,
    so the pivot columns are the greedy left-to-right column basis whatever
    the row order, and the solution supported on them is unique.  Raises
    InconsistentSystem when no solution exists.
    """
    live = [dict(row) for row in rows]
    b = list(rhs)
    holders: dict[int, set[int]] = {}   # column -> the non-pivot rows holding it
    for i, row in enumerate(live):
        for c in row:
            holders.setdefault(c, set()).add(i)
    pivots: list[tuple[int, dict[int, Fraction], Fraction]] = []
    for col in range(ncols):
        held = holders.pop(col, None)
        if not held:
            continue
        p = min(held, key=lambda i: (len(live[i]), i))
        held.discard(p)
        top = live[p]
        inv = 1 / Fraction(top.pop(col))
        for c in top:
            top[c] *= inv
            holders[c].discard(p)
        top_b, b[p] = b[p] * inv, 0
        pivots.append((col, top, top_b))
        for i in held:
            row = live[i]
            f = row.pop(col)
            for c, v in top.items():
                x = row.get(c, 0) - f * v
                if x:
                    row[c] = x
                    holders.setdefault(c, set()).add(i)
                else:
                    del row[c]
                    holders[c].discard(i)
            b[i] -= f * top_b
    if any(b):
        raise InconsistentSystem("no solution over the rationals")
    xs = [Fraction(0)] * ncols
    for col, top, top_b in reversed(pivots):
        xs[col] = top_b - sum(v * xs[c] for c, v in top.items())
    return xs
