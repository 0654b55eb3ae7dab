"""Exact linear algebra over the Laurent ring and its fraction field.

Determinants use the Bareiss fraction-free scheme so intermediate entries
stay in the ring and every division is exact.  Adjugate columns come from
one such elimination of the matrix bordered by unit columns, then
fraction-free back substitution.  Frame inverses take every column; the
rank-one level solve multiplies the adjugate into a right-hand side that
vanishes at most partitions, so it asks only for the columns where that
side is nonzero: at level ``k`` (a ``p(k)``-row matrix, 11 rows at level 6)
at most ``1 + k // 2`` of them.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .ring import LaurentPoly, NotDivisible


class LinalgError(Exception):
    """Base class for exact linear-algebra failures."""


class SingularSystem(LinalgError):
    """A matrix expected to be invertible has rank deficiency."""


class InconsistentSystem(LinalgError):
    """An overdetermined system has no solution."""


Matrix = list[list[LaurentPoly]]


def _clone(rows: Sequence[Sequence[LaurentPoly]]) -> Matrix:
    return [list(row) for row in rows]


def det_bareiss(rows: Sequence[Sequence[LaurentPoly]]) -> LaurentPoly:
    """Determinant by fraction-free elimination with row pivoting."""
    n = len(rows)
    if n == 0:
        raise ValueError("empty matrix")
    if any(len(row) != n for row in rows):
        raise ValueError("matrix must be square")
    table = rows[0][0].table
    a = _clone(rows)
    sign = 1
    prev = LaurentPoly.const(table, 1)
    for k in range(n - 1):
        if a[k][k].is_zero():
            swap = next((i for i in range(k + 1, n) if not a[i][k].is_zero()), None)
            if swap is None:
                return LaurentPoly.zero(table)
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[k][k] * a[i][j] - a[i][k] * a[k][j]).exact_div(prev)
            a[i][k] = LaurentPoly.zero(table)
        prev = a[k][k]
    return a[n - 1][n - 1] if sign == 1 else -a[n - 1][n - 1]


def _minor(rows: Sequence[Sequence[LaurentPoly]], drop_row: int, drop_col: int) -> Matrix:
    return [
        [entry for j, entry in enumerate(row) if j != drop_col]
        for i, row in enumerate(rows)
        if i != drop_row
    ]


def adjugate(rows: Sequence[Sequence[LaurentPoly]],
             cols: Sequence[int] | None = None) -> Matrix:
    """Adjugate matrix: ``A @ adjugate(A) == det(A) * I``.

    With ``cols`` only those columns are computed; every other entry is
    zero, so ``mat_vec(adjugate(A, cols), v)`` is ``adjugate(A) @ v``
    whenever ``v`` vanishes outside ``cols``.

    One Bareiss elimination of ``[A | e_cols]`` leaves ``U x = b`` with
    ``U[-1][-1] = det(PA)`` for the row permutation ``P``; fraction-free
    back substitution then gives ``det(PA) x = sign(P) adj(A) e_j``.  Every
    intermediate is a minor, so every division is exact.  Two kinds of
    matrix take their cofactors one at a time instead: those of at most
    three rows (the frames of ranks up to 5/2), whose cofactors need at most
    two products each and no division, and a singular one whose elimination
    runs out of pivots early.
    """
    n = len(rows)
    table = rows[0][0].table
    zero = LaurentPoly.zero(table)
    cols = range(n) if cols is None else cols
    out = [[zero] * n for _ in range(n)]
    if n <= 3:
        return _cofactor_adjugate(rows, cols, out)
    one = LaurentPoly.const(table, 1)
    a = [list(row) + [one if i == j else zero for j in cols]
         for i, row in enumerate(rows)]
    width = len(a[0])
    sign, prev = 1, one
    for k in range(n - 1):
        if a[k][k].is_zero():
            swap = next((i for i in range(k + 1, n) if not a[i][k].is_zero()), None)
            if swap is None:
                return _cofactor_adjugate(rows, cols, out)
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        top, pivot = a[k], a[k][k]
        for row in a[k + 1:]:
            f = row[k]
            for j in range(k + 1, width):
                if row[j].is_zero() and (f.is_zero() or top[j].is_zero()):
                    continue
                row[j] = (pivot * row[j] - f * top[j]).exact_div(prev)
        prev = pivot
    det = a[n - 1][n - 1]
    for c, j in enumerate(cols, start=n):
        x = [zero] * n
        x[n - 1] = a[n - 1][c]
        for i in range(n - 2, -1, -1):
            acc = det * a[i][c]
            for col in range(i + 1, n):
                if not x[col].is_zero():
                    acc = acc - a[i][col] * x[col]
            x[i] = acc.exact_div(a[i][i])
        for i in range(n):
            out[i][j] = x[i] if sign == 1 else -x[i]
    return out


def _cofactor_adjugate(rows: Sequence[Sequence[LaurentPoly]], cols: Sequence[int],
                       out: Matrix) -> Matrix:
    """``adjugate`` by one cofactor determinant per entry."""
    n = len(rows)
    for j in cols:
        for i in range(n):
            cof = (det_bareiss(_minor(rows, j, i)) if n > 1
                   else LaurentPoly.const(rows[0][0].table, 1))
            out[i][j] = cof if (i + j) % 2 == 0 else -cof
    return out


def inverse_exact(rows: Sequence[Sequence[LaurentPoly]]) -> Matrix:
    """Inverse with entries in the Laurent ring; needs det to divide every cofactor."""
    d = det_bareiss(rows)
    if d.is_zero():
        raise SingularSystem("matrix determinant is zero")
    adj = adjugate(rows)
    try:
        return [[entry.exact_div(d) for entry in row] for row in adj]
    except NotDivisible as exc:
        raise NotDivisible(f"inverse leaves the Laurent ring: {exc}") from exc


def mat_vec(a: Sequence[Sequence[LaurentPoly]], v: Sequence[LaurentPoly]) -> list[LaurentPoly]:
    out = []
    for row in a:
        acc = row[0] * v[0]
        for entry, x in zip(row[1:], v[1:]):
            acc = acc + entry * x
        out.append(acc)
    return out


def rref_solve_fraction(
    a_rows: Sequence[Sequence[Fraction]],
    b: Sequence[Fraction],
) -> tuple[list[Fraction], list[int]]:
    """Solve a rational linear system, zeroing all free variables.

    Returns ``(solution, free_columns)``; the solution is the unique one
    supported on pivot columns, which makes the output deterministic.
    Raises InconsistentSystem when no solution exists.
    """
    m = len(a_rows)
    n = len(a_rows[0]) if m else 0
    aug = [[Fraction(x) for x in row] + [Fraction(rhs)] for row, rhs in zip(a_rows, b)]
    row = 0
    pivot_of_col: dict[int, int] = {}
    for col in range(n):
        piv = next((i for i in range(row, m) if aug[i][col] != 0), None)
        if piv is None:
            continue
        aug[row], aug[piv] = aug[piv], aug[row]
        inv = 1 / aug[row][col]
        aug[row] = [entry * inv for entry in aug[row]]
        for i in range(m):
            if i != row and aug[i][col] != 0:
                factor = aug[i][col]
                aug[i] = [x - factor * y for x, y in zip(aug[i], aug[row])]
        pivot_of_col[col] = row
        row += 1
    for i in range(row, m):
        if aug[i][n] != 0:
            raise InconsistentSystem("no solution over the rationals")
    xs = [Fraction(0)] * n
    for col, r in pivot_of_col.items():
        xs[col] = aug[r][n]
    free = [c for c in range(n) if c not in pivot_of_col]
    return xs, free
