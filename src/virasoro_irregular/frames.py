"""Parameter frames: eigenvalue tables, deformation fields and dual operators.

A family of modules is coordinatized by scalars ``c_1 .. c_r`` (plus the
zero-mode parameter ``c_0`` and the background charge ``Q``).  Deforming a
parameter acts on eigenvalues through explicit vector fields; inverting the
matrix of those fields against the parameter derivatives singles out, for
each expansion variable, one operator combination dual to it.  That dual
combination drives the series recursions in the solver, and the remaining
rows of the inverse drive the gauge analysis.

Two families appear:

* the polynomial family, coordinates ``c_1..c_r``, expansion in the top
  parameter ``c_r``;
* the odd family, coordinates ``c_1..c_{r-1}`` plus a top eigenvalue ``Lam``
  of weight ``2r-1``, expansion in ``Lam``.

:class:`Family` is the one value that names a rank.  It makes the choice
between the two families once, from the rank's (kind, r); every other
module reads its mode scalars, fields, frame and dual operator from there.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import Sequence

from .linalg import inverse_exact
from .ring import LaurentPoly, RingError, VarTable

GENERAL = "general"
DISPLAY = "section2-display"
CONVENTIONS = (GENERAL, DISPLAY)


class FrameError(RingError):
    """Structural failure while building a frame or its dual operator."""


class DegreeOverflow(FrameError):
    """A dual-operator coefficient has powers outside the proven range."""


# ----- scalar tables --------------------------------------------------------


def default_central_charge(table: VarTable) -> LaurentPoly:
    q = LaurentPoly.var(table, "Q")
    return 1 + 6 * q * q


def conformal_weight(table: VarTable, c0name: str) -> LaurentPoly:
    c0 = LaurentPoly.var(table, c0name)
    return c0 * (LaurentPoly.var(table, "Q") - c0)


def _cvar(table: VarTable, cnames: Sequence[str], j: int) -> LaurentPoly:
    """c_j as a polynomial; indices outside 1..len(cnames) give zero."""
    if 1 <= j <= len(cnames):
        return LaurentPoly.var(table, cnames[j - 1])
    return LaurentPoly.zero(table)


def _quadratic(table: VarTable, cnames: Sequence[str], n: int) -> LaurentPoly:
    """``-sum_{a+b=n} c_a c_b`` over positive indices."""
    out = LaurentPoly.zero(table)
    for a in range(1, n):
        out = out - _cvar(table, cnames, a) * _cvar(table, cnames, n - a)
    return out


def eigenvalue(table: VarTable, n: int, cnames: Sequence[str],
               c0name: str = "c0", convention: str = GENERAL) -> LaurentPoly:
    """Mode-n eigenvalue of the family with top parameter index len(cnames).

    The linear part is ``((n+1) Q - kappa c_0) c_n`` with ``kappa = 1`` in
    the general convention and ``kappa = 2`` in the display convention; the
    quadratic part is ``-sum_{a+b=n} c_a c_b`` over positive indices.
    """
    if convention not in CONVENTIONS:
        raise ValueError(f"unknown convention {convention!r}")
    if n < 1:
        raise ValueError("eigenvalues are indexed by positive modes")
    kappa = 1 if convention == GENERAL else 2
    q = LaurentPoly.var(table, "Q")
    c0 = LaurentPoly.var(table, c0name)
    return ((n + 1) * q - kappa * c0) * _cvar(table, cnames, n) \
        + _quadratic(table, cnames, n)


# ----- fields and dual operators ------------------------------------------------


def apply_field(field: dict[str, LaurentPoly], poly: LaurentPoly) -> LaurentPoly:
    out = LaurentPoly.zero(poly.table)
    for name, coeff in field.items():
        out = out + coeff * poly.derivative(name)
    return out


class DualOperator:
    """Expansion-variable orders of the operator dual to one frame direction.

    ``orders[i]`` maps a mode index ``n`` to the coefficient of ``D_n`` at
    order ``i`` of the expansion variable; coefficients never contain the
    expansion variable itself.  ``D_n`` stands for mode ``n`` minus its
    scalar from :meth:`Family.mode_scalars`.  ``row`` is the unsplit L_*
    row, the top row of the inverted frame.
    """

    __slots__ = ("var", "orders", "row")

    def __init__(self, var: str, orders: list[dict[int, LaurentPoly]],
                 row: list[LaurentPoly]) -> None:
        self.var, self.orders, self.row = var, orders, row


def _dual_from_frame(family: Family, table: VarTable) -> DualOperator:
    """Top row of the inverted frame, cleared by ``var ** r`` and split into
    powers of ``var``: ``sum_i var^i sum_n w[i][n] D_n`` with every
    ``w[i][n]`` free of ``var`` and every power inside ``0..r-1``."""
    r, var = family.r, family.var
    row = inverse_exact(family.frame_matrix(table))[r - 1]
    clear = LaurentPoly.var(table, var, r)
    orders: list[dict[int, LaurentPoly]] = [{} for _ in range(r)]
    for n in range(r):
        for power, part in (clear * row[n]).split_by_var(var).items():
            if power < 0 or power > r - 1:
                raise DegreeOverflow(
                    f"dual coefficient power {power} outside 0..{r - 1}")
            if not part.is_zero():
                orders[power][n] = part
    return DualOperator(var=var, orders=orders, row=row)


# The two families' dual operators are separate functions so that a profiler
# can wrap each by name; both are reached through Family.dual_operator.


def dual_operator(family: Family, table: VarTable) -> DualOperator:
    """Operator combination dual to deforming the top polynomial parameter."""
    return _dual_from_frame(family, table)


def odd_dual_operator(family: Family, table: VarTable) -> DualOperator:
    """Operator combination dual to deforming the top odd eigenvalue."""
    return _dual_from_frame(family, table)


# ----- rank families ------------------------------------------------------------

INTEGER = "integer"
HALF = "half"
RANK_ONE = "rank-one"


class Family:
    """Frame data of one rank, keyed by (kind, r): integer rank ``r`` (rank
    one included) has the polynomial fields and expands in ``c_r``, half rank
    ``r - 1/2`` has the odd fields and expands in ``Lam``.  Both have the
    lower parameters ``c_1..c_{r-1}``."""

    __slots__ = ("kind", "r")

    def __init__(self, kind: str, r: int) -> None:
        self.kind, self.r = kind, r

    @property
    def cnames(self) -> tuple[str, ...]:
        return tuple(f"c{j}" for j in range(1, self.r))

    @property
    def var(self) -> str:
        return "Lam" if self.kind == HALF else f"c{self.r}"

    @property
    def coords(self) -> tuple[str, ...]:
        """Frame coordinates: the lower parameters, then the expansion variable."""
        return self.cnames + (self.var,)

    @property
    def step(self) -> int:
        """Weight of the expansion variable."""
        return 2 * self.r - 1 if self.kind == HALF else self.r

    @property
    def base_c0(self) -> str:
        """Zero-mode parameter of the rank ``r-1`` module under the series."""
        return "c0p" if self.kind == INTEGER else "c0"

    @property
    def passives(self) -> tuple[str, ...]:
        """Zero-mode parameters the gauge potential leaves free: the base
        module's, then ``c0`` (one name at half rank, where they coincide)."""
        return tuple(dict.fromkeys((self.base_c0, "c0")))

    def frame_table(self) -> VarTable:
        """``Q``, ``c0``, the lower parameters and the expansion variable."""
        return VarTable(("Q", "c0") + self.coords,
                        (0, 0) + tuple(range(1, self.r)) + (self.step,))

    def mode_scalars(self, table: VarTable, c0name: str = "c0") -> dict[int, LaurentPoly]:
        """Fixed scalar of each mode that has one.  At integer rank these are
        the conformal weight and the eigenvalues of modes ``1..2r``.  At half
        rank they are the annihilating window: the pure quadratic
        ``-sum c_a c_b`` over ``c_1..c_{r-1}`` at modes ``r..2r-2`` and the
        free top eigenvalue at mode ``2r-1`` (the lower modes come from the
        scalar completion, the higher ones vanish and are omitted)."""
        r = self.r
        if self.kind != HALF:
            return {n: eigenvalue(table, n, self.coords, c0name) if n else
                    conformal_weight(table, c0name) for n in range(2 * r + 1)}
        out = {m: _quadratic(table, self.cnames, m) for m in range(r, 2 * r - 1)}
        out[2 * r - 1] = LaurentPoly.var(table, self.var)
        return out

    def fields(self, table: VarTable) -> list[dict[str, LaurentPoly]]:
        """Vector fields of the parameter deformations, indices ``0`` to
        ``r-1``; field ``0`` is the weight (Euler) field.

        At integer rank field ``i`` sends ``c_k`` to ``k * c_{i+k}``, entries
        beyond the top index vanishing.  At half rank the components of field
        ``n >= 1`` are the unique solution of the requirement that applying
        the field to every annihilating-window scalar ``S_m`` (modes ``r`` to
        ``2r-2``) returns ``(m - n) S_{m+n}``, scalars above mode ``2r-1``
        being zero.  That system is triangular with diagonal ``-2 c_{r-1}``,
        so the solution is exact.
        """
        r, coords = self.r, self.coords
        if self.kind != HALF:
            return [{coords[k - 1]: k * _cvar(table, coords, i + k)
                     for k in range(1, r - i + 1)} for i in range(r)]
        lower = self.cnames
        scalars = self.mode_scalars(table)
        zero = LaurentPoly.zero(table)
        euler = {name: k * _cvar(table, lower, k) for k, name in enumerate(lower, 1)}
        euler[self.var] = (2 * r - 1) * LaurentPoly.var(table, self.var)
        fields = [euler]
        diag = -2 * _cvar(table, lower, r - 1)
        for n in range(1, r):
            h: dict[int, LaurentPoly] = {}
            for j in range(r - 1, 0, -1):
                acc = (r - 1 + j - n) * scalars.get(r - 1 + j + n, zero)
                for k in range(j + 1, r):
                    acc = acc + 2 * _cvar(table, lower, r - 1 + j - k) * h[k]
                h[j] = acc.exact_div(diag)
            fields.append({lower[k - 1]: h[k] for k in range(1, r) if not h[k].is_zero()})
        return fields

    def frame_matrix(self, table: VarTable) -> list[list[LaurentPoly]]:
        """Matrix of the deformation fields against the coordinate derivatives."""
        zero = LaurentPoly.zero(table)
        return [[field.get(col, zero) for col in self.coords]
                for field in self.fields(table)]

    def expected_det(self, table: VarTable) -> LaurentPoly:
        """Closed form of the frame determinant: ``+-r! c_r^r`` at integer
        rank, ``kappa Lam^r c_{r-1}^{-(r-1)}`` at half rank."""
        r = self.r
        sign = -1 if (r * (r - 1) // 2) % 2 else 1
        top = LaurentPoly.var(table, self.var, r)
        if self.kind != HALF:
            return top * Fraction(sign * factorial(r))
        kappa = Fraction(sign * (2 * r - 1))
        for n in range(1, r):
            kappa *= Fraction(-(2 * r - 2 * n - 1), 2)
        return top * LaurentPoly.var(table, self.cnames[-1], -(r - 1)) * kappa

    def dual_operator(self, table: VarTable) -> DualOperator:
        """Operator combination dual to deforming the expansion variable."""
        return (odd_dual_operator if self.kind == HALF else dual_operator)(self, table)
