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

:class:`Family` makes the choice between them once, from a rank's (kind, r);
every other module reads its mode scalars, fields, frame and dual operator
from there.
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


def default_central_charge(table: VarTable, qname: str = "Q") -> LaurentPoly:
    q = LaurentPoly.var(table, qname)
    return 1 + 6 * q * q


def conformal_weight(table: VarTable, c0name: str, qname: str = "Q") -> LaurentPoly:
    c0 = LaurentPoly.var(table, c0name)
    return c0 * (LaurentPoly.var(table, qname) - c0)


def _cvar(table: VarTable, cnames: Sequence[str], j: int) -> LaurentPoly:
    """c_j as a polynomial; indices outside 1..len(cnames) give zero."""
    if 1 <= j <= len(cnames):
        return LaurentPoly.var(table, cnames[j - 1])
    return LaurentPoly.zero(table)


def eigenvalue(table: VarTable, n: int, cnames: Sequence[str],
               c0name: str = "c0", qname: str = "Q",
               convention: str = GENERAL) -> LaurentPoly:
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
    q = LaurentPoly.var(table, qname)
    c0 = LaurentPoly.var(table, c0name)
    out = ((n + 1) * q - kappa * c0) * _cvar(table, cnames, n)
    for a in range(1, n):
        out = out - _cvar(table, cnames, a) * _cvar(table, cnames, n - a)
    return out


def quadratic_scalars(table: VarTable, r: int, cnames: Sequence[str],
                      lam_name: str) -> dict[int, LaurentPoly]:
    """Annihilating-window scalars of the odd family.

    Modes ``r`` to ``2r-2`` carry the pure quadratic ``-sum c_a c_b`` over
    the surviving parameters ``c_1..c_{r-1}``; mode ``2r-1`` carries the free
    top eigenvalue; everything above vanishes (and is omitted).
    """
    if len(cnames) != r - 1:
        raise ValueError("odd family has r-1 polynomial parameters")
    out: dict[int, LaurentPoly] = {}
    for m in range(r, 2 * r - 1):
        acc = LaurentPoly.zero(table)
        for a in range(1, m):
            acc = acc - _cvar(table, cnames, a) * _cvar(table, cnames, m - a)
        out[m] = acc
    out[2 * r - 1] = LaurentPoly.var(table, lam_name)
    return out


# ----- polynomial-family frame ------------------------------------------------


def deformation_fields(table: VarTable, r: int,
                       cnames: Sequence[str]) -> list[dict[str, LaurentPoly]]:
    """Vector fields of parameter deformations, indices ``0`` to ``r-1``.

    Field ``i`` sends ``c_k`` to ``k * c_{i+k}``; entries beyond the top
    index vanish.  Field ``0`` is the weight (Euler) field.
    """
    if len(cnames) != r:
        raise ValueError("need exactly r parameter names")
    fields = []
    for i in range(r):
        comp: dict[str, LaurentPoly] = {}
        for k in range(1, r - i + 1):
            comp[cnames[k - 1]] = k * _cvar(table, cnames, i + k)
        fields.append(comp)
    return fields


def apply_field(field: dict[str, LaurentPoly], poly: LaurentPoly) -> LaurentPoly:
    out = LaurentPoly.zero(poly.table)
    for name, coeff in field.items():
        out = out + coeff * poly.derivative(name)
    return out


def _field_matrix(table: VarTable, fields: list[dict[str, LaurentPoly]],
                  cols: Sequence[str]) -> list[list[LaurentPoly]]:
    zero = LaurentPoly.zero(table)
    return [[field.get(col, zero) for col in cols] for field in fields]


def frame_matrix(table: VarTable, r: int, cnames: Sequence[str]) -> list[list[LaurentPoly]]:
    """Matrix of the deformation fields against the parameter derivatives."""
    return _field_matrix(table, deformation_fields(table, r, cnames), cnames)


def expected_frame_det(table: VarTable, r: int, cnames: Sequence[str]) -> LaurentPoly:
    sign = -1 if (r * (r - 1) // 2) % 2 else 1
    top = LaurentPoly.var(table, cnames[r - 1], r)
    return top * Fraction(sign * factorial(r))


class DualOperator:
    """Expansion-variable orders of the operator dual to one frame direction.

    ``orders[i]`` maps a mode index ``n`` to the coefficient of ``D_n`` at
    order ``i`` of the expansion variable; coefficients never contain the
    expansion variable itself.  ``D_n`` stands for mode ``n`` minus its
    scalar from :meth:`Family.mode_scalars`.  ``row`` is the unsplit L_*
    row, the top row of the inverted frame.
    """

    __slots__ = ("r", "var", "orders", "row")

    def __init__(self, r: int, var: str, orders: list[dict[int, LaurentPoly]],
                 row: list[LaurentPoly]) -> None:
        self.r, self.var, self.orders, self.row = r, var, orders, row


def _dual_from_frame(table: VarTable, r: int, matrix: list[list[LaurentPoly]],
                     var: str) -> DualOperator:
    """Top row of the inverted frame, cleared by ``var ** r`` and split into
    powers of ``var``: ``sum_i var^i sum_n w[i][n] D_n`` with every
    ``w[i][n]`` free of ``var`` and every power inside ``0..r-1``."""
    row = inverse_exact(matrix)[r - 1]
    clear = LaurentPoly.var(table, var, r)
    orders: list[dict[int, LaurentPoly]] = [{} for _ in range(r)]
    for n in range(r):
        for power, part in (clear * row[n]).split_by_var(var).items():
            if power < 0 or power > r - 1:
                raise DegreeOverflow(
                    f"dual coefficient power {power} outside 0..{r - 1}")
            if not part.is_zero():
                orders[power][n] = part
    return DualOperator(r=r, var=var, orders=orders, row=row)


def dual_operator(table: VarTable, r: int, cnames: Sequence[str]) -> DualOperator:
    """Operator combination dual to deforming the top polynomial parameter."""
    return _dual_from_frame(table, r, frame_matrix(table, r, cnames), cnames[r - 1])


# ----- odd-family frame ---------------------------------------------------------


def odd_fields(table: VarTable, r: int, cnames: Sequence[str],
               lam_name: str) -> list[dict[str, LaurentPoly]]:
    """Deformation fields of the odd family, indices ``0`` to ``r-1``.

    Field ``0`` is the weight field.  For ``n >= 1`` the components are the
    unique solution of the requirement that applying the field to every
    annihilating-window scalar ``S_m`` (modes ``r`` to ``2r-2``) returns
    ``(m - n) S_{m+n}``, scalars above mode ``2r-1`` being zero.  The system
    is triangular with diagonal ``-2 c_{r-1}``, so the solution is exact.
    """
    if len(cnames) != r - 1:
        raise ValueError("odd family has r-1 polynomial parameters")
    scal = quadratic_scalars(table, r, cnames, lam_name)

    def s_at(m: int) -> LaurentPoly:
        return scal.get(m, LaurentPoly.zero(table))

    fields: list[dict[str, LaurentPoly]] = []
    euler: dict[str, LaurentPoly] = {
        cnames[k - 1]: k * _cvar(table, cnames, k) for k in range(1, r)
    }
    euler[lam_name] = (2 * r - 1) * LaurentPoly.var(table, lam_name)
    fields.append(euler)
    diag = -2 * _cvar(table, cnames, r - 1)
    for n in range(1, r):
        h: dict[int, LaurentPoly] = {}
        for j in range(r - 1, 0, -1):
            rhs = (r - 1 + j - n) * s_at(r - 1 + j + n)
            acc = rhs
            for k in range(j + 1, r):
                idx = r - 1 + j - k
                if 1 <= idx <= r - 1:
                    acc = acc + 2 * _cvar(table, cnames, idx) * h[k]
            h[j] = acc.exact_div(diag)
        comp = {cnames[k - 1]: h[k] for k in range(1, r) if not h[k].is_zero()}
        fields.append(comp)
    return fields


def odd_frame_matrix(table: VarTable, r: int, cnames: Sequence[str],
                     lam_name: str) -> list[list[LaurentPoly]]:
    """Odd-family fields against the derivatives of ``c_1..c_{r-1}, Lam``."""
    return _field_matrix(table, odd_fields(table, r, cnames, lam_name),
                         (*cnames, lam_name))


def expected_odd_frame_det(table: VarTable, r: int, cnames: Sequence[str],
                           lam_name: str) -> LaurentPoly:
    kappa = Fraction(2 * r - 1)
    for n in range(1, r):
        kappa *= Fraction(-(2 * r - 2 * n - 1), 2)
    if (r * (r - 1) // 2) % 2:
        kappa = -kappa
    lam = LaurentPoly.var(table, lam_name, r)
    bottom = LaurentPoly.var(table, cnames[r - 2], -(r - 1)) if r >= 2 \
        else LaurentPoly.const(table, 1)
    return lam * bottom * kappa


def odd_dual_operator(table: VarTable, r: int, cnames: Sequence[str],
                      lam_name: str) -> DualOperator:
    """Operator combination dual to deforming the top odd eigenvalue."""
    return _dual_from_frame(table, r, odd_frame_matrix(table, r, cnames, lam_name),
                            lam_name)


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
    def step(self) -> int:
        """Weight of the expansion variable."""
        return 2 * self.r - 1 if self.kind == HALF else self.r

    @property
    def base_c0(self) -> str:
        """Zero-mode parameter of the rank ``r-1`` module under the series."""
        return "c0p" if self.kind == INTEGER else "c0"

    def frame_table(self) -> VarTable:
        """``Q``, ``c0``, the lower parameters and the expansion variable."""
        return VarTable(("Q", "c0") + self.cnames + (self.var,),
                        (0, 0) + tuple(range(1, self.r)) + (self.step,))

    def mode_scalars(self, table: VarTable, c0name: str = "c0") -> dict[int, LaurentPoly]:
        """Fixed scalar of each mode that has one: at integer rank the
        conformal weight and the eigenvalues of modes ``1..2r``, at half rank
        the annihilating window ``r..2r-1`` (the lower modes come from the
        scalar completion)."""
        if self.kind == HALF:
            return quadratic_scalars(table, self.r, self.cnames, self.var)
        cnames = self.cnames + (self.var,)
        return {n: eigenvalue(table, n, cnames, c0name) if n else
                conformal_weight(table, c0name) for n in range(2 * self.r + 1)}

    def fields(self, table: VarTable) -> list[dict[str, LaurentPoly]]:
        if self.kind == HALF:
            return odd_fields(table, self.r, self.cnames, self.var)
        return deformation_fields(table, self.r, self.cnames + (self.var,))

    def frame_matrix(self, table: VarTable) -> list[list[LaurentPoly]]:
        return _field_matrix(table, self.fields(table), self.cnames + (self.var,))

    def expected_det(self, table: VarTable) -> LaurentPoly:
        if self.kind == HALF:
            return expected_odd_frame_det(table, self.r, self.cnames, self.var)
        return expected_frame_det(table, self.r, self.cnames + (self.var,))

    def dual_operator(self, table: VarTable) -> DualOperator:
        if self.kind == HALF:
            return odd_dual_operator(table, self.r, self.cnames, self.var)
        return dual_operator(table, self.r, self.cnames + (self.var,))
