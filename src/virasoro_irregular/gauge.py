"""Scalar obstructions of the lower modes and their gauge potential.

A canonical series satisfies the annihilating window and the top recursion
exactly, but each mode below the window misses its completed deformation
operator by a scalar multiple of the series itself.  This module computes
those obstruction scalars, checks that they close under the deformation
bracket, integrates them into a potential on the lower parameters, and
verifies that correcting the prefactor by that potential kills every lower
residual.  The odd family needs one extra step: its deformation fields come
without scalar parts, so a bounded quasi-homogeneous solve first produces
the scalar completions in the gauge singled out by the top frame row.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .frames import (Family, apply_field, conformal_weight, eigen_window,
                     frame_matrix, lower_scalars, quadratic_scalars)
from .linalg import InconsistentSystem, inverse_exact, rref_solve_fraction
from .ring import LaurentPoly, TruncatedSeries, VarTable
from .solver import (HALF, INTEGER, IrregularSeries, ResidualNonZero,
                     VerificationReport, scheduled_unknown)
from .virasoro import ModuleContext, ModuleVector, apply_mode


class GaugeError(Exception):
    """Base class for failures of the lower-mode analysis."""


class OrderTooSmall(GaugeError, ValueError):
    """The series is truncated too early for the lower-mode analysis."""


class ProportionalityFailure(GaugeError):
    """A lower-mode residual is not a scalar multiple of the series."""


class NotClosed(GaugeError):
    """The assembled one-form fails a cross-derivative (closedness) check."""


class ExpansionVariableLeak(GaugeError):
    """A potential component retains the expansion variable."""


class WeightZeroObstruction(GaugeError):
    """A constant term sits in the expansion direction of the one-form."""


class Infeasible(GaugeError):
    """No scalar completion exists within the requested denominator bound."""


# ----- bucketed vector series -------------------------------------------------


class VectorSeries:
    """Family of module vectors graded by the expansion variable.

    ``parts[m]`` is the order-``m`` coefficient; orders below the stored
    ones are exactly zero and orders above ``hi`` are unknown.  Coefficients
    never contain the expansion variable; multiplication scatters any powers
    produced along the way back into the grading.
    """

    __slots__ = ("ctx", "var", "parts", "hi")

    def __init__(self, ctx: ModuleContext, var: str,
                 parts: dict[int, ModuleVector], hi: int):
        self.ctx = ctx
        self.var = var
        self.parts = {m: v for m, v in parts.items()
                      if m <= hi and not v.is_zero()}
        self.hi = hi

    @property
    def lo(self) -> int:
        return min(self.parts) if self.parts else 0

    def window(self) -> tuple[int, int]:
        return (self.lo, self.hi)

    def entry(self, m: int) -> ModuleVector:
        return self.parts.get(m, ModuleVector(self.ctx))

    def is_zero_on_window(self) -> bool:
        return not self.parts

    def __sub__(self, other: "VectorSeries") -> "VectorSeries":
        out = dict(self.parts)
        for m, v in other.parts.items():
            out[m] = out[m] - v if m in out else -v
        return VectorSeries(self.ctx, self.var, out, min(self.hi, other.hi))

    def apply_mode(self, n: int) -> "VectorSeries":
        return VectorSeries(self.ctx, self.var,
                            {m: apply_mode(v, n) for m, v in self.parts.items()},
                            self.hi)

    def _scatter(self, out: dict[int, ModuleVector], base: int,
                 vec: ModuleVector) -> None:
        for lam, coeff in vec.parts.items():
            for d, part in coeff.split_by_var(self.var).items():
                piece = ModuleVector(self.ctx, {lam: part})
                out[base + d] = out[base + d] + piece if base + d in out else piece

    def mul_poly(self, poly: LaurentPoly) -> "VectorSeries":
        """Multiply by an exact Laurent scalar, regrading its variable powers."""
        pieces = poly.split_by_var(self.var)
        if not pieces:
            return VectorSeries(self.ctx, self.var, {}, self.hi)
        out: dict[int, ModuleVector] = {}
        for d, part in pieces.items():
            for m, v in self.parts.items():
                scaled = v.scale(part)
                out[m + d] = out[m + d] + scaled if m + d in out else scaled
        return VectorSeries(self.ctx, self.var, out, self.hi + min(pieces))

    def mul_series(self, s: TruncatedSeries) -> "VectorSeries":
        if s.hi is None:
            poly = LaurentPoly.zero(s.table)
            for m in range(s.lo, s.known_hi + 1):
                poly = poly + s.coeff(m) * LaurentPoly.var(s.table, self.var, m)
            return self.mul_poly(poly)
        out: dict[int, ModuleVector] = {}
        for e in range(s.lo, s.hi + 1):
            part = s.coeff(e)
            if part.is_zero():
                continue
            for m, v in self.parts.items():
                scaled = v.scale(part)
                out[m + e] = out[m + e] + scaled if m + e in out else scaled
        return VectorSeries(self.ctx, self.var, out,
                            min(self.hi + s.lo, s.hi + self.lo))

    def field_derivative(self, field: dict[str, LaurentPoly]) -> "VectorSeries":
        """Apply a deformation field across coefficients and the grading."""
        out: dict[int, ModuleVector] = {}
        hi = self.hi
        for m, v in self.parts.items():
            self._scatter(out, m, v.map_coeffs(lambda p: apply_field(field, p)))
        comp = field.get(self.var)
        if comp is not None and not comp.is_zero():
            shifts = comp.split_by_var(self.var)
            hi = min(hi, self.hi - 1 + min(shifts))
            for m, v in self.parts.items():
                if m:
                    self._scatter(out, m - 1, v.scale(comp * m))
        return VectorSeries(self.ctx, self.var, out, hi)

    def cyclic(self) -> TruncatedSeries:
        """Constant-term series across the grading."""
        lo = self.lo
        coeffs = [self.entry(m).constant_term() for m in range(lo, self.hi + 1)]
        return TruncatedSeries(self.ctx.table, self.var, lo, coeffs, self.hi)


# ----- obstruction scalars ----------------------------------------------------


class ObstructionSet:
    """Scalar obstructions of the modes below the annihilating window.

    ``a[i]`` is the ratio of the mode-``i`` residual to the series, a
    truncated series whose principal part never drops below ``-(r-1)``; the
    residual vectors themselves are kept for audit.  Modes at or above the
    window have no entry because their residuals vanish identically.
    """

    __slots__ = ("kind", "r", "table", "var", "cnames", "a", "residuals", "theta",
                 "series", "completion")

    def __init__(self, kind: str, r: int, table: VarTable, var: str,
                 cnames: tuple[str, ...], a: tuple[TruncatedSeries, ...],
                 residuals: tuple[VectorSeries, ...] | None = None,
                 theta: TruncatedSeries | None = None,
                 series: IrregularSeries | None = None,
                 completion: ScalarCompletion | None = None) -> None:
        self.kind, self.r, self.table, self.var = kind, r, table, var
        self.cnames, self.a, self.residuals, self.theta = cnames, a, residuals, theta
        self.series, self.completion = series, completion


class PotentialDecomposition:
    """Exact and logarithmic parts of the lower-parameter potential.

    The potential splits as ``g0`` plus ``sum_j nu[j] log c_j`` plus an
    undetermined function of the passive parameters; ``nu`` coefficients
    are passive themselves.
    """

    __slots__ = ("g0", "nu", "passives")

    def __init__(self, g0: LaurentPoly, nu: dict[int, LaurentPoly],
                 passives: tuple[str, ...]) -> None:
        self.g0, self.nu, self.passives = g0, nu, passives


class ScalarCompletion:
    """Scalar parts completing the odd-family deformation fields.

    ``sigma[n]`` is quasi-homogeneous of weight ``n``; the top frame row
    annihilates the tuple, which fixes the otherwise free conjugation gauge.
    """

    __slots__ = ("r", "table", "cnames", "var", "sigma", "bound")

    def __init__(self, r: int, table: VarTable, cnames: tuple[str, ...], var: str,
                 sigma: tuple[LaurentPoly, ...], bound: int) -> None:
        self.r, self.table, self.cnames, self.var = r, table, cnames, var
        self.sigma, self.bound = sigma, bound


class _EngineState:
    __slots__ = ("series", "fields", "scalars", "tail", "theta", "prefactor", "beta",
                 "base_scalars", "lift_cache")

    def __init__(self, series: IrregularSeries, fields: list[dict[str, LaurentPoly]],
                 scalars: dict[int, LaurentPoly], tail: VectorSeries,
                 theta: TruncatedSeries, prefactor: LaurentPoly,
                 beta: list[list[LaurentPoly]], base_scalars: list[LaurentPoly],
                 lift_cache: dict) -> None:
        self.series, self.fields, self.scalars, self.tail = series, fields, scalars, tail
        self.theta, self.prefactor, self.beta = theta, prefactor, beta
        self.base_scalars, self.lift_cache = base_scalars, lift_cache


def _clean_order(series: IrregularSeries) -> int:
    """Largest order whose vectors are free of still-symbolic unknowns."""
    known = {"Q", "c0", "c0p", series.var} | set(series.cnames)
    symbols = [n for n in series.table.names if n not in known]
    top = series.order
    for k, vec in enumerate(series.vectors):
        for _, coeff in vec.items():
            if any(coeff.uses_var(name) for name in symbols):
                return k - 1
    return top


def _engine_state(series: IrregularSeries,
                  completion: ScalarCompletion | None) -> _EngineState:
    if series.kind not in (INTEGER, HALF):
        raise ValueError(f"no lower-mode analysis for kind {series.kind!r}")
    if any(not name.startswith("ce") for name in series.pending):
        # nu is the last of the exponent and singularity unknowns pinned
        needed = next(k for k in range(series.r)
                      if scheduled_unknown(series.r, k) == "nu")
        raise OrderTooSmall("series order too small: exponent or singularity "
                            f"data still symbolic; --order {needed} pins it")
    table, var, cnames, r = series.table, series.var, series.cnames, series.r
    family = Family(series.kind, r)
    fields = family.fields(table)
    if series.kind == INTEGER:
        if completion is not None:
            raise ValueError("scalar completion applies to the odd family only")
        scalars = {0: conformal_weight(table, "c0")}
        scalars.update(lower_scalars(table, r, cnames))
        scalars.update(eigen_window(table, r, cnames + (var,)))
    else:
        if completion is None:
            raise ValueError("the odd family needs a scalar completion")
        if completion.r != r:
            raise ValueError("scalar completion rank does not match the series")
        scalars = {i: completion.sigma[i].migrate(table) for i in range(r)}
        scalars.update(quadratic_scalars(table, r, cnames, var))
    order = _clean_order(series)
    if order < 1:
        # each further series order pins one more tail constant, so it
        # makes one more order clean
        raise OrderTooSmall("series order too small for a lower-mode window: "
                            f"--order {series.order + 1 - order} makes order 1 clean")
    tail = VectorSeries(series.ctx, var,
                        {k: series.vectors[k] for k in range(order + 1)}, order)
    prefactor = LaurentPoly.zero(table)
    for j, gj in series.g.items():
        prefactor = prefactor + gj * LaurentPoly.var(table, var, -j)

    # The series lives over the completed module of one rank lower: the
    # fields also differentiate the cyclic vector, whose derivatives along
    # the base frame are fixed by the lower deformation equations one rank
    # down.  Decompose every field over that frame once.
    rho = r - 1
    inv_base = inverse_exact(frame_matrix(table, rho, cnames))
    zero = LaurentPoly.zero(table)
    beta = []
    for field in fields:
        h = [field.get(name, zero) for name in cnames]
        beta.append([sum((h[k] * inv_base[k][j] for k in range(rho)),
                         start=zero) for j in range(rho)])
    base_scalars = [conformal_weight(table, family.base_c0)]
    lower = lower_scalars(table, rho, cnames, c0name=family.base_c0)
    base_scalars.extend(lower[j] for j in range(1, rho))
    return _EngineState(series=series, fields=fields, scalars=scalars,
                        tail=tail, theta=tail.cyclic(), prefactor=prefactor,
                        beta=beta, base_scalars=base_scalars, lift_cache={})


def _cyclic_lift(state: _EngineState, lam: tuple[int, ...], j: int) -> ModuleVector:
    """Derivative of a basis vector along base frame field ``j`` through the
    cyclic vector: the word over ``(L_j - s'_j) u``."""
    cached = state.lift_cache.get((lam, j))
    if cached is None:
        ctx = state.series.ctx
        rho = ctx.rho
        vec = ctx.basis((rho - j,))
        for a in reversed(lam):
            vec = apply_mode(vec, rho - a)
        cached = vec - ctx.basis(lam, state.base_scalars[j])
        state.lift_cache[(lam, j)] = cached
    return cached


def _lift_term(state: _EngineState, i: int, tail: VectorSeries) -> VectorSeries:
    """Field ``i`` applied to the cyclic vector inside every tail entry."""
    var = state.series.var
    out: dict[int, ModuleVector] = {}
    for m, vec in tail.parts.items():
        for lam, coeff in vec.parts.items():
            for j, b in enumerate(state.beta[i]):
                if b.is_zero():
                    continue
                lift = state.lift_cache.get((lam, j))
                if lift is None:
                    lift = _cyclic_lift(state, lam, j)
                if lift.is_zero():
                    continue
                for d, piece in (coeff * b).split_by_var(var).items():
                    moved = lift.scale(piece)
                    key = m + d
                    out[key] = out[key] + moved if key in out else moved
    return VectorSeries(state.series.ctx, var, out, tail.hi)


def _residual(state: _EngineState, n: int) -> VectorSeries:
    tail = state.tail
    out = tail.apply_mode(n)
    scalar = state.scalars.get(n)
    if scalar is not None and not scalar.is_zero():
        out = out - tail.mul_poly(scalar)
    if n < state.series.r:
        field = state.fields[n]
        table, var = state.series.table, state.series.var
        log_part = field.get(var)
        deriv = apply_field(field, state.prefactor)
        if log_part is not None and state.series.nu is not None:
            deriv = deriv + state.series.nu * log_part * \
                LaurentPoly.var(table, var, -1)
        if not deriv.is_zero():
            out = out - tail.mul_poly(deriv)
        out = out - tail.field_derivative(field) - _lift_term(state, n, tail)
    return out


def mode_residual(series: IrregularSeries, n: int,
                  completion: ScalarCompletion | None = None) -> VectorSeries:
    """Residual of mode ``n`` against its completed deformation operator.

    Below the annihilating window the operator combines the mode scalar,
    the deformation field (acting on coefficients and prefactor alike) and
    the grading; at the window and above only the scalar remains, so the
    residual restates the canonical relations and must vanish.
    """
    if n < 0:
        raise ValueError("modes are indexed by nonnegative integers")
    return _residual(_engine_state(series, completion), n)


def obstructions(series: IrregularSeries,
                 completion: ScalarCompletion | None = None) -> ObstructionSet:
    """Obstruction scalars of the modes below the annihilating window.

    Each residual must be parallel to the series itself; the returned set
    holds the scalar ratios together with the audited residual vectors.
    """
    state = _engine_state(series, completion)
    residuals = tuple(_residual(state, i) for i in range(series.r))
    ratios = []
    for i, res in enumerate(residuals):
        a_i = res.cyclic().divide(state.theta)
        diff = res - state.tail.mul_series(a_i)
        if not diff.is_zero_on_window():
            raise ProportionalityFailure(
                f"mode {i} residual is not parallel to the series on "
                f"window {diff.window()}")
        ratios.append(a_i)
    return ObstructionSet(kind=series.kind, r=series.r, table=series.table,
                          var=series.var, cnames=series.cnames,
                          a=tuple(ratios), residuals=residuals,
                          theta=state.theta, series=series,
                          completion=completion)


# ----- integrability and the potential ----------------------------------------


def window_str(s: TruncatedSeries) -> str:
    """Human-readable span of the orders a check actually covered."""
    if s.hi is None:
        return "all orders"
    return f"orders <= {s.hi}"


def derive_series(field: dict[str, LaurentPoly],
                  s: TruncatedSeries) -> TruncatedSeries:
    """Deformation-field derivative of a scalar series in the grading."""
    var, table = s.var, s.table
    acc: dict[int, LaurentPoly] = {}

    def bump(order: int, part: LaurentPoly) -> None:
        acc[order] = acc[order] + part if order in acc else part

    hi = s.hi
    comp = field.get(var)
    top = s.known_hi
    for m in range(s.lo, top + 1):
        f = s.coeff(m)
        if f.is_zero():
            continue
        for d, part in apply_field(field, f).split_by_var(var).items():
            bump(m + d, part)
        if comp is not None and m and not comp.is_zero():
            for d, part in (comp * f * m).split_by_var(var).items():
                bump(m - 1 + d, part)
    if hi is not None and comp is not None and not comp.is_zero():
        hi = min(hi, hi - 1 + min(comp.split_by_var(var)))
    orders = [m for m in acc if hi is None or m <= hi]
    lo = min(orders) if orders else (s.lo if hi is None else hi + 1)
    top = max(orders) if orders else lo - 1
    if hi is not None:
        top = hi
    zero = LaurentPoly.zero(table)
    return TruncatedSeries(table, var, lo,
                           [acc.get(m, zero) for m in range(lo, top + 1)], hi)


def frobenius_verify(obs: ObstructionSet) -> VerificationReport:
    """Check that the obstruction scalars close under the deformation bracket.

    For every pair of lower modes the bracket of the fields applied to the
    scalars must reproduce the scalar of the summed mode, which vanishes at
    or above the window; failures land in the report rather than raising.
    """
    fields = Family(obs.kind, obs.r).fields(obs.table)
    report = VerificationReport()
    exact_zero = TruncatedSeries.zero(obs.table, obs.var)
    for i in range(obs.r):
        for j in range(i + 1, obs.r):
            target = obs.a[i + j] if i + j < obs.r else exact_zero
            lhs = derive_series(fields[i], obs.a[j]) \
                - derive_series(fields[j], obs.a[i]) \
                - (j - i) * target
            ok = lhs.is_zero_on_window()
            report.add(f"bracket({i},{j}) closes on a[{i + j}]",
                       window_str(lhs), ok,
                       "" if ok else "nonzero bracket defect")
    return report


def lstar_certificate(obs: ObstructionSet) -> TruncatedSeries:
    """Top-frame-row combination of the obstructions; zero when the
    potential is free of the expansion variable."""
    inv = inverse_exact(Family(obs.kind, obs.r).frame_matrix(obs.table))
    acc = TruncatedSeries.zero(obs.table, obs.var)
    for i in range(obs.r):
        acc = acc + TruncatedSeries.from_poly(inv[obs.r - 1][i], obs.var) * obs.a[i]
    return acc


def _split_active(poly: LaurentPoly, names: Sequence[str]) \
        -> dict[tuple[int, ...], LaurentPoly]:
    out = {(): poly}
    for name in names:
        nxt: dict[tuple[int, ...], LaurentPoly] = {}
        for expo, part in out.items():
            for d, piece in part.split_by_var(name).items():
                nxt[expo + (d,)] = piece
        out = nxt
    return out


def integrate_potential(obs: ObstructionSet,
                        frame: Sequence[Sequence[LaurentPoly]] | None = None,
                        order: Sequence[int] | None = None) -> PotentialDecomposition:
    """Integrate the obstructions into a potential on the lower parameters.

    Inverting the frame turns the obstruction tuple into coordinate
    components of a one-form; these must be free of the expansion variable,
    with the expansion-direction component vanishing outright.  The closed
    form then splits monomial-wise into an exact part and logarithmic terms
    on the remaining coordinates.  Processing the frame rows in a different
    ``order`` permutes the linear system without changing the result.
    """
    rows = frame if frame is not None else Family(obs.kind, obs.r).frame_matrix(obs.table)
    seq = list(order) if order is not None else list(range(obs.r))
    if sorted(seq) != list(range(obs.r)):
        raise ValueError("order must permute the frame rows")
    inv = inverse_exact([rows[p] for p in seq])
    comps = []
    for k in range(obs.r):
        acc = TruncatedSeries.zero(obs.table, obs.var)
        for i in range(obs.r):
            acc = acc + TruncatedSeries.from_poly(inv[k][i], obs.var) * obs.a[seq[i]]
        comps.append(acc)
    top = comps[obs.r - 1]
    # The expansion direction is read at order -1 and the parameter
    # components at order 0.  One more series order widens every window by
    # one, so the largest shortfall is the number of orders missing.
    short_top = -1 - top.hi if top.hi is not None else 0
    short_rest = max((-c.hi for c in comps[:-1] if c.hi is not None), default=0)
    shortfall = max(short_top, short_rest)
    if shortfall > 0:
        what = ("read the expansion direction" if short_top == shortfall
                else "isolate the parameter components")
        raise OrderTooSmall(f"window too narrow to {what}: the smallest order "
                            f"that works is --order {obs.series.order + shortfall}")
    bad = [m for m in range(top.lo, top.known_hi + 1)
           if m != -1 and not top.coeff(m).is_zero()]
    if bad:
        raise ExpansionVariableLeak(
            f"potential depends on the expansion variable at orders {bad}")
    if not top.coeff(-1).is_zero():
        raise WeightZeroObstruction(
            "constant term in the expansion direction cannot be integrated")
    components: list[LaurentPoly] = []
    for j, name in enumerate(obs.cnames):
        comp = comps[j]
        bad = [m for m in range(comp.lo, comp.known_hi + 1)
               if m != 0 and not comp.coeff(m).is_zero()]
        if bad:
            raise ExpansionVariableLeak(
                f"component for {name} retains the expansion variable "
                f"at orders {bad}")
        components.append(LaurentPoly.var(obs.table, name) * comp.coeff(0))
    split = [_split_active(a_j, obs.cnames) for a_j in components]
    exponents = sorted({e for m in split for e in m})
    zero = LaurentPoly.zero(obs.table)
    g0 = LaurentPoly.zero(obs.table)
    nu: dict[int, LaurentPoly] = {}
    for expo in exponents:
        coeffs = [m.get(expo, zero) for m in split]
        for i in range(len(obs.cnames)):
            for j in range(i + 1, len(obs.cnames)):
                if coeffs[j] * expo[i] != coeffs[i] * expo[j]:
                    raise NotClosed(
                        f"cross derivatives differ on monomial {expo} "
                        f"(coordinates {obs.cnames[i]}, {obs.cnames[j]})")
        if all(e == 0 for e in expo):
            for j, c in enumerate(coeffs):
                if not c.is_zero():
                    nu[j + 1] = c
            continue
        pick = next(j for j, e in enumerate(expo) if e != 0)
        mono = LaurentPoly.const(obs.table, Fraction(1, expo[pick]))
        for name, e in zip(obs.cnames, expo):
            mono = mono * LaurentPoly.var(obs.table, name, e)
        g0 = g0 + coeffs[pick] * mono
    for j, name in enumerate(obs.cnames):
        rebuilt = LaurentPoly.var(obs.table, name) * g0.derivative(name) \
            + nu.get(j + 1, zero)
        if rebuilt != components[j]:
            raise NotClosed(f"reconstructed derivative along {name} "
                            "does not match the one-form")
    passives = ("c0p", "c0") if obs.kind == INTEGER else ("c0",)
    return PotentialDecomposition(g0=g0, nu=nu, passives=passives)


def apply_gauge_and_verify(series: IrregularSeries,
                           decomp: PotentialDecomposition,
                           completion: ScalarCompletion | None = None,
                           obs: ObstructionSet | None = None) -> VerificationReport:
    """Verify that the potential correction removes every lower residual.

    Scaling the series by the exponential of the potential shifts each
    obstruction scalar by the field derivative of the potential, so the
    gauged residuals vanish exactly when those two agree order by order.
    Raises when any residual survives; the report carries the windows.
    """
    if obs is None:
        obs = obstructions(series, completion)
    fields = Family(obs.kind, obs.r).fields(obs.table)
    table, var = obs.table, obs.var
    g0 = decomp.g0.migrate(table)
    nu = {j: nu_j.migrate(table) for j, nu_j in decomp.nu.items()}
    report = VerificationReport()
    failed = []
    for i in range(obs.r):
        deriv = apply_field(fields[i], g0)
        for j, nu_j in nu.items():
            comp = fields[i].get(obs.cnames[j - 1])
            if comp is not None:
                deriv = deriv + nu_j * comp * \
                    LaurentPoly.var(table, obs.cnames[j - 1], -1)
        resid = obs.a[i] - TruncatedSeries.from_poly(deriv, var)
        ok = resid.is_zero_on_window()
        report.add(f"gauged mode {i} residual", window_str(resid), ok,
                   "" if ok else "residual survives the gauge")
        if not ok:
            failed.append(i)
    if failed:
        raise ResidualNonZero(f"gauged residuals survive for modes {failed}")
    return report


# ----- scalar completion of the odd family -------------------------------------


def _weighted_monomials(table: VarTable, cnames: Sequence[str], var: str,
                        weight: int, bound: int) -> list[LaurentPoly]:
    """Monomials of one quasi-homogeneous weight, localized at the last
    polynomial parameter and the top eigenvalue down to ``-bound``."""
    r = len(cnames) + 1
    floor = -bound * (r - 1)

    def c_parts(k: int, remaining: int) -> list[tuple[int, ...]]:
        if k == r - 1:
            if remaining % (r - 1) == 0 and remaining // (r - 1) >= -bound:
                return [(remaining // (r - 1),)]
            return []
        out = []
        for e in range((remaining - floor) // k + 1):
            out.extend((e,) + rest for rest in c_parts(k + 1, remaining - k * e))
        return out

    monos = []
    top_weight = 2 * r - 1
    for e_top in range(-bound, (weight - floor) // top_weight + 1):
        rest = weight - top_weight * e_top
        if rest < floor:
            continue
        for expo in (c_parts(1, rest) if r > 1 else ([()] if rest == 0 else [])):
            mono = LaurentPoly.var(table, var, e_top) if e_top else \
                LaurentPoly.const(table, 1)
            for name, e in zip(cnames, expo):
                if e:
                    mono = mono * LaurentPoly.var(table, name, e)
            monos.append(mono)
    return monos


def scalar_completion_half(r: int, bound: int = 1) -> ScalarCompletion:
    """Solve for the scalar parts of the odd-family deformation operators.

    The unknowns are quasi-homogeneous Laurent combinations (weight ``n``
    for the mode-``n`` scalar, exponents of the last polynomial parameter
    and the top eigenvalue bounded below by ``-bound``, coefficients affine
    in the passive parameters).  The bracket relations with the fixed
    scalars of the annihilating window plus the top-frame-row constraint
    form a linear system; free coordinates are pinned to zero, making the
    minimal-support answer deterministic.  Raises ``Infeasible`` when the
    system has no solution within the bound.
    """
    if r < 2:
        raise ValueError("the odd family starts at rank descriptor 2")
    if bound < 1:
        raise ValueError("the denominator bound must be positive")
    family = Family(HALF, r)
    cnames, var, table = family.cnames, family.var, family.frame_table()
    fields = family.fields(table)
    fixed = quadratic_scalars(table, r, cnames, var)
    slots = [LaurentPoly.const(table, 1), LaurentPoly.var(table, "Q"),
             LaurentPoly.var(table, "c0")]
    basis: list[tuple[int, LaurentPoly]] = []
    for n in range(r):
        for mono in _weighted_monomials(table, cnames, var, n, bound):
            basis.extend((n, slot * mono) for slot in slots)

    equations: list[tuple[list[LaurentPoly], LaurentPoly]] = []
    zero = LaurentPoly.zero(table)
    for i in range(r):
        for j in range(i + 1, r):
            cols = []
            for n, b in basis:
                term = zero
                if n == j:
                    term = term + apply_field(fields[i], b)
                if n == i:
                    term = term - apply_field(fields[j], b)
                if n == i + j:
                    term = term - (j - i) * b
                cols.append(term)
            rhs = (j - i) * fixed.get(i + j, zero) if i + j >= r else zero
            equations.append((cols, rhs))
    inv_row = inverse_exact(family.frame_matrix(table))[r - 1]
    equations.append(([inv_row[n] * b for n, b in basis], zero))

    rows: list[list[Fraction]] = []
    rhs_col: list[Fraction] = []
    for cols, rhs in equations:
        seen: dict[tuple, int] = {}

        def row_for(expo: tuple) -> int:
            if expo not in seen:
                seen[expo] = len(rows)
                rows.append([Fraction(0)] * len(basis))
                rhs_col.append(Fraction(0))
            return seen[expo]

        for u, poly in enumerate(cols):
            for expo, coeff in poly.iter_terms():
                rows[row_for(expo)][u] += coeff
        for expo, coeff in rhs.iter_terms():
            rhs_col[row_for(expo)] += coeff

    try:
        solution, _ = rref_solve_fraction(rows, rhs_col)
    except InconsistentSystem as exc:
        raise Infeasible(f"no scalar completion within bound {bound}") from exc
    sigma = [zero for _ in range(r)]
    for x, (n, b) in zip(solution, basis):
        if x:
            sigma[n] = sigma[n] + b * x
    completion = ScalarCompletion(r=r, table=table, cnames=cnames, var=var,
                                  sigma=tuple(sigma), bound=bound)
    report = completion_residuals(completion)
    if not report.all_ok:
        raise Infeasible(f"completion candidate fails re-verification "
                         f"within bound {bound}")
    return completion


def completion_residuals(completion: ScalarCompletion) -> VerificationReport:
    """Recompute the bracket and gauge identities of a scalar completion.

    These are polynomial identities, so every line demands literal zero:
    bracket relations against both the unknown and the fixed window scalars,
    the top-frame-row constraint, and the weight grading of each scalar.
    """
    r, table, cnames, var = (completion.r, completion.table,
                             completion.cnames, completion.var)
    family = Family(HALF, r)
    fields = family.fields(table)
    fixed = quadratic_scalars(table, r, cnames, var)
    zero = LaurentPoly.zero(table)

    def scalar(n: int) -> LaurentPoly:
        if n < r:
            return completion.sigma[n]
        return fixed.get(n, zero)

    report = VerificationReport()
    for i in range(r):
        for j in range(i + 1, r):
            lhs = apply_field(fields[i], scalar(j)) \
                - apply_field(fields[j], scalar(i)) - (j - i) * scalar(i + j)
            report.add(f"bracket({i},{j}) closes on scalar {i + j}",
                       "exact", lhs.is_zero(),
                       "" if lhs.is_zero() else "nonzero bracket defect")
    inv_row = inverse_exact(family.frame_matrix(table))[r - 1]
    gauge = zero
    for n in range(r):
        gauge = gauge + inv_row[n] * completion.sigma[n]
    report.add("top frame row annihilates the scalars", "exact",
               gauge.is_zero(), "" if gauge.is_zero() else "gauge defect")
    for n in range(r):
        w = completion.sigma[n].homogeneous_weight()
        ok = completion.sigma[n].is_zero() or w == n
        report.add(f"scalar {n} is quasi-homogeneous of weight {n}", "exact",
                   ok, "" if ok else f"weight {w}")
    return report
