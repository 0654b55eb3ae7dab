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

from .frames import Family, apply_field
from .linalg import InconsistentSystem, inverse_exact, sparse_solve
from .ring import LaurentPoly, TruncatedSeries, VarTable, dot
from .solver import HALF, INTEGER, IrregularSeries, ResidualNonZero, VerificationReport
from .virasoro import ModuleVector, apply_mode, combine


class GaugeError(Exception):
    """Base class for failures of the lower-mode analysis."""


class OrderTooSmall(GaugeError, ValueError):
    """The series is truncated too early for the lower-mode analysis."""


class NotParallel(GaugeError):
    """A lower-mode residual is not a scalar multiple of the series."""


class NotClosed(GaugeError):
    """The assembled one-form fails a cross-derivative (closedness) check."""


class ExpansionVariableLeak(GaugeError):
    """A potential component retains the expansion variable."""


class WeightZeroObstruction(GaugeError):
    """A constant term sits in the expansion direction of the one-form."""


class Infeasible(GaugeError):
    """No scalar completion exists within the requested denominator bound."""


# ----- obstruction scalars ----------------------------------------------------


class ObstructionSet:
    """Scalar obstructions of the modes below the annihilating window.

    ``a[i]`` is the ratio of the mode-``i`` residual to the series, a
    truncated series whose principal part never drops below ``-(r-1)``.
    Modes at or above the window have no entry because their residuals
    vanish identically.  ``order`` is the truncation order of the series.
    """

    __slots__ = ("family", "table", "a", "order")

    def __init__(self, family: Family, table: VarTable, a: tuple[TruncatedSeries, ...],
                 order: int) -> None:
        self.family, self.table, self.a, self.order = family, table, a, order


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
    ``checks`` is the :func:`completion_residuals` report a search ran on it
    (``None`` until one has).
    """

    __slots__ = ("family", "table", "sigma", "bound", "checks")

    def __init__(self, family: Family, table: VarTable, sigma: tuple[LaurentPoly, ...],
                 bound: int) -> None:
        self.family, self.table, self.sigma, self.bound = family, table, sigma, bound
        self.checks = None


class _EngineState:
    __slots__ = ("series", "fields", "scalars", "tail", "theta", "prefactor", "beta",
                 "base_scalars", "lift_cache")

    def __init__(self, series: IrregularSeries, fields: list[dict[str, LaurentPoly]],
                 scalars: dict[int, LaurentPoly], tail: TruncatedSeries,
                 theta: TruncatedSeries, prefactor: LaurentPoly,
                 beta: list[list[LaurentPoly]], base_scalars: list[LaurentPoly],
                 lift_cache: dict) -> None:
        self.series, self.fields, self.scalars, self.tail = series, fields, scalars, tail
        self.theta, self.prefactor, self.beta = theta, prefactor, beta
        self.base_scalars, self.lift_cache = base_scalars, lift_cache


def _clean_order(series: IrregularSeries) -> int:
    """Largest order whose vectors are free of still-symbolic unknowns."""
    known = {"Q", "c0", series.family.base_c0, *series.family.coords}
    symbols = [n for n in series.table.names if n not in known]
    top = series.order
    for k, vec in enumerate(series.vectors):
        for _, coeff in vec.items():
            if any(coeff.uses_var(name) for name in symbols):
                return k - 1
    return top


def _engine_state(series: IrregularSeries,
                  completion: ScalarCompletion | None) -> _EngineState:
    family, table = series.family, series.table
    r, var = family.r, family.var
    if family.kind not in (INTEGER, HALF):
        raise ValueError(f"no lower-mode analysis for kind {family.kind!r}")
    if any(not name.startswith("ce") for name in series.pending):
        # nu is the last of the exponent and singularity unknowns pinned
        raise OrderTooSmall("series order too small: exponent or singularity "
                            f"data still symbolic; --order {r - 1} pins it")
    fields = family.fields(table)
    scalars = family.mode_scalars(table)
    if completion is not None:
        if family.kind == INTEGER:
            raise ValueError("scalar completion applies to the odd family only")
        if completion.family.r != r:
            raise ValueError("scalar completion rank does not match the series")
        scalars.update((i, s.migrate(table)) for i, s in enumerate(completion.sigma))
    elif family.kind == HALF:
        raise ValueError("the odd family needs a scalar completion")
    order = _clean_order(series)
    if order < 1:
        # each further series order pins one more tail constant, so it
        # makes one more order clean
        raise OrderTooSmall("series order too small for a lower-mode window: "
                            f"--order {series.order + 1 - order} makes order 1 clean")
    tail = TruncatedSeries(ModuleVector(series.ctx), var,
                           {k: series.vectors[k] for k in range(order + 1)}, order)
    prefactor = dot(table, [(gj, LaurentPoly.var(table, var, -j))
                            for j, gj in series.g.items()])

    # The series lives over the completed module of one rank lower: the
    # fields also differentiate the cyclic vector, whose derivatives along
    # the base frame are fixed by the lower deformation equations one rank
    # down.  Decompose every field over that frame once.
    rho = r - 1
    base = Family(INTEGER, rho)
    inv_base = inverse_exact(base.frame_matrix(table))
    zero = LaurentPoly.zero(table)
    beta = []
    for field in fields:
        h = [field.get(name, zero) for name in family.cnames]
        beta.append([dot(table, [(h[k], inv_base[k][j]) for k in range(rho)])
                     for j in range(rho)])
    base_modes = base.mode_scalars(table, family.base_c0)
    base_scalars = [base_modes[j] for j in range(rho)]
    return _EngineState(series=series, fields=fields, scalars=scalars, tail=tail,
                        theta=tail.map(ModuleVector.constant_term), prefactor=prefactor,
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


def _lift_term(state: _EngineState, i: int, tail: TruncatedSeries) -> TruncatedSeries:
    """Field ``i`` applied to the cyclic vector inside every tail entry;
    the series constructor regrades the expansion-variable powers of ``beta``."""
    ctx, beta = state.series.ctx, state.beta[i]
    parts = {m: combine(ctx, [(coeff * b, _cyclic_lift(state, lam, j))
                              for lam, coeff in vec.parts.items()
                              for j, b in enumerate(beta) if not b.is_zero()])
             for m, vec in tail.parts.items()}
    return TruncatedSeries(tail.zero, tail.var, parts, tail.hi)


def _residual(state: _EngineState, n: int) -> TruncatedSeries:
    tail = state.tail
    out = tail.map(lambda v: apply_mode(v, n))
    scalar = state.scalars.get(n)
    if scalar is not None and not scalar.is_zero():
        out = out - tail * scalar
    if n < state.series.family.r:
        field = state.fields[n]
        table, var = state.series.table, state.series.family.var
        log_part = field.get(var)
        deriv = apply_field(field, state.prefactor)
        if log_part is not None and state.series.nu is not None:
            deriv = deriv + state.series.nu * log_part * \
                LaurentPoly.var(table, var, -1)
        if not deriv.is_zero():
            out = out - tail * deriv
        out = out - derive_series(field, tail) - _lift_term(state, n, tail)
    return out


def obstructions(series: IrregularSeries,
                 completion: ScalarCompletion | None = None) -> ObstructionSet:
    """Obstruction scalars of the modes below the annihilating window.

    Each residual must be parallel to the series itself; the returned set
    holds the scalar ratios.
    """
    state = _engine_state(series, completion)
    ratios = []
    for i in range(series.family.r):
        res = _residual(state, i)
        a_i = res.map(ModuleVector.constant_term).divide(state.theta)
        diff = res - state.tail * a_i
        if not diff.is_zero_on_window():
            raise NotParallel(
                f"mode {i} residual is not parallel to the series on "
                f"window {diff.window()}")
        ratios.append(a_i)
    return ObstructionSet(family=series.family, table=series.table, a=tuple(ratios),
                          order=series.order)


# ----- integrability and the potential ----------------------------------------


def window_str(s: TruncatedSeries) -> str:
    """Human-readable span of the orders a check actually covered."""
    if s.hi is None:
        return "all orders"
    return f"orders <= {s.hi}"


def derive_series(field: dict[str, LaurentPoly],
                  s: TruncatedSeries) -> TruncatedSeries:
    """Deformation-field derivative of a scalar or vector series.

    The field acts on every coefficient, and its component along the
    expansion variable also differentiates the grading, which shrinks the
    window by that component's own lowest power of the variable.
    """
    def on_poly(p: LaurentPoly) -> LaurentPoly:
        return apply_field(field, p)

    out = s.map(on_poly if isinstance(s.zero, LaurentPoly)
                else lambda v: v.map_coeffs(on_poly))
    comp = field.get(s.var)
    if comp is None:
        return out
    grading = TruncatedSeries(s.zero, s.var,
                              {m - 1: c * m for m, c in s.parts.items() if m},
                              None if s.hi is None else s.hi - 1)
    return out + grading * comp


def frobenius_verify(obs: ObstructionSet) -> VerificationReport:
    """Check that the obstruction scalars close under the deformation bracket.

    For every pair of lower modes the bracket of the fields applied to the
    scalars must reproduce the scalar of the summed mode, which vanishes at
    or above the window; failures land in the report rather than raising.
    """
    r, fields = obs.family.r, obs.family.fields(obs.table)
    report = VerificationReport()
    for i in range(r):
        for j in range(i + 1, r):
            target = obs.a[i + j] if i + j < r else 0
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
    row = obs.family.dual_operator(obs.table).row
    return sum(TruncatedSeries.from_poly(c, obs.family.var) * a
               for c, a in zip(row, obs.a))


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


def integrate_potential(obs: ObstructionSet) -> PotentialDecomposition:
    """Integrate the obstructions into a potential on the lower parameters.

    Inverting the frame turns the obstruction tuple into coordinate
    components of a one-form; these must be free of the expansion variable,
    with the expansion-direction component vanishing outright.  The closed
    form then splits monomial-wise into an exact part and logarithmic terms
    on the remaining coordinates.
    """
    family, table = obs.family, obs.table
    cnames = family.cnames
    inv = inverse_exact(family.frame_matrix(table))
    comps = [sum(TruncatedSeries.from_poly(c, family.var) * a for c, a in zip(row, obs.a))
             for row in inv]
    top = comps[-1]
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
                            f"that works is --order {obs.order + shortfall}")
    bad = sorted(m for m in top.parts if m != -1)
    if bad:
        raise ExpansionVariableLeak(
            f"potential depends on the expansion variable at orders {bad}")
    if not top.coeff(-1).is_zero():
        raise WeightZeroObstruction(
            "constant term in the expansion direction cannot be integrated")
    components: list[LaurentPoly] = []
    for j, name in enumerate(cnames):
        comp = comps[j]
        bad = sorted(m for m in comp.parts if m != 0)
        if bad:
            raise ExpansionVariableLeak(
                f"component for {name} retains the expansion variable "
                f"at orders {bad}")
        components.append(LaurentPoly.var(table, name) * comp.coeff(0))
    split = [_split_active(a_j, cnames) for a_j in components]
    exponents = sorted({e for m in split for e in m})
    zero = LaurentPoly.zero(table)
    g0 = LaurentPoly.zero(table)
    nu: dict[int, LaurentPoly] = {}
    for expo in exponents:
        coeffs = [m.get(expo, zero) for m in split]
        for i in range(len(cnames)):
            for j in range(i + 1, len(cnames)):
                if coeffs[j] * expo[i] != coeffs[i] * expo[j]:
                    raise NotClosed(
                        f"cross derivatives differ on monomial {expo} "
                        f"(coordinates {cnames[i]}, {cnames[j]})")
        if all(e == 0 for e in expo):
            for j, c in enumerate(coeffs):
                if not c.is_zero():
                    nu[j + 1] = c
            continue
        pick = next(j for j, e in enumerate(expo) if e != 0)
        mono = LaurentPoly.const(table, Fraction(1, expo[pick]))
        for name, e in zip(cnames, expo):
            mono = mono * LaurentPoly.var(table, name, e)
        g0 = g0 + coeffs[pick] * mono
    for j, name in enumerate(cnames):
        rebuilt = LaurentPoly.var(table, name) * g0.derivative(name) \
            + nu.get(j + 1, zero)
        if rebuilt != components[j]:
            raise NotClosed(f"reconstructed derivative along {name} "
                            "does not match the one-form")
    return PotentialDecomposition(g0=g0, nu=nu, passives=family.passives)


def apply_gauge_and_verify(obs: ObstructionSet,
                           decomp: PotentialDecomposition) -> VerificationReport:
    """Verify that the potential correction removes every lower residual.

    Scaling the series by the exponential of the potential shifts each
    obstruction scalar by the field derivative of the potential, so the
    gauged residuals vanish exactly when those two agree order by order.
    Raises when any residual survives; the report carries the windows.
    To gauge another series, pass its own :func:`obstructions`.
    """
    table, cnames = obs.table, obs.family.cnames
    fields = obs.family.fields(table)
    g0 = decomp.g0.migrate(table)
    nu = {j: nu_j.migrate(table) for j, nu_j in decomp.nu.items()}
    report = VerificationReport()
    failed = []
    for i in range(obs.family.r):
        deriv = apply_field(fields[i], g0)
        for j, nu_j in nu.items():
            comp = fields[i].get(cnames[j - 1])
            if comp is not None:
                deriv = deriv + nu_j * comp * LaurentPoly.var(table, cnames[j - 1], -1)
        resid = obs.a[i] - deriv
        ok = resid.is_zero_on_window()
        report.add(f"gauged mode {i} residual", window_str(resid), ok,
                   "" if ok else "residual survives the gauge")
        if not ok:
            failed.append(i)
    if failed:
        raise ResidualNonZero(f"gauged residuals survive for modes {failed}")
    return report


# ----- scalar completion of the odd family -------------------------------------


def _weighted_monomials(family: Family, table: VarTable, weight: int,
                        bound: int) -> list[LaurentPoly]:
    """Monomials of one quasi-homogeneous weight, localized at the last
    polynomial parameter and the top eigenvalue down to ``-bound``."""
    r, cnames, var = family.r, family.cnames, family.var
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
    and the top eigenvalue bounded below by a denominator bound,
    coefficients affine in the passive parameters).  The bracket relations
    with the fixed scalars of the annihilating window plus the
    top-frame-row constraint form a linear system; free coordinates are
    pinned to zero, making the minimal-support answer deterministic.
    Denominator bounds ``1..bound`` are tried in turn, and the first whose
    candidate passes :func:`completion_residuals` is returned, with that
    report as its ``checks``.  Raises ``Infeasible`` when none does.
    """
    if r < 2:
        raise ValueError("the odd family starts at rank descriptor 2")
    if bound < 1:
        raise ValueError("the denominator bound must be positive")
    family = Family(HALF, r)
    table = family.frame_table()
    fields = family.fields(table)
    fixed = family.mode_scalars(table)
    inv_row = family.dual_operator(table).row
    zero = LaurentPoly.zero(table)
    slots = [LaurentPoly.const(table, 1), LaurentPoly.var(table, "Q"),
             LaurentPoly.var(table, "c0")]
    pairs = [(i, j) for i in range(r) for j in range(i + 1, r)]
    # one row per (relation, monomial); the last relation is the frame row,
    # and only the bracket relations with a fixed scalar have a right side
    rhs = {(rel, expo): coeff for rel, (i, j) in enumerate(pairs)
           for expo, coeff in ((j - i) * fixed.get(i + j, zero)).iter_terms()}
    for trial in range(1, bound + 1):
        basis: list[tuple[int, LaurentPoly]] = []
        for n in range(r):
            for mono in _weighted_monomials(family, table, n, trial):
                basis.extend((n, slot * mono) for slot in slots)
        rows: dict[tuple, dict[int, Fraction]] = {}
        for u, (n, b) in enumerate(basis):
            polys = []
            for i, j in pairs:
                term = zero
                if n == j:
                    term = term + apply_field(fields[i], b)
                if n == i:
                    term = term - apply_field(fields[j], b)
                if n == i + j:
                    term = term - (j - i) * b
                polys.append(term)
            polys.append(inv_row[n] * b)
            for rel, poly in enumerate(polys):
                for expo, coeff in poly.iter_terms():
                    rows.setdefault((rel, expo), {})[u] = coeff
        for key in rhs:
            rows.setdefault(key, {})
        try:
            solution = sparse_solve(list(rows.values()),
                                    [rhs.get(k, Fraction(0)) for k in rows], len(basis))
        except InconsistentSystem:
            continue
        sigma = [zero for _ in range(r)]
        for x, (n, b) in zip(solution, basis):
            if x:
                sigma[n] = sigma[n] + b * x
        completion = ScalarCompletion(family=family, table=table, sigma=tuple(sigma),
                                      bound=trial)
        completion.checks = completion_residuals(completion)
        if completion.checks.all_ok:
            return completion
    raise Infeasible(f"no scalar completion within bound {bound}")


def completion_residuals(completion: ScalarCompletion) -> VerificationReport:
    """Recompute the bracket and gauge identities of a scalar completion.

    These are polynomial identities, so every line demands literal zero:
    bracket relations against both the unknown and the fixed window scalars,
    the top-frame-row constraint, and the weight grading of each scalar.
    """
    family, table = completion.family, completion.table
    r = family.r
    fields = family.fields(table)
    fixed = family.mode_scalars(table)
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
    inv_row = family.dual_operator(table).row
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
