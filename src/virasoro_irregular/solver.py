"""Order-by-order construction of the canonical series vectors.

The integer-rank series lives over the rank ``r-1`` module whose zero-mode
parameter is primed, expanded in the top polynomial parameter ``c_r``.  The
half-integer series lives over the same module with the unprimed zero mode,
expanded in the top eigenvalue slot ``Lam``.  Rank one is solved inside the
Verma module one level at a time, each level a polynomial vector over the
one denominator the series stores beside it.

Each order performs three steps: the descendant coefficients are solved
from the shifted-word pairings, the flow-recurrence residual is formed once
with the order's unknown still symbolic and its constant term pins that
unknown on the elimination schedule, and the residual with the pinned value
substituted must vanish identically.
"""

from __future__ import annotations

from fractions import Fraction

from .frames import (CONVENTIONS, GENERAL, HALF, INTEGER, RANK_ONE, DualOperator,
                     Family, conformal_weight, default_central_charge, eigenvalue)
from .gram import gram_entry, gram_entry_on, solve_descendants
from .linalg import adjugate, det_from_adjugate, mat_vec
from .ring import LaurentPoly, NotDivisible, VarTable, dot
from .virasoro import (ModuleContext, ModuleVector, apply_mode, apply_tilde, combine,
                       partitions_of, verma_context)

__all__ = [
    "INTEGER", "HALF", "RANK_ONE",
    "SolverError", "NonAffineElimination", "NonUnitPivot", "ResidualNonZero",
    "SingularShapovalov",
    "IrregularSeries", "Recipe", "RelationCheck", "VerificationReport",
    "series_table", "series_context", "series_recipe",
    "solve_integer", "solve_half", "solve_rank1", "rank1_series",
    "verify_canonical", "scheduled_unknown",
]

class SolverError(Exception):
    """The construction left the proven path; never recovered silently."""


class NonAffineElimination(SolverError):
    """A pinning equation was not affine in exactly its scheduled unknown."""


class NonUnitPivot(SolverError):
    """A pinning pivot did not divide the constant part within the ring."""


class ResidualNonZero(SolverError):
    """The flow recurrence failed to vanish after back-substitution."""


class SingularShapovalov(SolverError):
    """A Verma level pairing matrix was singular over the function field."""


def scheduled_unknown(r: int, k: int) -> str:
    """Name of the unknown pinned by the order-``k`` constant term."""
    if k < r - 1:
        return f"g{r - 1 - k}"
    if k == r - 1:
        return "nu"
    return f"ce{k - r + 1}"


class IrregularSeries:
    """Truncated canonical series together with its construction record.

    ``vectors[k]`` over ``dens[k]`` is the order-``k`` tail coefficient over
    the base module context: ``vectors[k]`` has Laurent-polynomial
    coefficients, and ``dens[k]`` is a nonzero polynomial, 1 at integer and
    half rank (the default) and at rank one the level's monic pairing
    determinant, or 1 where that divides every coefficient.  ``nu`` and
    ``g`` hold the solved exponent and essential-singularity data
    (still-symbolic slots keep their variable).
    ``pending`` lists the unknowns the truncation cannot determine.
    ``pinned`` maps each unknown an order pinned, in pin order, to the
    constant-term equation, affine in that unknown, that pinned it; it is
    ``None`` where no recursion ran (rank one, a re-ingested report).
    """

    __slots__ = ("family", "order", "ctx", "vectors", "dens", "nu", "g", "constants",
                 "pending", "pinned", "convention")

    def __init__(self, family: Family, order: int, ctx: ModuleContext,
                 vectors: list[ModuleVector], nu: LaurentPoly | None,
                 g: dict[int, LaurentPoly], constants: dict[int, LaurentPoly],
                 pending: tuple[str, ...], pinned: dict[str, LaurentPoly] | None,
                 convention: str = GENERAL,
                 dens: list[LaurentPoly] | None = None) -> None:
        self.family, self.order, self.ctx = family, order, ctx
        self.vectors, self.nu, self.g, self.constants = vectors, nu, g, constants
        self.pending, self.pinned, self.convention = pending, pinned, convention
        self.dens = dens or [LaurentPoly.const(ctx.table, 1)] * (order + 1)

    @property
    def table(self) -> VarTable:
        return self.ctx.table


# ----- shared elimination machinery -----------------------------------------


def series_table(family: Family, order: int) -> VarTable:
    """Variables of a series: the family's frame table (with the base zero
    mode after ``c0`` where it differs), then ``nu``, ``g1..g{r-1}`` and the
    tail constants ``ce1..ce{order}``.  Rank one keeps the frame table."""
    frame = family.frame_table()
    if family.kind == RANK_ONE:
        return frame
    names, weights = list(frame.names), list(frame.weights)
    if family.base_c0 not in names:
        names.insert(2, family.base_c0)
        weights.insert(2, 0)
    r, step = family.r, family.step
    names += ["nu"] + [f"g{j}" for j in range(1, r)]
    weights += [0] + [step * j for j in range(1, r)]
    names += [f"ce{k}" for k in range(1, order + 1)]
    weights += [-step * k for k in range(1, order + 1)]
    return VarTable(tuple(names), tuple(weights))


def series_context(family: Family, table: VarTable, central) -> ModuleContext:
    """Module a series lives over: the Verma module at rank one, else the
    rank ``r-1`` module on the family's zero-mode parameter.  ``central``
    defaults to ``1 + 6 Q^2``."""
    if central is None:
        central = default_central_charge(table)
    c_vir = central.migrate(table) if isinstance(central, LaurentPoly) \
        else LaurentPoly.const(table, central)
    if family.kind == RANK_ONE:
        return verma_context(table, conformal_weight(table, "c0"), c_vir)
    r = family.r
    scalars = Family(INTEGER, r - 1).mode_scalars(table, family.base_c0)
    eigen = {n: scalars[n] for n in range(r - 1, 2 * r - 1)}
    return ModuleContext(table, r - 1, eigen, c_vir)


class Recipe:
    """What the recursion and its re-check read of one family.  ``scalars``
    maps each mode of the dual operator that has a fixed scalar to it (at
    integer rank the conformal weight, then the lower eigenvalues; at half
    rank none).
    ``relations[part]`` is the scalar and order shift of the relation that
    trades the word factor ``part`` for a lower-order vector."""

    __slots__ = ("family", "ctx", "dual", "scalars", "relations")

    def __init__(self, family: Family, ctx: ModuleContext, dual: DualOperator,
                 scalars: dict[int, LaurentPoly],
                 relations: dict[int, tuple[LaurentPoly, int]]) -> None:
        self.family, self.ctx, self.dual, self.scalars = family, ctx, dual, scalars
        self.relations = relations


def series_recipe(family: Family, ctx: ModuleContext) -> Recipe:
    """Recipe of an integer or half series over its module context.  The
    mode-``n`` scalar's one positive power ``d`` of the expansion variable,
    with coefficient ``s``, is the relation ``(s, d)`` of part ``n - r + 1``."""
    r, modes = family.r, family.mode_scalars(ctx.table)
    scalars = {n: modes[n] for n in range(r) if n in modes}
    relations = {n - r + 1: (s, d) for n, scalar in modes.items()
                 for d, s in scalar.split_by_var(family.var).items() if d > 0}
    return Recipe(family, ctx, family.dual_operator(ctx.table), scalars, relations)


def _flow_residual(recipe: Recipe, vectors: list[ModuleVector],
                   g_polys: dict[int, LaurentPoly], nu_poly: LaurentPoly,
                   k: int) -> ModuleVector:
    """Left side of the order-``k`` flow recurrence (must vanish): for each
    order ``i`` of the canonical operator, its slice applied to ``v_{k-i}``
    plus that vector's ``g`` shift, or at the top order its ``nu`` shift."""
    r, terms = recipe.family.r, []
    for i in range(r):
        j = k - i
        if not 0 <= j < len(vectors):
            continue
        vec = vectors[j]
        for n, weight in sorted(recipe.dual.orders[i].items()):
            terms.append((weight, apply_mode(vec, n)))
            if n in recipe.scalars:
                terms.append((-weight * recipe.scalars[n], vec))
        shift = (g_polys[r - 1 - i] * Fraction(r - 1 - i) if i < r - 1
                 else -nu_poly - LaurentPoly.const(recipe.ctx.table, j))
        terms.append((shift, vec))
    return combine(recipe.ctx, terms)


def _order_targets(recipe: Recipe, vectors: list[ModuleVector],
                   k: int) -> dict[tuple[int, ...], LaurentPoly]:
    """Pairings {L~_mu v_k} implied by the defining relations.

    The innermost (largest) word factor is traded for a known lower-order
    vector via its relation; the remaining word is then straightened
    against that vector.
    """
    targets: dict[tuple[int, ...], LaurentPoly] = {}
    for w in range(1, recipe.family.r * k + 1):
        for mu in partitions_of(w):
            if mu[0] not in recipe.relations:
                continue
            scalar, shift = recipe.relations[mu[0]]
            j = k - shift
            if j < 0:
                continue
            t = gram_entry_on(recipe.ctx, mu[1:], vectors[j]) * scalar
            if not t.is_zero():
                targets[mu] = t
    return targets


def _substitute_state(vectors: list[ModuleVector], g_polys: dict[int, LaurentPoly],
                      nu_poly: LaurentPoly, name: str,
                      value: LaurentPoly) -> LaurentPoly:
    mapping = {name: value}
    for i, vec in enumerate(vectors):
        parts = {lam: p.subs(mapping) for lam, p in vec.parts.items()}
        if any(parts[lam] is not p for lam, p in vec.parts.items()):
            vectors[i] = ModuleVector(vec.ctx, parts)
    for j in list(g_polys):
        g_polys[j] = g_polys[j].subs(mapping)
    return nu_poly.subs(mapping)


def _pin_unknown(equation: LaurentPoly, name: str, pending: set[str],
                 k: int) -> LaurentPoly:
    """Solve the unknown ``name`` from the order-``k`` constant term
    ``equation``, which must be affine in it."""
    lo, hi = equation.degree_in(name)
    if lo < 0 or hi > 1:
        raise NonAffineElimination(
            f"order {k}: constant term has degree window {lo}..{hi} in {name}")
    pivot = equation.coeff_of_power(name, 1)
    rest = equation.coeff_of_power(name, 0)
    if pivot.is_zero():
        raise NonAffineElimination(f"order {k}: no pivot for {name}")
    if not pivot.is_unit_monomial():
        raise NonUnitPivot(f"order {k}: pivot for {name} is {pivot}")
    try:
        value = (-rest).exact_div(pivot)
    except NotDivisible as exc:
        raise NonUnitPivot(f"order {k}: {name} leaves the ring: {exc}") from exc
    stray = value.support_vars() & pending
    if stray:
        raise NonAffineElimination(
            f"order {k}: solved {name} still involves pending {sorted(stray)}")
    return value


def _run_recursion(recipe: Recipe, order: int) -> IrregularSeries:
    # substituting an unknown commutes with every mode action (no module or
    # recipe scalar holds one), so the substituted residual is the new state's
    table, r = recipe.ctx.table, recipe.family.r
    pending = {"nu", *(f"g{j}" for j in range(1, r)),
               *(f"ce{k}" for k in range(1, order + 1))}
    pinned: dict[str, LaurentPoly] = {}
    constants: dict[int, LaurentPoly] = {}
    g_polys = {j: LaurentPoly.var(table, f"g{j}") for j in range(1, r)}
    nu_poly = LaurentPoly.var(table, "nu")
    vectors = [recipe.ctx.cyclic()]
    for k in range(order + 1):
        if k >= 1:
            slot = LaurentPoly.var(table, f"ce{k}")
            targets = _order_targets(recipe, vectors, k)
            vectors.append(solve_descendants(
                recipe.ctx, targets, r * k, constant=slot))
        name = scheduled_unknown(r, k)
        residual = _flow_residual(recipe, vectors, g_polys, nu_poly, k)
        equation = residual.constant_term()
        value = _pin_unknown(equation, name, pending, k)
        pinned[name] = equation
        pending.discard(name)
        if name.startswith("ce"):
            constants[int(name[2:])] = value
        nu_poly = _substitute_state(vectors, g_polys, nu_poly, name, value)
        residual = residual.map_coeffs(lambda p: p.subs({name: value}))
        if not residual.is_zero():
            raise ResidualNonZero(
                f"order {k}: flow recurrence left {residual!r}")
    return IrregularSeries(
        family=recipe.family, order=order, ctx=recipe.ctx,
        vectors=vectors, nu=nu_poly, g=g_polys, constants=constants,
        pending=tuple(sorted(pending, key=lambda s: (s[:2] != "ce", s))),
        pinned=pinned)


def _solve(family: Family, order: int, central) -> IrregularSeries:
    if family.r < 2:
        raise ValueError(f"{family.kind} construction starts at r = 2")
    if order < 0:
        raise ValueError("truncation order must be non-negative")
    ctx = series_context(family, series_table(family, order), central)
    return _run_recursion(series_recipe(family, ctx), order)


def solve_integer(r: int, order: int, central=None) -> IrregularSeries:
    """Canonical integer-rank series over the rank ``r-1`` module."""
    return _solve(Family(INTEGER, r), order, central)


def solve_half(r: int, order: int, central=None) -> IrregularSeries:
    """Canonical half-integer series (rank ``r - 1/2``)."""
    return _solve(Family(HALF, r), order, central)


# ----- rank one --------------------------------------------------------------


def _pairing_target(mu: tuple[int, ...], s1: LaurentPoly,
                    s2: LaurentPoly) -> LaurentPoly:
    """{L_mu v_k} for a partition ``mu`` of ``k``: each ``L_1`` lowers the
    level by one at the scalar ``s1``, each ``L_2`` by two at ``s2``, any
    higher mode annihilates, and {v_0} = 1."""
    if mu[0] > 2:
        return LaurentPoly.zero(s1.table)
    return s1 ** mu.count(1) * s2 ** mu.count(2)


def _from_invariants(p: LaurentPoly, delta_powers: list[LaurentPoly],
                     c_powers: list[LaurentPoly], table: VarTable) -> LaurentPoly:
    """Map a polynomial in (Delta, c) to the module table, given the powers
    of the images of Delta and c, its integer numerators grouped by Delta."""
    groups: dict[int, list] = {}
    for key, n in p.terms.items():
        a, b = p.table.unpack(key)
        groups.setdefault(a, []).append((c_powers[b], LaurentPoly.const(table, n)))
    out = dot(table, [(dot(table, pairs), delta_powers[a]) for a, pairs in groups.items()])
    return out if p.den == 1 else out * Fraction(1, p.den)


def solve_rank1(vctx: ModuleContext, lam1: LaurentPoly, lam2: LaurentPoly,
                order: int, convention: str = GENERAL) -> IrregularSeries:
    """Rank-one series inside the Verma module.

    ``lam1`` must be linear and ``lam2`` quadratic in the expansion
    parameter ``c1``; all higher eigenvalues vanish identically, so the
    level-``k`` coefficients follow from the ``L_1`` and ``L_2`` relations
    alone.  Applied mode by mode, those relations fix every level-``k``
    pairing in closed form (``_pairing_target``), with no reference to the
    lower levels, so ``v_k = adj(G_k) t_k / det(G_k)`` for the level
    pairing matrix ``G_k`` and that target vector ``t_k``.  Both are
    divided by the leading coefficient of ``det(G_k)``, and the level is
    stored as the polynomial vector ``adj(G_k) t_k`` over that monic
    denominator, or as the quotient over 1 where ``det(G_k)`` divides every
    coefficient in the Laurent ring.
    """
    if vctx.rho != 0:
        raise ValueError("rank-one construction needs a Verma context")
    if order < 0:
        raise ValueError("truncation order must be non-negative")
    table = vctx.table
    c1 = LaurentPoly.var(table, "c1")
    one = LaurentPoly.const(table, 1)
    try:
        s1 = lam1.exact_div(c1)
        s2 = lam2.exact_div(c1 * c1)
    except NotDivisible as exc:
        raise ValueError(f"eigenvalues do not match a rank-one expansion: {exc}")
    if s1.uses_var("c1") or s2.uses_var("c1"):
        raise ValueError("eigenvalues do not match a rank-one expansion")
    # The level pairing matrix depends on the module only through its weight
    # Delta and central charge c, so it is built over a two-variable
    # (Delta, c) table, where its determinant and cofactors have far fewer
    # terms.  Only the adjugate columns where a right-hand side is nonzero
    # are computed (column 0 if none), and the determinant is read off the
    # first through A adj(A) = det(A) I.  All return to the module table by
    # Delta -> eigenvalue(0) and c -> c_vir.
    inv_table = VarTable(("Delta", "c"), (0, 0))
    inv_ctx = verma_context(inv_table, LaurentPoly.var(inv_table, "Delta"),
                            LaurentPoly.var(inv_table, "c"))
    bases = (vctx.eigenvalue(0), vctx.c_vir)
    powers = ([one], [one])   # powers of the bases, extended once per level
    vectors, dens = [vctx.cyclic()], [one]
    for k in range(1, order + 1):
        lams = partitions_of(k)
        rhs = [_pairing_target(mu, s1, s2) for mu in lams]
        cols = [j for j, t in enumerate(rhs) if not t.is_zero()] or [0]
        rows = [[gram_entry(inv_ctx, mu, lam) for lam in lams] for mu in lams]
        adj = adjugate(rows, cols)
        det = det_from_adjugate(rows, adj, cols[0])
        entries = [det, *(a for row in adj for a in row)]
        for name, pows, base in zip(inv_table.names, powers, bases):
            top = max(p.degree_in(name)[1] for p in entries)
            while len(pows) <= top:
                pows.append(pows[-1] * base)
        det = _from_invariants(det, *powers, table)
        if det.is_zero():
            raise SingularShapovalov(f"level {k}: pairing determinant vanishes")
        adj = [[_from_invariants(a, *powers, table) for a in row] for row in adj]
        scale = 1 / det.leading()[1]
        det = det * scale
        nums = mat_vec(adj, [t * scale for t in rhs])
        try:
            nums, det = [p.exact_div(det) for p in nums], one
        except NotDivisible:
            pass
        vectors.append(ModuleVector(vctx, dict(zip(lams, nums))))
        dens.append(det)
    return IrregularSeries(
        family=Family(RANK_ONE, 1), order=order, ctx=vctx,
        vectors=vectors, nu=None, g={}, constants={}, pending=(), pinned=None,
        convention=convention, dens=dens)


def rank1_series(order: int, convention: str = GENERAL,
                 central=None) -> IrregularSeries:
    """Rank-one series on the standard three-variable table."""
    if convention not in CONVENTIONS:
        raise ValueError(f"unknown convention {convention!r}")
    family = Family(RANK_ONE, 1)
    table = series_table(family, order)
    vctx = series_context(family, table, central)
    lam1 = eigenvalue(table, 1, ("c1",), convention=convention)
    lam2 = eigenvalue(table, 2, ("c1",), convention=convention)
    return solve_rank1(vctx, lam1, lam2, order, convention=convention)


# ----- independent verification ----------------------------------------------


class RelationCheck:
    __slots__ = ("relation", "window", "ok", "detail")

    def __init__(self, relation: str, window: str, ok: bool, detail: str = "") -> None:
        self.relation, self.window, self.ok, self.detail = relation, window, ok, detail


class VerificationReport:
    __slots__ = ("checks",)

    def __init__(self, checks: list[RelationCheck] | None = None) -> None:
        self.checks = [] if checks is None else checks

    @property
    def all_ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def failures(self) -> list[RelationCheck]:
        return [c for c in self.checks if not c.ok]

    def add(self, relation: str, window: str, ok: bool, detail: str = "") -> None:
        self.checks.append(RelationCheck(relation, window, ok, detail))


def _check_mode_relations(series: IrregularSeries, recipe: Recipe,
                          report: VerificationReport) -> None:
    r, rho = recipe.family.r, recipe.ctx.rho
    top_mode = max(2 * r, 2 * rho + r * series.order)
    for n in range(r, top_mode + 1):
        scalar, shift = recipe.relations.get(n - rho, (None, 0))
        bad = ""
        for k, vk in enumerate(series.vectors):
            lhs = apply_tilde(vk, n)
            if scalar is not None and k - shift >= 0:
                lhs = lhs - series.vectors[k - shift].scale(scalar)
            if not lhs.is_zero():
                bad = f"k={k}: {lhs!r}"
                break
        report.add(f"mode {n} relation", f"k = 0..{series.order}", not bad, bad)


def _check_flow(series: IrregularSeries, recipe: Recipe,
                report: VerificationReport) -> None:
    for k in range(series.order + 1):
        res = _flow_residual(recipe, series.vectors, series.g, series.nu, k)
        report.add("flow recurrence", f"order {k}", res.is_zero(),
                   "" if res.is_zero() else repr(res))


def _check_rank_one(series: IrregularSeries, report: VerificationReport) -> None:
    # Each relation is checked on the stored N_k = D_k v_k, which has
    # polynomial coefficients, after multiplying it through by the
    # denominators D_k it involves.  A zero D_k (which the solve and the
    # report reader both refuse) leaves v_k undefined and fails the series;
    # with every D_k nonzero, each cleared relation holds exactly when the
    # original one does, and no rational arithmetic is needed.
    table = series.table
    nums, dens = series.vectors, series.dens
    zero = next((k for k, dk in enumerate(dens) if dk.is_zero()), None)
    if zero is not None:
        report.add("denominator", f"k = {zero}", False, "zero denominator")
        return
    report.add("normalization", "k = 0", nums[0].constant_term() == dens[0])
    delta = series.ctx.eigenvalue(0)
    for k, nk in enumerate(nums):
        graded = apply_mode(nk, 0) - nk.scale(delta + LaurentPoly.const(table, k))
        report.add("grading", f"k = {k}", graded.is_zero(),
                   "" if graded.is_zero() else repr(graded))
    # L_n v_k = s_n v_{k-n} for n = 1, 2 and k >= n, with s_n the eigenvalue
    # over c1^n, else L_n v_k = 0.  Cleared, L_n N_k = s_n (D_k / D_{k-n})
    # N_{k-n} where D_{k-n} divides D_k (the ring is an integral domain and
    # D_{k-n} != 0, so this is exact), and D_{k-n} L_n N_k = s_n D_k N_{k-n}
    # where it does not
    c1 = LaurentPoly.var(table, "c1")
    lowered = {n: eigenvalue(table, n, ("c1",), convention=series.convention)
               .exact_div(c1 ** n) for n in (1, 2)}
    for n in range(1, max(4, series.order + 1) + 1):
        bad = ""
        for k, nk in enumerate(nums):
            lhs = apply_mode(nk, n)
            if n in lowered and k >= n:
                try:
                    ratio = dens[k].exact_div(dens[k - n])
                except NotDivisible:
                    lhs = (lhs.scale(dens[k - n])
                           - nums[k - n].scale(lowered[n] * dens[k]))
                else:
                    lhs = lhs - nums[k - n].scale(lowered[n] * ratio)
            if not lhs.is_zero():
                bad = f"k={k}: {lhs!r}"
                break
        report.add(f"mode {n} relation", f"k = 0..{series.order}", not bad, bad)


def verify_canonical(series: IrregularSeries) -> VerificationReport:
    """Re-check every defining relation of a series from scratch.

    Nothing from the construction is reused except the stored vectors and
    solved scalars; the canonical operator and scalar tables are rebuilt.
    Failures become report entries, never exceptions.
    """
    report = VerificationReport()
    if series.family.kind == RANK_ONE:
        _check_rank_one(series, report)
        return report
    recipe = series_recipe(series.family, series.ctx)
    one = LaurentPoly.const(series.table, 1)
    report.add("normalization", "k = 0",
               series.vectors[0].constant_term() == one)
    for k, vk in enumerate(series.vectors):
        ok = vk.max_weight() <= series.family.r * k
        report.add("support bound", f"k = {k}", ok,
                   "" if ok else f"weight {vk.max_weight()}")
    _check_mode_relations(series, recipe, report)
    _check_flow(series, recipe, report)
    return report
