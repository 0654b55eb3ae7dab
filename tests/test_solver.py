"""Order-by-order construction of the canonical series and its verification."""

from __future__ import annotations

import copy
import json
import random
from fractions import Fraction
from functools import lru_cache

import pytest

from virasoro_irregular import gram, solver
from virasoro_irregular.frames import (
    DISPLAY,
    GENERAL,
    Family,
    conformal_weight,
    default_central_charge,
    eigenvalue,
)
from virasoro_irregular.gram import GramError, gram_entry, gram_entry_on
from virasoro_irregular.ring import LaurentPoly, NotDivisible, RingError, VarTable
from virasoro_irregular.serialize import dumps, series_from_doc, series_to_doc
from virasoro_irregular.solver import (
    HALF,
    INTEGER,
    IrregularSeries,
    ResidualNonZero,
    SingularShapovalov,
    SolverError,
    _run_recursion,
    rank1_series,
    scheduled_unknown,
    series_context,
    series_recipe,
    series_table,
    solve_half,
    solve_integer,
    solve_rank1,
    verify_canonical,
)
from virasoro_irregular.virasoro import (
    ModuleContext,
    ModuleVector,
    apply_mode,
    partitions_of,
    verma_context,
)


@lru_cache(maxsize=None)
def _integer(r: int, order: int) -> IrregularSeries:
    return solve_integer(r, order)


@lru_cache(maxsize=None)
def _half(r: int, order: int) -> IrregularSeries:
    return solve_half(r, order)


@lru_cache(maxsize=None)
def _rank1(order: int, convention: str = GENERAL) -> IrregularSeries:
    return rank1_series(order, convention=convention)


def _v(table: VarTable, name: str, power: int = 1, coeff=1) -> LaurentPoly:
    return LaurentPoly.var(table, name, power, coeff)


# ----- elimination schedule --------------------------------------------------


def test_scheduled_unknown_follows_the_elimination_order():
    assert [scheduled_unknown(2, k) for k in range(4)] == ["g1", "nu", "ce1", "ce2"]
    assert [scheduled_unknown(3, k) for k in range(5)] == ["g2", "g1", "nu", "ce1", "ce2"]
    assert [scheduled_unknown(4, k) for k in range(4)] == ["g3", "g2", "g1", "nu"]


@pytest.mark.parametrize("kind, r, order", [
    (INTEGER, 2, 3), (INTEGER, 3, 2), (HALF, 2, 3), (HALF, 3, 2)])
def test_pinned_follows_the_schedule_and_leaves_the_rest_pending(kind, r, order):
    # each order pins its scheduled unknown; the series unknowns of the table
    # (nu, g1..g{r-1}, ce1..ce{order}) that no order reached stay pending
    s = (_integer if kind == INTEGER else _half)(r, order)
    assert list(s.pinned) == [scheduled_unknown(r, k) for k in range(order + 1)]
    assert not set(s.pinned) & set(s.pending)
    family = Family(kind, r)
    known = set(family.frame_table().names) | {family.base_c0}
    unknowns = {n for n in series_table(family, order).names if n not in known}
    assert set(s.pinned) | set(s.pending) == unknowns == {
        "nu", *(f"g{j}" for j in range(1, r)), *(f"ce{k}" for k in range(1, order + 1))}


def test_pinned_keeps_affine_pinning_equations():
    s = _integer(2, 2)
    for name, equation in s.pinned.items():
        lo, hi = equation.degree_in(name)
        assert (lo, hi) == (0, 1)
        pivot = equation.coeff_of_power(name, 1)
        assert pivot.is_unit_monomial()
    assert list(s.pinned) == ["g1", "nu", "ce1"]
    assert s.pending == ("ce2",)
    # the stored constant solves the equation that pinned it
    equation = s.pinned["ce1"]
    assert s.constants[1] == (-equation.coeff_of_power("ce1", 0)).exact_div(
        equation.coeff_of_power("ce1", 1))


# ----- frozen values, integer kind at r = 2 ----------------------------------


def test_integer_r2_exponent_and_singularity_data():
    s = _integer(2, 2)
    t = s.table
    q, c0, c0p = _v(t, "Q"), _v(t, "c0"), _v(t, "c0p")
    assert s.g[1] == _v(t, "c1", 2, Fraction(1, 2)) * (c0 - c0p)
    assert s.nu == (-q * c0 + q * c0p * Fraction(3, 4) + c0 * c0 * Fraction(1, 2)
                    + c0 * c0p * Fraction(1, 4) - c0p * c0p * Fraction(3, 8))


def test_integer_r2_first_tail_vector():
    s = _integer(2, 2)
    t = s.table
    q, c0, c0p = _v(t, "Q"), _v(t, "c0"), _v(t, "c0p")
    v1 = s.vectors[1]
    assert v1.coeff((1,)) == _v(t, "c1", -2) * (c0 * Fraction(1, 2) - c0p * Fraction(3, 4))
    assert v1.coeff((2,)) == _v(t, "c1", -1, Fraction(1, 2))
    assert v1.coeff((1, 1)).is_zero()
    expected = ((q * 2 - c0p)
                * (q * c0 * 6 - q * c0p * 6 + c0 * c0 - c0 * c0p * 6 + c0p * c0p * 6)
                * _v(t, "c1", -2, Fraction(1, 16)))
    assert v1.constant_term() == expected
    assert s.constants[1] == expected


# ----- frozen values, half kind at r = 2 --------------------------------------


def test_half_r2_exponent_and_singularity_data():
    s = _half(2, 2)
    t = s.table
    q, c0 = _v(t, "Q"), _v(t, "c0")
    edge = q * 2 - c0
    assert s.g[1] == edge * _v(t, "c1", 3, Fraction(-2, 3))
    assert s.nu == edge * edge * Fraction(-1, 4)


def test_half_r2_first_tail_vector():
    s = _half(2, 2)
    t = s.table
    q, c0 = _v(t, "Q"), _v(t, "c0")
    v1 = s.vectors[1]
    assert v1.coeff((1,)) == (q * 2 - c0) * _v(t, "c1", -3, Fraction(-3, 8))
    assert v1.coeff((2,)) == _v(t, "c1", -2, Fraction(-1, 4))
    expected = ((c0 - q * 2)
                * (q * q * 78 - q * c0 * 68 + c0 * c0 * 17 - LaurentPoly.const(t, 2))
                * _v(t, "c1", -3, Fraction(1, 96)))
    assert v1.constant_term() == expected
    assert s.constants[1] == expected


# ----- structural invariants ---------------------------------------------------


@pytest.mark.parametrize("series", [
    _integer(2, 3), _integer(3, 2), _half(2, 3), _half(3, 2)])
def test_construction_verifies_from_scratch(series):
    report = verify_canonical(series)
    assert report.all_ok, [(c.relation, c.window, c.detail) for c in report.failures()]


@pytest.mark.parametrize("series", [_integer(2, 2), _half(2, 2)])
def test_arbitrary_central_charge_is_consistent(series):
    rebuilt = {INTEGER: solve_integer, HALF: solve_half}[series.family.kind](
        series.family.r, series.order, central=7)
    assert verify_canonical(rebuilt).all_ok
    assert rebuilt.constants[1] != series.constants[1]


def _at_q(q: int):
    """Substitution Q -> q on the coefficients of one series."""
    def sub(p: LaurentPoly) -> LaurentPoly:
        return p.subs({"Q": LaurentPoly.const(p.table, q)})
    return sub


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("kind,r", [(INTEGER, 2), (INTEGER, 3), (HALF, 2), (HALF, 3)])
def test_specialising_q_commutes_with_the_central_override(kind, r, q):
    # solving with c = 1 + 6 q^2 and then putting Q = q must give the
    # generic series (c = 1 + 6 Q^2) with Q = q put in afterwards
    generic = (_integer if kind == INTEGER else _half)(r, 3)
    special = (solve_integer if kind == INTEGER else solve_half)(r, 3, central=1 + 6 * q * q)
    sub = _at_q(q)
    assert len(generic.vectors) == len(special.vectors)
    for gv, sv in zip(generic.vectors, special.vectors):
        for lam in set(gv.parts) | set(sv.parts):
            assert sub(gv.coeff(lam)) == sub(sv.coeff(lam)), lam
    assert sub(generic.nu) == sub(special.nu)
    assert generic.g.keys() == special.g.keys()
    for j, gj in generic.g.items():
        assert sub(gj) == sub(special.g[j]), j


@pytest.mark.parametrize("q", [2, 3])
def test_specialising_q_commutes_with_the_central_override_at_rank_one(q):
    generic, special = _rank1(3), rank1_series(3, central=1 + 6 * q * q)
    sub = _at_q(q)
    levels = zip(generic.vectors, generic.dens, special.vectors, special.dens, strict=True)
    for gv, gd, sv, sd in levels:
        assert gv.parts.keys() == sv.parts.keys()
        assert not sub(gd).is_zero() and not sub(sd).is_zero()
        for lam, a in gv.parts.items():
            assert sub(a) * sub(sd) == sub(sv.parts[lam]) * sub(gd), lam


def _relation_oracle(kind: str, r: int, table: VarTable,
                     part: int) -> tuple[LaurentPoly, int] | None:
    """Closed forms of the relation that trades the word factor ``part``."""
    if kind == HALF:
        return (LaurentPoly.const(table, 1), 1) if part == r else None
    if part == 1:
        return LaurentPoly.var(table, "Q", 1, r + 1) - LaurentPoly.var(table, "c0"), 1
    if 2 <= part <= r:
        return LaurentPoly.var(table, f"c{part - 1}", 1, -2), 1
    if part == r + 1:
        return LaurentPoly.const(table, -1), 2
    return None


@pytest.mark.parametrize("kind,r", [(INTEGER, r) for r in range(2, 7)]
                         + [(HALF, r) for r in range(2, 6)])
def test_relations_derived_from_the_mode_scalars_match_the_closed_forms(kind, r):
    family = Family(kind, r)
    table = series_table(family, 1)
    recipe = series_recipe(family, series_context(family, table, None))
    expected = {}
    for part in range(-2 * r, 3 * r):
        rel = _relation_oracle(kind, r, table, part)
        if rel is not None:
            expected[part] = rel
    assert set(recipe.relations) == set(expected)
    assert recipe.relations == expected


@pytest.mark.parametrize("series", [
    _integer(2, 3), _integer(3, 2), _half(2, 3), _half(3, 2)])
def test_support_bound_and_pole_location(series):
    pole_var = f"c{series.family.r - 1}"
    for k, vk in enumerate(series.vectors):
        assert vk.max_weight() <= series.family.r * k
        for lam, coeff in vk.items():
            for name in coeff.support_vars():
                if name != pole_var:
                    assert coeff.degree_in(name)[0] >= 0, (k, lam, name)


@pytest.mark.parametrize("series", [
    _integer(2, 3), _integer(3, 2), _half(2, 3), _half(3, 2)])
def test_quasi_homogeneous_grading(series):
    rho = series.family.r - 1
    step = series.family.r if series.family.kind == INTEGER else 2 * series.family.r - 1
    for k, vk in enumerate(series.vectors):
        for lam, coeff in vk.items():
            want = (sum(lam) - rho * len(lam)) - step * k
            assert coeff.homogeneous_weight() == want, (k, lam)
    assert series.nu.homogeneous_weight() == 0
    for j, gj in series.g.items():
        assert gj.homogeneous_weight() == step * j


@pytest.mark.parametrize("series", [
    _integer(2, 3), _integer(3, 2), _half(2, 3), _half(3, 2)])
def test_scalars_and_tail_free_of_the_expansion_variable(series):
    var = series.family.var
    assert not series.nu.uses_var(var)
    for gj in series.g.values():
        assert not gj.uses_var(var)
    for vk in series.vectors:
        for _, coeff in vk.items():
            assert not coeff.uses_var(var)


def x_vectors(series: IrregularSeries) -> list[ModuleVector]:
    """Constant-term-free combinations X_k = v_k - sum {v_i} X_{k-i} used by
    the elimination argument."""
    xs: list[ModuleVector] = []
    for k, x in enumerate(series.vectors):
        for i in range(1, k + 1):
            x = x - xs[k - i].scale(series.vectors[i].constant_term())
        xs.append(x)
    return xs


@pytest.mark.parametrize("series", [_integer(2, 3), _integer(3, 2), _half(2, 3)])
def test_constant_free_combinations(series):
    xs = x_vectors(series)
    assert xs[0] == series.vectors[0]
    pending = set(series.pending)
    for k, x in enumerate(xs):
        if k >= 1:
            assert x.constant_term().is_zero()
        for lam, coeff in x.items():
            assert not (coeff.support_vars() & pending), (k, lam)


def test_truncation_order_zero_leaves_the_exponent_pending():
    s = solve_integer(2, 0)
    assert len(s.vectors) == 1
    assert s.pending == ("nu",)
    assert s.nu == LaurentPoly.var(s.table, "nu")
    assert verify_canonical(s).all_ok


def test_rejects_too_small_rank_or_negative_order():
    with pytest.raises(ValueError):
        solve_integer(1, 2)
    with pytest.raises(ValueError):
        solve_half(1, 2)
    with pytest.raises(ValueError):
        solve_integer(2, -1)
    with pytest.raises(ValueError):
        rank1_series(-1)


# ----- uniqueness probes -------------------------------------------------------


def _replaced(series: IrregularSeries, **changes) -> IrregularSeries:
    """A shallow copy of ``series`` with some attributes replaced."""
    out = copy.copy(series)
    for name, value in changes.items():
        setattr(out, name, value)
    return out


def _with_vector(series: IrregularSeries, k: int, vec: ModuleVector) -> IrregularSeries:
    vectors = list(series.vectors)
    vectors[k] = vec
    return _replaced(series, vectors=vectors)


@pytest.mark.parametrize("series", [
    _integer(2, 3), _integer(3, 3), _half(2, 3), _half(3, 3)])
def test_any_single_perturbation_breaks_verification(series):
    one = LaurentPoly.const(series.table, 1)
    probes = []
    probes.append(_replaced(series, nu=series.nu + one))
    for j in series.g:
        g = dict(series.g)
        g[j] = g[j] + one
        probes.append(_replaced(series, g=g))
    # shifting the cyclic coefficient of a tail vector in the solved range
    # contradicts the pinning equation that fixed it
    solved_top = series.order - series.family.r + 1
    for k in range(1, solved_top + 1):
        bumped = series.vectors[k] + series.ctx.cyclic()
        probes.append(_with_vector(series, k, bumped))
    rng = random.Random(20240521 + series.family.r + len(series.family.kind))
    for _ in range(5):
        k = rng.randrange(1, series.order + 1)
        descendants = [lam for lam, _ in series.vectors[k].items() if lam]
        lam = descendants[rng.randrange(len(descendants))]
        bumped = series.vectors[k] + series.ctx.basis(lam)
        probes.append(_with_vector(series, k, bumped))
    for probe in probes:
        assert not verify_canonical(probe).all_ok


@pytest.mark.parametrize("series", [
    _integer(2, 3), _integer(3, 3), _half(2, 3), _half(3, 3)])
def test_last_cyclic_coefficient_is_genuine_freedom(series):
    # the top-order constant slot is only pinned beyond the truncation
    # horizon, so shifting it must still verify
    bumped = series.vectors[series.order] + series.ctx.cyclic()
    probe = _with_vector(series, series.order, bumped)
    assert verify_canonical(probe).all_ok


@pytest.mark.parametrize("solve, r, low, high", [
    (solve_integer, 2, 3, 5), (solve_integer, 2, 2, 4),
    (solve_integer, 3, 2, 4), (solve_integer, 3, 1, 3),
    (solve_integer, 4, 1, 4), (solve_integer, 4, 2, 4),
    (solve_half, 2, 2, 4), (solve_half, 2, 1, 3),
    (solve_half, 3, 2, 4), (solve_half, 3, 1, 3),
])
def test_a_longer_solve_pins_what_a_shorter_one_leaves_pending(solve, r, low, high):
    # uniqueness as an oracle: the order-`low` vectors, with the order-`high`
    # solve's values put in for the unknowns the short truncation cannot
    # reach, are the order-`high` solve's first vectors
    short, long = solve(r, low), solve(r, high)
    values = {f"ce{k}": value for k, value in long.constants.items()}
    values["nu"] = long.nu
    values.update((f"g{j}", value) for j, value in long.g.items())
    assert set(short.pending) - set(values) <= set(long.pending)
    put = {name: values[name] for name in short.pending if name in values}
    assert put, "the longer solve pins none of the shorter one's pending unknowns"
    for k in range(low + 1):
        parts = {lam: p.migrate(long.table).subs(put)
                 for lam, p in short.vectors[k].parts.items()}
        assert ModuleVector(long.ctx, parts) == long.vectors[k], k


@pytest.mark.parametrize("mu, lam, fault", [
    ((1,), (1,), lambda g: g * 2),
    ((1,), (2,), lambda g: g + 1),
    ((2,), (1, 1), lambda g: g + 1),
    ((1, 1), (1, 1), lambda g: g * 2),
])
def test_corrupted_pairing_cache_never_yields_a_clean_series(mu, lam, fault):
    # exactness must not rest on the pairing cache: a wrong entry, diagonal
    # or off-diagonal, ends in an error or in a failing re-check
    family = Family(INTEGER, 2)
    ctx = series_context(family, series_table(family, 3), None)
    ctx._pairing_cache[mu][lam] = fault(gram_entry(ctx, mu, lam))
    try:
        series = _run_recursion(series_recipe(family, ctx), 3)
    except (SolverError, GramError, RingError):
        return
    assert not verify_canonical(series).all_ok


def test_wrong_closed_form_diagonal_fails_the_layer_check(monkeypatch):
    # the solve divides by the closed form, so the layer re-check, which
    # re-derives the diagonal by the pairing recursion, must catch a wrong one
    exact = gram._diagonal_factor
    monkeypatch.setattr(gram, "_diagonal_factor",
                        lambda mu: exact(mu) * (2 if mu == (2, 1) else 1))
    with pytest.raises(GramError, match=r"pairing mismatch at \(2, 1\)"):
        solve_integer(2, 3)


def test_corrupted_equal_weight_entry_is_caught_by_each_check(monkeypatch):
    # a wrong equal-weight off-diagonal entry fails the in-solve layer check;
    # with that check patched out, the vector it yields fails verify_canonical
    series = solve_integer(2, 3)
    ctx, k = series.ctx, series.order
    ctx._pairing_cache[(2,)][(1, 1)] = gram_entry(ctx, (2,), (1, 1)) + 1
    targets = solver._order_targets(series_recipe(series.family, ctx), series.vectors, k)
    constant = series.vectors[k].constant_term()
    with pytest.raises(GramError, match="pairing mismatch"):
        solver.solve_descendants(ctx, targets, 2 * k, constant=constant)
    monkeypatch.setattr(gram, "_check_layer", lambda ctx, rests, layer: None)
    vec = solver.solve_descendants(ctx, targets, 2 * k, constant=constant)
    assert vec != series.vectors[k]
    assert not verify_canonical(_with_vector(series, k, vec)).all_ok


@pytest.mark.parametrize("solve, r", [
    (solve_integer, 2), (solve_integer, 3), (solve_half, 2), (solve_half, 3)])
def test_in_solve_residual_check_rejects_a_wrong_descendant(solve, r, monkeypatch):
    # one extra non-cyclic basis vector in the order-1 coefficient leaves the
    # pinning equation solvable, so only the residual check can catch it
    exact = solver.solve_descendants

    def bumped(ctx, targets, top_weight, constant=None):
        vec = exact(ctx, targets, top_weight, constant=constant)
        return vec + ctx.basis((1, 1)) if top_weight == r else vec

    monkeypatch.setattr(solver, "solve_descendants", bumped)
    with pytest.raises(ResidualNonZero, match="order 1:"):
        solve(r, 3)


@pytest.mark.parametrize("solve, r", [
    (solve_integer, 2), (solve_integer, 3), (solve_half, 2), (solve_half, 3)])
def test_in_solve_residual_check_rejects_a_stale_substitution(solve, r, monkeypatch):
    # a pinned value that never reaches the newest vector must surface as a
    # residual failure inside the solve, not as a series that looks solved
    exact = solver._substitute_state

    def stale(vectors, g_polys, nu_poly, name, value):
        newest = vectors[-1]
        nu_poly = exact(vectors, g_polys, nu_poly, name, value)
        vectors[-1] = newest
        return nu_poly

    monkeypatch.setattr(solver, "_substitute_state", stale)
    with pytest.raises(ResidualNonZero):
        solve(r, 4)


# ----- one coefficient type ------------------------------------------------------


def test_every_order_is_a_polynomial_vector_over_one_stored_denominator():
    # rank one in both conventions, integer ranks 2 and 3 and half rank 2
    # (3/2), after the solve and after a report round trip: every coefficient
    # is a LaurentPoly, there is one denominator per order, monic at rank
    # one and 1 elsewhere
    cases = [*((True, lambda k, c=c: _rank1(k, c), range(6)) for c in (GENERAL, DISPLAY)),
             (False, lambda k: _integer(2, k), range(4)),
             (False, lambda k: _integer(3, k), range(3)),
             (False, lambda k: _half(2, k), range(4))]
    for rank_one, build, orders in cases:
        for order in orders:
            solved = build(order)
            rebuilt = series_from_doc(json.loads(dumps(series_to_doc(solved))))
            one = LaurentPoly.const(solved.table, 1)
            for series in (solved, rebuilt):
                assert len(series.vectors) == len(series.dens) == order + 1
                assert all(type(c) is LaurentPoly
                           for vk in series.vectors for c in vk.parts.values())
                for den in series.dens:
                    assert type(den) is LaurentPoly
                    assert den.leading()[1] == 1 if rank_one else den == one


# ----- rank one ----------------------------------------------------------------


def test_rank1_level_one_vector_general_convention():
    # v_1 = (2Q - c0) / (2 (Q c0 - c0^2)) b_(1): the level's denominator is
    # kept, divided by its leading coefficient, and so is the numerator
    s = _rank1(2, GENERAL)
    t = s.table
    q, c0 = _v(t, "Q"), _v(t, "c0")
    assert s.vectors[1].parts == {(1,): (q * 2 - c0) * Fraction(1, 2)}
    assert s.dens[1] == q * c0 - c0 * c0


def test_rank1_level_one_vector_display_convention():
    # v_1 = b_(1) / c0: the determinant c0 divides the level in the Laurent
    # ring, so the level reduces to a quotient over 1
    s = _rank1(2, DISPLAY)
    t = s.table
    assert s.vectors[1].parts == {(1,): _v(t, "c0", -1)}
    assert s.dens[1] == LaurentPoly.const(t, 1)


@pytest.mark.parametrize("convention", [GENERAL, DISPLAY])
def test_rank1_levels_share_one_monic_denominator(convention):
    # every level of v_k is stored over one monic det(G_k), or over 1 where
    # that divides the whole level, after the solve and again after a
    # report round trip; no level is left over an exactly dividing one
    solved = _rank1(5, convention)
    rebuilt = series_from_doc(json.loads(dumps(series_to_doc(solved))))
    one = LaurentPoly.const(solved.table, 1)
    for series in (solved, rebuilt):
        for vk, den in zip(series.vectors, series.dens, strict=True):
            assert den.leading()[1] == 1
            if den != one:
                with pytest.raises(NotDivisible):
                    for c in vk.parts.values():
                        c.exact_div(den)
    assert [len(vk.parts) for vk in solved.vectors] == [1, 1, 2, 3, 5, 7]
    assert all(a.parts == b.parts for a, b in zip(solved.vectors, rebuilt.vectors))
    assert rebuilt.dens == solved.dens


@pytest.mark.parametrize("convention", [GENERAL, DISPLAY])
def test_rank1_forward_relations(convention):
    # each relation is multiplied through by the level denominators it
    # involves, so it is checked on polynomial vectors
    s = _rank1(3, convention)
    t = s.table
    (n0, n1, n2, n3), (d0, d1, d2, _) = s.vectors, s.dens
    lam1 = eigenvalue(t, 1, ("c1",), convention=convention)
    s1 = lam1.exact_div(_v(t, "c1"))
    assert apply_mode(n1, 1).scale(d0) == n0.scale(s1 * d1)
    assert apply_mode(n2, 2).scale(d0) == n0.scale(-d2)
    assert apply_mode(n3, 3).is_zero()
    delta = s.ctx.eigenvalue(0)
    two = LaurentPoly.const(t, 2)
    assert apply_mode(n2, 0) == n2.scale(delta + two)
    assert verify_canonical(s).all_ok


def test_rank1_perturbations_are_caught():
    s = _rank1(3, GENERAL)
    off_level = s.vectors[1] + s.ctx.cyclic()
    assert not verify_canonical(_with_vector(s, 1, off_level)).all_ok
    # v_1 plus the basis vector b_(1): its numerator gains the denominator
    c = s.vectors[1].coeff((1,))
    in_level = _with_coeff(s, 1, (1,), c + s.dens[1])
    assert not verify_canonical(in_level).all_ok


@pytest.mark.parametrize("convention", [GENERAL, DISPLAY])
def test_rank1_pairings_take_their_closed_form(convention):
    # the relations fix {L_mu v_k} = s1^a s2^b for mu with a ones and b twos,
    # and 0 when mu has a part >= 3; read here off the solved vectors
    s = _rank1(4, convention)
    t = s.table
    c1 = _v(t, "c1")
    s1, s2 = (eigenvalue(t, n, ("c1",), convention=convention).exact_div(c1 ** n)
              for n in (1, 2))
    for k, (n_k, d) in enumerate(zip(s.vectors, s.dens)):
        for mu in partitions_of(k):
            expected = d * s1 ** mu.count(1) * s2 ** mu.count(2)
            if mu and mu[0] >= 3:
                expected = LaurentPoly.zero(t)
            assert gram_entry_on(s.ctx, mu, n_k) == expected, (k, mu)


@pytest.mark.parametrize("wrong", [(1, 1), (2,), (3,)])
def test_rank1_wrong_pairing_target_fails_a_mode_relation(monkeypatch, wrong):
    # one level-2 or level-3 target moved by one: the solve still succeeds,
    # and the re-check, which never reads the targets, rejects it
    exact = solver._pairing_target

    def target(mu, s1, s2):
        value = exact(mu, s1, s2)
        return value + 1 if mu == wrong else value

    monkeypatch.setattr(solver, "_pairing_target", target)
    failed = {c.relation for c in verify_canonical(rank1_series(3)).failures()}
    assert failed
    assert all(name.startswith("mode ") for name in failed)


def _bump_lead(poly: LaurentPoly) -> LaurentPoly:
    """``poly`` with its leading coefficient moved by one, never to zero."""
    exps, coeff = poly.leading()
    return poly + LaurentPoly(poly.table, {exps: -1 if coeff == -1 else 1})


def _with_coeff(series: IrregularSeries, k: int, lam: tuple[int, ...],
                coeff: LaurentPoly) -> IrregularSeries:
    vec = series.vectors[k]
    return _with_vector(series, k, ModuleVector(vec.ctx, {**vec.parts, lam: coeff}))


def _with_level(series: IrregularSeries, k: int, vec: ModuleVector,
                den: LaurentPoly) -> IrregularSeries:
    dens = list(series.dens)
    dens[k] = den
    return _replaced(_with_vector(series, k, vec), dens=dens)


@pytest.mark.parametrize("convention", [GENERAL, DISPLAY])
def test_rank1_check_accepts_mixed_denominators(convention):
    # v_0 and v_2 rewritten as (N f, D f), v_1 and v_3 left reduced: every
    # value, and so every relation, is unchanged, though the levels no longer
    # carry their reduced denominators alike
    s = clean = _rank1(3, convention)
    f = _v(s.table, "Q") + _v(s.table, "c0", 2) + 1
    for k in (0, 2):
        s = _with_level(s, k, s.vectors[k].scale(f), s.dens[k] * f)
    assert s.dens[0] == f and s.dens[2] != clean.dens[2]
    report = verify_canonical(s)
    assert report.all_ok
    assert len(report.checks) == len(verify_canonical(clean).checks)


@pytest.mark.parametrize("convention", [GENERAL, DISPLAY])
@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("side", ["num", "den"])
def test_rank1_check_catches_a_changed_term(convention, k, side):
    # a numerator changed in one coefficient, or the level's one denominator
    s = _rank1(3, convention)
    if side == "num":
        lam, c = max(s.vectors[k].parts.items())
        s = _with_coeff(s, k, lam, _bump_lead(c))
    else:
        s = _with_level(s, k, s.vectors[k], _bump_lead(s.dens[k]))
    report = verify_canonical(s)
    # grading only sees the support, so a mode relation is what fails
    failed = {check.relation for check in report.failures()}
    assert failed & {"mode 1 relation", "mode 2 relation"}
    assert all(name.startswith("mode ") for name in failed)


@pytest.mark.parametrize("convention", [GENERAL, DISPLAY])
def test_rank1_check_without_nested_denominators(convention):
    # all of level 2 stored as (N_2 f, D_2 f): D_2 gains the factor f, which
    # D_3 lacks, so the re-check cannot divide D_3 by D_2 and cross-multiplies
    # L_1 v_3 = s_1 v_2 instead; it still accepts the series, and that
    # relation still catches a changed coefficient of v_3
    s = _rank1(3, convention)
    f = _v(s.table, "Q") + _v(s.table, "c0", 2) + 1
    s = _with_level(s, 2, s.vectors[2].scale(f), s.dens[2] * f)
    with pytest.raises(NotDivisible):
        s.dens[3].exact_div(s.dens[2])
    assert verify_canonical(s).all_ok
    lam, c = max(s.vectors[3].parts.items())
    report = verify_canonical(_with_coeff(s, 3, lam, _bump_lead(c)))
    (mode1,) = [check for check in report.checks if check.relation == "mode 1 relation"]
    assert not mode1.ok and mode1.detail.startswith("k=3:")


@pytest.mark.parametrize("k", [0, 2])
def test_rank1_check_fails_a_zero_denominator(k):
    # v_k = N_k / 0 is no vector: the re-check adds one failed entry that
    # names the order instead of dividing a higher level's D by it
    s = _rank1(3, GENERAL)
    s = _with_level(s, k, ModuleVector(s.ctx, {}), LaurentPoly.zero(s.table))
    report = verify_canonical(s)
    assert [(c.relation, c.window, c.ok) for c in report.checks] == [
        ("denominator", f"k = {k}", False)]


@pytest.mark.parametrize("convention", [GENERAL, DISPLAY])
def test_rank1_check_catches_a_changed_normalization(convention):
    s = _rank1(3, convention)
    two = LaurentPoly.const(s.table, 2)
    report = verify_canonical(_with_vector(s, 0, s.ctx.cyclic(two)))
    assert "normalization" in {check.relation for check in report.failures()}


def test_rank1_rejects_bad_contexts_and_eigenvalues():
    t = VarTable(("Q", "c0", "c1"), (0, 0, 1))
    delta = conformal_weight(t, "c0")
    cv = default_central_charge(t)
    vctx = verma_context(t, delta, cv)
    c1 = _v(t, "c1")
    lam2 = _v(t, "c1", 2, -1)
    with pytest.raises(ValueError):
        solve_rank1(vctx, _v(t, "c0"), lam2, 1)
    with pytest.raises(ValueError):
        solve_rank1(vctx, c1, _v(t, "c1", 3), 1)
    higher = ModuleContext(t, 1, {1: c1, 2: lam2}, cv)
    with pytest.raises(ValueError):
        solve_rank1(higher, c1, lam2, 0)


def test_rank1_zero_weight_is_singular():
    t = VarTable(("Q", "c0", "c1"), (0, 0, 1))
    vctx = verma_context(t, 0, default_central_charge(t))
    lam1 = eigenvalue(t, 1, ("c1",))
    lam2 = eigenvalue(t, 2, ("c1",))
    with pytest.raises(SingularShapovalov):
        solve_rank1(vctx, lam1, lam2, 1)


# ----- the r = 2 tower closes over the concrete rank-one series -----------------


def _bump(store: dict[int, ModuleVector], order: int, vec: ModuleVector) -> None:
    if order in store:
        store[order] = store[order] + vec
    else:
        store[order] = vec


class _WindowedTail:
    """Vector-valued Laurent series in c1, exact through a tracked order."""

    def __init__(self, parts: dict[int, ModuleVector], hi: int):
        self.parts = {j: v for j, v in parts.items() if j <= hi and not v.is_zero()}
        self.hi = hi

    def __add__(self, other: "_WindowedTail") -> "_WindowedTail":
        out = dict(self.parts)
        for j, v in other.parts.items():
            _bump(out, j, v)
        return _WindowedTail(out, min(self.hi, other.hi))

    def __sub__(self, other: "_WindowedTail") -> "_WindowedTail":
        return self + other.scale(-1, 0)

    def scale(self, coeff, shift: int) -> "_WindowedTail":
        return _WindowedTail({j + shift: v.scale(coeff) for j, v in self.parts.items()},
                             self.hi + shift)

    def mode(self, n: int) -> "_WindowedTail":
        return _WindowedTail({j: apply_mode(v, n) for j, v in self.parts.items()},
                             self.hi)

    def assert_zero(self, floor: int) -> None:
        assert self.hi >= floor
        for j in sorted(self.parts):
            assert self.parts[j].is_zero(), (j, self.parts[j])


def test_integer_r2_relations_hold_in_the_realized_rank1_module():
    depth = 4
    s2 = solve_integer(2, 2)
    s1 = rank1_series(depth, convention=GENERAL)
    t2, t1 = s2.table, s1.table
    drop_tail = {name: LaurentPoly.zero(t2) for name in s2.pending}
    align = {"c0p": _v(t2, "c0")}

    # Every relation below is linear, so rescaling the whole rank-one series
    # by one nonzero polynomial preserves the zero checks.  Clearing the
    # level denominators once keeps all the windowed arithmetic polynomial.
    dens: list[LaurentPoly] = []
    for d in s1.dens:
        if not any(d == e for e in dens):
            dens.append(d)

    def cleared(m: int) -> ModuleVector:
        out = s1.vectors[m]
        for d in dens:
            if d != s1.dens[m]:
                out = out.scale(d)
        return out

    scaled = [cleared(m) for m in range(depth + 1)]

    def realized(vec: ModuleVector) -> _WindowedTail:
        out: dict[int, ModuleVector] = {}
        hi = depth
        for lam, coeff in vec.items():
            moved = coeff.subs(drop_tail).subs(align).migrate(t1)
            acted = {}
            for m in range(depth + 1):
                w = scaled[m]
                for a in reversed(lam):
                    w = apply_mode(w, 1 - a)
                acted[m] = w
            for d, piece in moved.split_by_var("c1").items():
                hi = min(hi, depth + d)
                for m, w in acted.items():
                    _bump(out, d + m, w.scale(piece))
        return _WindowedTail(out, hi)

    q, c0 = _v(t1, "Q"), _v(t1, "c0")
    tails = [realized(vk) for vk in s2.vectors]
    zero = _WindowedTail({}, depth)
    for k, tail in enumerate(tails):
        prev = tails[k - 1] if k >= 1 else zero
        prev2 = tails[k - 2] if k >= 2 else zero
        floor = depth - 2 * k
        # L_2 acts by -c1^2 on the realized cyclic series, so the shifted
        # mode gains a two-step upward shift in the c1 grading
        (tail.mode(2) + tail.scale(1, 2) - prev.scale(q * 3 - c0, 0)).assert_zero(floor)
        (tail.mode(3) + prev.scale(2, 1)).assert_zero(floor)
        (tail.mode(4) + prev2).assert_zero(floor)
        tail.mode(5).assert_zero(floor)
        tail.mode(6).assert_zero(floor)
    assert tails[0].parts[0] == scaled[0]
    assert not tails[1].parts[-2].is_zero()
