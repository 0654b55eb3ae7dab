"""Lower-mode obstruction scalars, their potential, and the odd completion."""

from __future__ import annotations

import copy
import random
from fractions import Fraction
from functools import lru_cache

import pytest

from gauge_residual import mode_residual
from virasoro_irregular.frames import Family, apply_field, conformal_weight
from virasoro_irregular.gauge import (
    ExpansionVariableLeak,
    GaugeError,
    Infeasible,
    NotClosed,
    NotParallel,
    ObstructionSet,
    PotentialDecomposition,
    ScalarCompletion,
    WeightZeroObstruction,
    apply_gauge_and_verify,
    completion_residuals,
    derive_series,
    frobenius_verify,
    integrate_potential,
    lstar_certificate,
    obstructions,
    scalar_completion_half,
)
from virasoro_irregular.ring import LaurentPoly, TruncatedSeries, VarTable
from virasoro_irregular.solver import (
    HALF,
    INTEGER,
    IrregularSeries,
    ResidualNonZero,
    rank1_series,
    solve_half,
    solve_integer,
)
from virasoro_irregular.virasoro import ModuleVector, verma_context


@lru_cache(maxsize=None)
def _integer(r: int, order: int) -> IrregularSeries:
    return solve_integer(r, order)


@lru_cache(maxsize=None)
def _half(r: int, order: int) -> IrregularSeries:
    return solve_half(r, order)


@lru_cache(maxsize=None)
def _completion(r: int) -> ScalarCompletion:
    return scalar_completion_half(r, 1 if r == 2 else 2)


@lru_cache(maxsize=None)
def _obstructions(kind: str, r: int, order: int) -> ObstructionSet:
    if kind == INTEGER:
        return obstructions(_integer(r, order))
    return obstructions(_half(r, order), _completion(r))


def _v(table: VarTable, name: str, power: int = 1, coeff=1) -> LaurentPoly:
    return LaurentPoly.var(table, name, power, coeff)


CASES = [
    (INTEGER, 2, 3),
    (INTEGER, 2, 4),
    (INTEGER, 3, 4),
    (HALF, 2, 3),
    (HALF, 2, 4),
    (HALF, 3, 4),
]


# ----- residuals of the annihilating window -----------------------------------


@pytest.mark.parametrize("kind,r,order", CASES)
def test_mode_residuals_at_and_above_the_window_vanish(kind, r, order):
    series = _integer(r, order) if kind == INTEGER else _half(r, order)
    completion = None if kind == INTEGER else _completion(r)
    for n in range(r, 2 * r + 2):
        res = mode_residual(series, n, completion)
        assert res.is_zero_on_window()


@pytest.mark.parametrize("kind,r,order", CASES)
def test_obstruction_principal_parts_are_bounded(kind, r, order):
    obs = _obstructions(kind, r, order)
    assert len(obs.a) == r
    for a in obs.a:
        assert a.lo >= -(r - 1)


@pytest.mark.parametrize("kind,r,order", CASES)
def test_frobenius_bracket_closes(kind, r, order):
    report = frobenius_verify(_obstructions(kind, r, order))
    assert report.all_ok
    assert len(report.checks) == r * (r - 1) // 2


@pytest.mark.parametrize("kind,r,order", CASES)
def test_top_frame_row_certificate_vanishes(kind, r, order):
    cert = lstar_certificate(_obstructions(kind, r, order))
    assert cert.is_zero_on_window()
    if r == 2:
        # the window genuinely covers the orders where content could appear
        assert cert.hi >= 0


# ----- frozen obstruction values at r = 2 --------------------------------------


def test_integer_r2_obstruction_values():
    obs = _obstructions(INTEGER, 2, 4)
    t = obs.table
    q, c0, c0p = _v(t, "Q"), _v(t, "c0"), _v(t, "c0p")
    weight_shift = (q * c0 - q * c0p * Fraction(1, 2)
                    - c0 * c0p * Fraction(1, 2) - c0p * c0p * Fraction(1, 4))
    a0, a1 = obs.a
    assert a0.coeff(0) == weight_shift
    assert all(a0.coeff(m).is_zero() for m in range(1, a0.hi + 1))
    assert a1.coeff(0).is_zero()
    assert a1.coeff(1) == weight_shift * _v(t, "c1", -1)
    assert all(a1.coeff(m).is_zero() for m in range(2, a1.hi + 1))


def test_half_r2_obstruction_values():
    series = _half(2, 4)
    obs = _obstructions(HALF, 2, 4)
    t = obs.table
    # with a trivial scalar completion the weight obstruction is the
    # conformal weight minus the exponent contribution of the weight field
    shift = conformal_weight(t, "c0") - 3 * series.nu
    a0, a1 = obs.a
    assert a0.coeff(0) == shift
    assert all(a0.coeff(m).is_zero() for m in range(1, a0.hi + 1))
    assert a1.coeff(1) == shift * _v(t, "c1", -2, Fraction(-1, 2))
    assert all(a1.coeff(m).is_zero() for m in range(2, a1.hi + 1))


# ----- input validation ---------------------------------------------------------


def test_obstructions_reject_wrong_inputs():
    with pytest.raises(ValueError):
        obstructions(rank1_series(3))
    with pytest.raises(ValueError):
        obstructions(solve_integer(2, 0))
    with pytest.raises(ValueError):
        obstructions(_half(2, 3))
    with pytest.raises(ValueError):
        obstructions(_integer(2, 3), _completion(2))
    with pytest.raises(ValueError):
        obstructions(_half(2, 3), _completion(3))
    with pytest.raises(ValueError):
        mode_residual(_integer(2, 3), -1)


def test_tampered_tail_vector_fails_proportionality():
    series = _integer(2, 3)
    vectors = list(series.vectors)
    vectors[1] = vectors[1] + series.ctx.basis((1,))
    tampered = copy.copy(series)
    tampered.vectors = vectors
    with pytest.raises(NotParallel):
        obstructions(tampered)


# ----- derivative and products in the grading ----------------------------------


_TABLE = VarTable(["Q", "c0", "c1", "c2"], [0, 0, 1, 2])
_CTX = verma_context(_TABLE, _v(_TABLE, "c0"), _v(_TABLE, "Q"))
_LAMS = [(), (1,), (2,), (1, 1)]


def _random_poly(rng: random.Random, nterms: int) -> LaurentPoly:
    poly = LaurentPoly.zero(_TABLE)
    for _ in range(nterms):
        poly = poly + (_v(_TABLE, "c1", rng.randrange(-3, 4))
                       * _v(_TABLE, "c2", rng.randrange(-2, 4))
                       * rng.randrange(-4, 5))
    return poly


def _random_vector_series(rng: random.Random, hi: int | None) -> TruncatedSeries:
    """Module-vector series whose coefficients carry powers of c2."""
    vec = ModuleVector(_CTX, {lam: _random_poly(rng, rng.randrange(0, 4))
                              for lam in _LAMS})
    return TruncatedSeries(ModuleVector(_CTX), "c2", {0: vec}, hi)


def _at(lam):
    return lambda vec: vec.coeff(lam)


def test_derive_series_matches_the_direct_derivative():
    fields = Family(INTEGER, 2).fields(_TABLE)
    rng = random.Random(20240612)
    for field in fields:
        for _ in range(10):
            poly = _random_poly(rng, rng.randrange(1, 5))
            series = TruncatedSeries.from_poly(poly, "c2")
            direct = TruncatedSeries.from_poly(apply_field(field, poly), "c2")
            assert derive_series(field, series) == direct
        # vector coefficients, exact and windowed: partition by partition
        for hi in (None, 2, -1):
            for _ in range(5):
                series = _random_vector_series(rng, hi)
                derived = derive_series(field, series)
                for lam in _LAMS:
                    scalar = derive_series(field, series.map(_at(lam)))
                    assert derived.map(_at(lam)) == scalar


def test_vector_times_scalar_series_is_the_scalar_product_per_partition():
    rng = random.Random(20261020)
    for _ in range(20):
        vec = _random_vector_series(rng, rng.choice([None, 3]))
        poly = (_v(_TABLE, "c2", rng.randrange(-1, 2), rng.randrange(1, 4))
                + _v(_TABLE, "c1") * _v(_TABLE, "c2", rng.randrange(0, 3)))
        scalar = TruncatedSeries(LaurentPoly.zero(_TABLE), "c2", {0: poly},
                                 rng.randrange(0, 3))
        prod = vec * scalar
        assert prod == scalar * vec and isinstance(prod.zero, ModuleVector)
        per_lam = [vec.map(_at(lam)) * scalar for lam in _LAMS]
        # the vector window is the narrowest of the per-partition windows
        assert prod.hi == min((p.hi for p in per_lam if p.hi is not None),
                              default=None)
        for lam, p in zip(_LAMS, per_lam):
            assert prod.map(_at(lam)).parts == {m: c for m, c in p.parts.items()
                                                if prod.hi is None or m <= prod.hi}


def test_an_all_zero_window_is_a_zero_series_of_either_coefficient_type():
    # an all-zero vector series once reported lo = 0, so its constant-term
    # series could not be built for a window ending below order -1
    scalar = TruncatedSeries(LaurentPoly.zero(_TABLE), "c2", {}, -3)
    vector = TruncatedSeries(ModuleVector(_CTX), "c2", {}, -3)
    cyclic = vector.map(ModuleVector.constant_term)
    for s in (scalar, vector, cyclic, vector - vector):
        assert s.window() == (-2, -3) and s.is_zero_on_window()
    assert isinstance(cyclic.zero, LaurentPoly)


# ----- potential integration -----------------------------------------------------


def _fabricated(a_polys, r=2, lam=False) -> ObstructionSet:
    cnames = tuple(f"c{k}" for k in range(1, r))
    if lam:
        var = "Lam"
        names = ("Q", "c0", "nuhat") + cnames + (var,)
        weights = (0, 0, 0) + tuple(range(1, r)) + (2 * r - 1,)
        kind = HALF
    else:
        var = f"c{r}"
        names = ("Q", "c0", "c0p", "nuhat") + cnames + (var,)
        weights = (0, 0, 0, 0) + tuple(range(1, r + 1))
        kind = INTEGER
    table = VarTable(names, weights)
    # exact (untruncated) ratios: no window is short, so the order is never read
    a = tuple(TruncatedSeries.from_poly(p(table), var) for p in a_polys)
    return ObstructionSet(family=Family(kind, r), table=table, a=a, order=0)


def test_integrate_recovers_a_known_potential():
    # potential nuhat*log(c1) + c1**2 pushed forward through the frame
    obs = _fabricated([
        lambda t: _v(t, "nuhat") + _v(t, "c1", 2, 2),
        lambda t: _v(t, "c2") * (_v(t, "nuhat") * _v(t, "c1", -1)
                                 + _v(t, "c1", 1, 2)),
    ])
    decomp = integrate_potential(obs)
    assert decomp.g0 == _v(obs.table, "c1", 2)
    assert decomp.nu == {1: _v(obs.table, "nuhat")}
    assert decomp.passives == ("c0p", "c0")


def test_integrate_zero_obstructions_gives_a_trivial_potential():
    obs = _fabricated([lambda t: LaurentPoly.zero(t)] * 2)
    decomp = integrate_potential(obs)
    assert decomp.g0.is_zero()
    assert decomp.nu == {}


def test_integrate_detects_a_weight_zero_mode():
    obs = _fabricated([lambda t: LaurentPoly.const(t, 2),
                       lambda t: LaurentPoly.zero(t)])
    with pytest.raises(WeightZeroObstruction):
        integrate_potential(obs)


def test_integrate_detects_expansion_variable_leaks():
    # the expansion-direction component picks up a genuine order-zero term
    top_leak = _fabricated([lambda t: _v(t, "c2", 1, 2),
                            lambda t: LaurentPoly.zero(t)])
    with pytest.raises(ExpansionVariableLeak):
        integrate_potential(top_leak)
    # the c1 component retains one power of the expansion variable
    side_leak = _fabricated([lambda t: _v(t, "c1") * _v(t, "c2"),
                             lambda t: _v(t, "c2", 2)])
    with pytest.raises(ExpansionVariableLeak):
        integrate_potential(side_leak)


def test_integrate_detects_unclosed_forms():
    obs = _fabricated([
        lambda t: _v(t, "c1") * _v(t, "c2"),
        lambda t: _v(t, "c2", 2),
        lambda t: _v(t, "c2") * _v(t, "c3"),
    ], r=3)
    with pytest.raises(NotClosed):
        integrate_potential(obs)


def test_integrate_requires_a_wide_enough_window():
    obs = _obstructions(INTEGER, 2, 4)
    narrow = copy.copy(obs)
    narrow.a = tuple(TruncatedSeries(LaurentPoly.zero(obs.table), obs.family.var, {}, -1)
                     for _ in obs.a)
    with pytest.raises(GaugeError):
        integrate_potential(narrow)


# ----- the gauged series ---------------------------------------------------------


def test_integer_r2_pipeline_gauges_all_lower_modes():
    obs = _obstructions(INTEGER, 2, 4)
    decomp = integrate_potential(obs)
    t = obs.table
    q, c0, c0p = _v(t, "Q"), _v(t, "c0"), _v(t, "c0p")
    assert decomp.g0.is_zero()
    assert decomp.nu == {1: q * c0 - q * c0p * Fraction(1, 2)
                         - c0 * c0p * Fraction(1, 2)
                         - c0p * c0p * Fraction(1, 4)}
    report = apply_gauge_and_verify(obs, decomp)
    assert report.all_ok
    assert [c.relation for c in report.checks] == [
        "gauged mode 0 residual", "gauged mode 1 residual"]


def test_half_r2_pipeline_gauges_all_lower_modes():
    completion = _completion(2)
    obs = _obstructions(HALF, 2, 4)
    decomp = integrate_potential(obs)
    t = obs.table
    q, c0 = _v(t, "Q"), _v(t, "c0")
    assert decomp.g0.is_zero()
    assert decomp.nu == {1: q * q * 3 - q * c0 * 2 - c0 * c0 * Fraction(1, 4)}
    assert decomp.passives == ("c0",)
    # the potential is exact data, so it also gauges the shorter series
    report = apply_gauge_and_verify(obstructions(_half(2, 3), completion), decomp)
    assert report.all_ok


def test_gauge_perturbations_are_caught():
    obs = _obstructions(INTEGER, 2, 4)
    decomp = integrate_potential(obs)
    one = LaurentPoly.const(obs.table, 1)
    rng = random.Random(20240613)
    for _ in range(5):
        if rng.random() < 0.5:
            bad = PotentialDecomposition(
                g0=decomp.g0 + _v(obs.table, "c1", rng.randrange(-2, 3)),
                nu=decomp.nu, passives=decomp.passives)
        else:
            bad = PotentialDecomposition(
                g0=decomp.g0,
                nu={1: decomp.nu[1] + rng.randrange(1, 4) * one},
                passives=decomp.passives)
        with pytest.raises(ResidualNonZero):
            apply_gauge_and_verify(obs, bad)


# ----- scalar completion of the odd family ---------------------------------------


def test_completion_r2_is_trivial():
    completion = scalar_completion_half(2)
    assert all(s.is_zero() for s in completion.sigma)
    assert completion_residuals(completion).all_ok


def test_completion_r3_requires_the_second_bound():
    with pytest.raises(Infeasible):
        scalar_completion_half(3, 1)
    completion = scalar_completion_half(3, 2)
    t = completion.table
    assert completion.sigma[0].is_zero()
    assert completion.sigma[1] == (
        _v(t, "c1") * _v(t, "c2", 5) * _v(t, "Lam", -2, Fraction(-8, 15))
        + _v(t, "c1", 2) * _v(t, "c2", 2) * _v(t, "Lam", -1, Fraction(-6, 5)))
    assert completion.sigma[2] == (
        _v(t, "c1") * _v(t, "c2", 3) * _v(t, "Lam", -1, Fraction(4, 15)))
    report = completion_residuals(completion)
    assert report.all_ok
    # the bracket of the two nontrivial fields lands on the fixed quadratic
    fields = Family(HALF, 3).fields(t)
    lhs = (apply_field(fields[1], completion.sigma[2])
           - apply_field(fields[2], completion.sigma[1]))
    assert lhs == Family(HALF, 3).mode_scalars(t)[3]


def test_completion_gauge_row_rules_out_the_short_solution():
    # this tuple satisfies every bracket relation but not the frame-row
    # constraint, so the solver must search beyond the first bound
    cnames = ("c1", "c2")
    table = VarTable(("Q", "c0") + cnames + ("Lam",), (0, 0, 1, 2, 5))
    sigma = (LaurentPoly.zero(table),
             _v(table, "c1", 3, 2) * _v(table, "c2", -1),
             _v(table, "c1", 2, -1))
    candidate = ScalarCompletion(family=Family(HALF, 3), table=table, sigma=sigma, bound=1)
    report = completion_residuals(candidate)
    assert not report.all_ok
    failures = [c.relation for c in report.checks if not c.ok]
    assert failures == ["top frame row annihilates the scalars"]


def test_completion_search_returns_the_smallest_bound_that_works():
    # bound 3 is an upper limit: the search stops at the first bound whose
    # candidate passes the re-check
    completion = scalar_completion_half(3, 3)
    assert completion.bound == 2
    assert completion.sigma == scalar_completion_half(3, 2).sigma
    with pytest.raises(Infeasible, match="within bound 1$"):
        scalar_completion_half(3, 1)


def test_completion_r4_is_infeasible_below_the_third_bound():
    # rank 7/2: the bracket system at bound 1 is 1,023 x 267 with 0.7%
    # nonzeros, so a dense elimination of it does not finish
    for bound in (1, 2):
        with pytest.raises(Infeasible):
            scalar_completion_half(4, bound)
    completion = scalar_completion_half(4, 3)
    assert completion.bound == 3
    assert completion.sigma[0].is_zero()
    assert not any(completion.sigma[n].is_zero() for n in (1, 2, 3))
    report = completion_residuals(completion)
    assert report.all_ok
    assert len(report.checks) == 6 + 1 + 4


def test_completion_rejects_bad_arguments():
    with pytest.raises(ValueError):
        scalar_completion_half(1)
    with pytest.raises(ValueError):
        scalar_completion_half(2, 0)
