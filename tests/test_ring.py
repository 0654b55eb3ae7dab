"""Ring axioms and edge cases for the exact-arithmetic kernel."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from virasoro_irregular.ring import (
    LaurentPoly,
    NonUnitLeadingCoefficient,
    NotDivisible,
    RationalFunction,
    RingError,
    TruncatedSeries,
    VarTable,
)

TABLE = VarTable(["Q", "c0", "c1", "c2"], [0, 1, 1, 1])


def random_poly(rng: random.Random, table: VarTable = TABLE, *, nterms: int = 4,
                emin: int = -2, emax: int = 3) -> LaurentPoly:
    p = LaurentPoly.zero(table)
    for _ in range(rng.randrange(nterms + 1)):
        exps = tuple(rng.randint(emin, emax) for _ in table.names)
        coeff = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        p = p + LaurentPoly(table, {exps: coeff})
    return p


def test_constructors_drop_zero_coefficients():
    p = LaurentPoly(TABLE, {(1, 0, 0, 0): Fraction(0), (0, 1, 0, 0): Fraction(2)})
    assert len(p.terms) == 1
    assert p == LaurentPoly.var(TABLE, "c0", coeff=2)


def test_constant_round_trip():
    p = LaurentPoly.const(TABLE, Fraction(7, 3))
    assert p.is_constant()
    assert p.as_rational() == Fraction(7, 3)
    assert LaurentPoly.zero(TABLE).as_rational() == 0
    with pytest.raises(RingError):
        LaurentPoly.var(TABLE, "Q").as_rational()


def test_ring_axioms_random():
    rng = random.Random(20240811)
    for _ in range(200):
        a = random_poly(rng)
        b = random_poly(rng)
        c = random_poly(rng)
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a - a == LaurentPoly.zero(TABLE)
        assert a * LaurentPoly.const(TABLE, 1) == a


def test_exact_div_recovers_factor():
    rng = random.Random(987)
    checked = 0
    while checked < 60:
        a = random_poly(rng)
        b = random_poly(rng)
        if b.is_zero():
            continue
        assert (a * b).exact_div(b) == a
        checked += 1


def test_exact_div_rejects_non_divisor():
    q = LaurentPoly.var(TABLE, "Q")
    c0 = LaurentPoly.var(TABLE, "c0")
    with pytest.raises(NotDivisible):
        (q + 1).exact_div(c0 + 1)
    # unit monomial denominators always divide
    m = LaurentPoly(TABLE, {(0, 2, -1, 0): Fraction(3, 2)})
    assert (q * m).exact_div(m) == q


def test_negative_powers_of_monomials():
    m = LaurentPoly(TABLE, {(0, 0, 1, 0): 2})
    inv = m ** -1
    assert m * inv == LaurentPoly.const(TABLE, 1)
    with pytest.raises(NotDivisible):
        (m + 1) ** -1


def test_derivative_product_rule():
    rng = random.Random(5)
    for _ in range(50):
        a = random_poly(rng)
        b = random_poly(rng)
        lhs = (a * b).derivative("c1")
        rhs = a.derivative("c1") * b + a * b.derivative("c1")
        assert lhs == rhs


def test_derivative_of_negative_power():
    p = LaurentPoly.var(TABLE, "c1", -3)
    d = p.derivative("c1")
    assert d == LaurentPoly.var(TABLE, "c1", -4, coeff=-3)


def test_split_and_coeff_of_power():
    c1 = LaurentPoly.var(TABLE, "c1")
    c2 = LaurentPoly.var(TABLE, "c2")
    q = LaurentPoly.var(TABLE, "Q")
    p = q * c2 ** 2 + 3 * c1 * c2 - 5
    parts = p.split_by_var("c2")
    assert set(parts) == {0, 1, 2}
    assert parts[2] == q
    assert parts[1] == 3 * c1
    assert p.coeff_of_power("c2", 0) == LaurentPoly.const(TABLE, -5)
    rebuilt = sum((parts[k] * c2 ** k for k in parts), LaurentPoly.zero(TABLE))
    assert rebuilt == p


def test_subs_is_ring_homomorphism():
    rng = random.Random(77)
    target = {"c1": random_poly(rng, nterms=3, emin=0, emax=2),
              "Q": random_poly(rng, nterms=2, emin=0, emax=2)}
    for _ in range(30):
        a = random_poly(rng, emin=0, emax=2)
        b = random_poly(rng, emin=0, emax=2)
        assert (a + b).subs(target) == a.subs(target) + b.subs(target)
        assert (a * b).subs(target) == a.subs(target) * b.subs(target)


def test_subs_returns_its_operand_when_no_assigned_variable_occurs():
    q, c1 = LaurentPoly.var(TABLE, "Q"), LaurentPoly.var(TABLE, "c1")
    p = 3 * q ** 2 * c1 ** -1 - 5
    assert p.subs({"c2": q + 1}) is p
    assert p.subs({"c0": c1, "c2": q}) is p
    zero = LaurentPoly.zero(TABLE)
    assert zero.subs({"Q": c1}) is zero
    # one occurring variable among the assigned ones gives the substituted value
    assert p.subs({"c2": q, "c1": q}) == 3 * q - 5


def test_weighted_degrees():
    # weight(Q)=0, the c_k carry weight 1 in this table
    p = LaurentPoly.var(TABLE, "Q") * LaurentPoly.var(TABLE, "c1") ** 3
    assert p.homogeneous_weight() == 3
    q = p + LaurentPoly.var(TABLE, "c0")
    assert q.homogeneous_weight() is None
    assert q.weighted_degrees() == {1, 3}
    assert LaurentPoly.zero(TABLE).homogeneous_weight() == 0


def test_migrate_between_tables():
    small = VarTable(["Q", "c0"], [0, 1])
    p = LaurentPoly.var(small, "Q") + 2 * LaurentPoly.var(small, "c0")
    big = p.migrate(TABLE)
    assert big.table == TABLE
    assert big.coeff_of_power("c0", 1) == LaurentPoly.const(TABLE, 2)
    back = big.migrate(small)
    assert back == p
    with_c1 = big + LaurentPoly.var(TABLE, "c1")
    with pytest.raises(RingError):
        with_c1.migrate(small)


def test_str_is_deterministic_graded_lex():
    c1 = LaurentPoly.var(TABLE, "c1")
    c2 = LaurentPoly.var(TABLE, "c2")
    p = c1 - c2 ** 2 + 1
    assert str(p) == "-c2^2 + c1 + 1"


def test_rational_function_reduces_exact_quotients():
    c1 = LaurentPoly.var(TABLE, "c1")
    q = LaurentPoly.var(TABLE, "Q")
    one = LaurentPoly.const(TABLE, 1)
    r = RationalFunction((q + 1) * c1, c1)
    assert (r.num, r.den) == (q + 1, one)
    s = RationalFunction(q, q + 1)
    assert (s.num, s.den) == (q, q + 1)
    # equality cross-multiplies, so an unreduced pair equals its reduction
    assert s == RationalFunction(q * c1, (q + 1) * c1)
    assert s != RationalFunction(q, q + 2)


def test_rational_function_constructor_normalises():
    # These rules fix the bytes of every rank-one report.
    c1 = LaurentPoly.var(TABLE, "c1")
    q = LaurentPoly.var(TABLE, "Q")
    one = LaurentPoly.const(TABLE, 1)
    zero = LaurentPoly.zero(TABLE)
    # an exact quotient collapses to denominator one
    exact = RationalFunction((q + 1) * (c1 + 2), (c1 + 2) * 3)
    assert (exact.num, exact.den) == ((q + 1) * Fraction(1, 3), one)
    unit = RationalFunction(q, c1 * 2)
    assert (unit.num, unit.den) == (q * c1 ** -1 * Fraction(1, 2), one)
    # a zero numerator gets denominator one
    nothing = RationalFunction(zero, q + c1)
    assert nothing.is_zero() and (nothing.num, nothing.den) == (zero, one)
    # a kept denominator has leading coefficient one
    kept = RationalFunction(q, q * 2 + c1 * 4)
    assert kept.den.leading()[1] == 1
    assert (kept.num, kept.den) == (q * Fraction(1, 2), q + c1 * 2)
    # a zero denominator is refused
    with pytest.raises(ZeroDivisionError):
        RationalFunction(q, zero)


def dense(lo: int, coeffs: list[LaurentPoly], hi: int | None) -> TruncatedSeries:
    """Series in c2 with ``coeffs[k]`` at order ``lo + k``."""
    return TruncatedSeries(LaurentPoly.zero(TABLE), "c2",
                           {lo + k: c for k, c in enumerate(coeffs)}, hi)


def test_series_from_poly_round_trip():
    t = LaurentPoly.var(TABLE, "c2")
    q = LaurentPoly.var(TABLE, "Q")
    p = q * t ** 2 + 3 * t ** -1 - 1
    s = TruncatedSeries.from_poly(p, "c2")
    assert s.window() == (-1, None)
    back = LaurentPoly.zero(TABLE)
    for k, c in s.parts.items():
        back = back + c * t ** k
    assert back == p
    assert s.coeff(2) == q
    assert s.coeff(5).is_zero()


def test_series_constructor_regrades_expansion_variable_powers():
    t = LaurentPoly.var(TABLE, "c2")
    q = LaurentPoly.var(TABLE, "Q")
    s = dense(0, [q * t + 1, q], 2)
    assert s.parts == {0: LaurentPoly.const(TABLE, 1), 1: 2 * q}
    # a power that lands above the window is dropped with it
    assert dense(0, [t], 0).window() == (1, 0)
    one = LaurentPoly.const(TABLE, 1)
    assert dense(0, [q * t ** 3, t ** -1], 1) == dense(0, [one], 1)


def test_series_window_tracking_through_products():
    q = LaurentPoly.var(TABLE, "Q")
    a = dense(0, [LaurentPoly.const(TABLE, 1), q, q * q], 2)
    b = dense(1, [LaurentPoly.const(TABLE, 2)], None)
    prod = a * b
    # b is exact with lo=1, so knowledge is limited by a.hi + b.lo = 3
    assert prod.window() == (1, 3)
    assert prod.coeff(3) == 2 * q * q
    with pytest.raises(RingError):
        prod.coeff(4)


def windowed(p: LaurentPoly, hi: int) -> TruncatedSeries:
    """``p`` as a series in c2 whose orders above ``hi`` are unknown."""
    exact = TruncatedSeries.from_poly(p, "c2")
    return dense(exact.lo, [exact.coeff(k) for k in range(exact.lo, hi + 1)], hi)


def test_series_product_matches_poly_product_on_window():
    rng = random.Random(2024)
    for _ in range(40):
        pa = random_poly(rng, emin=0, emax=3)
        pb = random_poly(rng, emin=0, emax=3)
        sa = windowed(pa, 4)
        sb = windowed(pb, 4)
        prod = sa * sb
        direct = TruncatedSeries.from_poly(pa * pb, "c2")
        top = prod.hi if prod.hi is not None else prod.known_hi
        for k in range(prod.lo, top + 1):
            assert prod.coeff(k) == direct.coeff(k)


def test_series_division_inverts_multiplication():
    q = LaurentPoly.var(TABLE, "Q")
    one = LaurentPoly.const(TABLE, 1)
    b = dense(0, [one, q, q + 1, q * q], 3)
    a = dense(0, [q + 2, one, q, 2 * q], 3)
    quot = a.divide(b)
    assert (quot * b - a).is_zero_on_window()


def test_series_division_by_unit_monomial_leading_coeff():
    c1 = LaurentPoly.var(TABLE, "c1")
    lead = 2 * c1  # unit monomial, invertible
    b = dense(1, [lead, LaurentPoly.const(TABLE, 1)], 2)
    a = dense(1, [c1 * c1, c1], 2)
    quot = a.divide(b)
    assert quot.lo == 0
    assert quot.coeff(0) == LaurentPoly.const(TABLE, Fraction(1, 2)) * c1
    bad = dense(0, [c1 + 1], 0)
    with pytest.raises(NonUnitLeadingCoefficient):
        a.divide(bad)


def test_series_addition_aligns_windows():
    q = LaurentPoly.var(TABLE, "Q")
    a = dense(0, [q, q], 1)
    b = TruncatedSeries.from_poly(LaurentPoly.var(TABLE, "c2", 3), "c2")
    s = a + b
    assert s.window() == (0, 1)  # the exact part beyond a's window is discarded
    assert s.coeff(1) == q
    exact = b + b
    assert exact.window() == (3, None)
    assert exact.coeff(3) == LaurentPoly.const(TABLE, 2)

