"""Differential tests: the packed-key kernel against the Fraction-and-tuple oracle.

Every operation runs on both kernels over random Laurent polynomials with
negative exponents and rational coefficients, over tables of 1 to 20
variables, and must give the same terms, the same rendering, or the same
exception type.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

import ring_oracle
from virasoro_irregular import ring
from virasoro_irregular.ring import (EXP_MAX, EXP_MIN, LaurentPoly, NotDivisible,
                                     RingError, VariableMismatch, VarTable, dot)

examples = settings(max_examples=60, deadline=None)

coefficients = st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 10**3))


@st.composite
def tables(draw) -> VarTable:
    n = draw(st.integers(1, 20))
    weights = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    return VarTable([f"x{i}" for i in range(n)], weights)


@st.composite
def term_maps(draw, table: VarTable, max_terms: int = 6, lo: int = -3, hi: int = 3):
    n = len(table)
    exps = st.lists(st.integers(lo, hi), min_size=n, max_size=n).map(tuple)
    return draw(st.dictionaries(exps, coefficients, max_size=max_terms))


def both(table: VarTable, terms: dict) -> tuple[LaurentPoly, ring_oracle.LaurentPoly]:
    return LaurentPoly(table, terms), ring_oracle.LaurentPoly(table, terms)


def canon(value):
    """Comparable form of a result of either kernel."""
    if isinstance(value, (LaurentPoly, ring_oracle.LaurentPoly)):
        return ("poly", value.sorted_terms(), str(value))
    if isinstance(value, dict):
        return {k: canon(v) for k, v in value.items()}
    return value


def outcome(fn):
    try:
        return "ok", canon(fn())
    except (RingError, ZeroDivisionError, ValueError) as exc:
        return "raised", type(exc)


def assert_canonical(p: LaurentPoly) -> None:
    assert p.den > 0
    assert gcd(p.den, *p.terms.values()) == 1
    assert 0 not in p.terms.values()


@examples
@given(st.data())
def test_ring_operations_match_the_oracle(data):
    table = data.draw(tables())
    a, a0 = both(table, data.draw(term_maps(table)))
    b, b0 = both(table, data.draw(term_maps(table)))
    scalar = data.draw(st.one_of(st.integers(-50, 50), coefficients))
    assert canon(a) == canon(a0)
    for new, old in [(a + b, a0 + b0), (a - b, a0 - b0), (a * b, a0 * b0),
                     (-a, -a0), (a * scalar, a0 * scalar), (scalar * a, scalar * a0),
                     (a + scalar, a0 + scalar), (scalar - a, scalar - a0)]:
        assert canon(new) == canon(old)
        assert_canonical(new)
    assert (a == b) == (a0 == b0)
    assert (a == a + b - b) and (a * b == b * a)
    assert (a == scalar) == (a0 == scalar)
    power = data.draw(st.integers(-3, 3))
    assert outcome(lambda: a ** power) == outcome(lambda: a0 ** power)
    assert outcome(a.leading) == outcome(a0.leading)
    assert outcome(a.as_rational) == outcome(a0.as_rational)
    assert a.is_constant() == a0.is_constant()
    assert a.weighted_degrees() == a0.weighted_degrees()
    assert a.homogeneous_weight() == a0.homogeneous_weight()
    assert a.support_vars() == a0.support_vars()
    assert sorted(a.iter_terms()) == sorted(a0.terms.items())


@examples
@given(st.data())
def test_dot_matches_the_naive_sum_and_the_oracle(data):
    table = data.draw(tables())
    count = data.draw(st.integers(0, 5))
    pairs = [(both(table, data.draw(term_maps(table))),
              both(table, data.draw(term_maps(table)))) for _ in range(count)]
    got = dot(table, [(a, b) for (a, _), (b, _) in pairs])
    naive = sum((a * b for (a, _), (b, _) in pairs), LaurentPoly.zero(table))
    oracle = sum((a0 * b0 for (_, a0), (_, b0) in pairs),
                 ring_oracle.LaurentPoly.zero(table))
    assert canon(got) == canon(naive) == canon(oracle)
    assert_canonical(got)


def test_dot_edge_cases():
    table = VarTable(["x", "y"], [1, 1])
    x, y = LaurentPoly.var(table, "x"), LaurentPoly.var(table, "y")
    zero = LaurentPoly.zero(table)
    empty = dot(table, [])
    assert empty.is_zero() and empty.den == 1
    assert dot(table, [(zero, x), (y, zero), (zero, zero)]).is_zero()
    # two products over denominator 15 that cancel exactly
    cancelled = dot(table, [(x * Fraction(1, 3), y * Fraction(1, 5)),
                            (x * Fraction(-1, 5), y * Fraction(1, 3))])
    assert cancelled.terms == {} and cancelled.den == 1
    # products over 24 and 12: the sum x*y/12 + x*y/24 + 1/2 is reduced once
    mixed = dot(table, [(x * Fraction(1, 6), y * Fraction(1, 4)),
                        (x * Fraction(1, 4), y * Fraction(1, 3)), (x + y, zero),
                        (LaurentPoly.const(table, Fraction(3, 4)), Fraction(2, 3) + zero)])
    assert mixed == x * y * Fraction(1, 8) + Fraction(1, 2)
    assert mixed.den == 8
    assert_canonical(mixed)
    # an equal table is accepted, a different one is not
    twin = VarTable(["x", "y"], [1, 1])
    assert dot(table, [(LaurentPoly.var(twin, "x"), y)]) == x * y
    other = VarTable(["x", "z"], [1, 1])
    for pairs in ([(LaurentPoly.var(other, "x"), y)], [(x, LaurentPoly.var(other, "z"))],
                  [(x, y), (zero, LaurentPoly.zero(other))]):
        with pytest.raises(VariableMismatch):
            dot(table, pairs)
    with pytest.raises(VariableMismatch):
        dot(other, [(x, y)])


def test_dot_keeps_the_packed_range_check():
    table = VarTable(["x", "y"], [1, 1])
    x = LaurentPoly.var(table, "x")
    top = LaurentPoly(table, {(EXP_MAX, 0): 1})
    assert dot(table, [(top, x ** -1)]).degree_in("x") == (EXP_MAX - 1, EXP_MAX - 1)
    # one product leaves the range, even where the sum cancels it
    for pairs in ([(top, x)], [(x, x), (top, x)], [(top, x), (-top, x)]):
        with pytest.raises(RingError):
            dot(table, pairs)


@examples
@given(st.data())
def test_exact_division_matches_the_oracle(data):
    table = data.draw(tables())
    a, a0 = both(table, data.draw(term_maps(table)))
    b, b0 = both(table, data.draw(term_maps(table)))
    # a product always divides; a random pair almost never does
    quotient = outcome(lambda: (a * b).exact_div(b))
    assert quotient == outcome(lambda: (a0 * b0).exact_div(b0))
    if not b.is_zero():
        assert quotient == ("ok", canon(a))
    assert outcome(lambda: a.exact_div(b)) == outcome(lambda: a0.exact_div(b0))
    if not a.is_zero() and not b.is_zero():
        lead = LaurentPoly(table, {(a * b).leading()[0]: Fraction(1, 2)})
        lead0 = ring_oracle.LaurentPoly.monomial(table, (a0 * b0).leading()[0],
                                                 Fraction(1, 2))
        assert outcome(lambda: (a * b + lead).exact_div(b)) \
            == outcome(lambda: (a0 * b0 + lead0).exact_div(b0))
    scalar = data.draw(coefficients)
    assert outcome(lambda: a.exact_div(scalar)) == outcome(lambda: a0.exact_div(scalar))
    if len(a.terms) > 1 and len(b.terms) > 1:
        shifted = b * LaurentPoly.var(table, "x0", 1) + 1
        shifted0 = b0 * ring_oracle.LaurentPoly.var(table, "x0", 1) + 1
        assert outcome(lambda: (a * b).exact_div(shifted)) \
            == outcome(lambda: (a0 * b0).exact_div(shifted0))
    if not a.is_zero() and len(b.terms) > 1:
        # pairs that do not divide: a term below the lead of a*b keeps that
        # lead, which b's lead divides, and no b of two terms divides a
        # monomial; b over a*b leaves 1/a, whose leading terms need not divide
        below = (LaurentPoly(table, {(a * b).leading()[0]: 1})
                 * LaurentPoly.var(table, "x0", -1))
        below0 = (ring_oracle.LaurentPoly.monomial(table, (a0 * b0).leading()[0], 1)
                  * ring_oracle.LaurentPoly.var(table, "x0", -1))
        assert outcome(lambda: (a * b + below).exact_div(b)) \
            == outcome(lambda: (a0 * b0 + below0).exact_div(b0)) == ("raised", NotDivisible)
        if len(a.terms) > 1:
            assert outcome(lambda: b.exact_div(a * b)) \
                == outcome(lambda: b0.exact_div(a0 * b0)) == ("raised", NotDivisible)


def test_exact_division_rejects_non_integer_quotient_steps():
    table = VarTable(["x", "y"], [1, 1])
    x, y = LaurentPoly.var(table, "x"), LaurentPoly.var(table, "y")
    with pytest.raises(NotDivisible):
        (x * x + y).exact_div(2 * x + y)
    # floor division of the leading coefficient (3 // 2) would leave an
    # empty remainder here and return x + y
    with pytest.raises(NotDivisible):
        (3 * x * x + 5 * x * y + 3 * y * y).exact_div(2 * x + 3 * y)
    assert (x * x * 4 - y * y).exact_div(2 * x + y) == 2 * x - y
    assert (x * Fraction(1, 3) + y * Fraction(1, 6)).exact_div(2 * x + y) \
        == LaurentPoly.const(table, Fraction(1, 6))


def test_exact_division_refuses_leads_that_do_not_divide_before_dividing(monkeypatch):
    table = VarTable(["x", "y"], [1, 1])
    x, y = LaurentPoly.var(table, "x"), LaurentPoly.var(table, "y")

    def unreachable(*args):
        raise AssertionError("the leading-term test should have refused this pair")

    # shifted to exponents >= 0, no dividend's lead is a multiple of its divisor's
    monkeypatch.setattr(ring, "_poly_exact_div", unreachable)
    for a, b in [(x * x + y, x + y * y), (x ** -2 * y + x ** -1, x ** -1 + y),
                 (x + 1, x * x + 1)]:
        with pytest.raises(NotDivisible):
            a.exact_div(b)
    # leads that divide still reach the division, which refuses the rest
    monkeypatch.undo()
    with pytest.raises(NotDivisible):
        (x * x * y + 1).exact_div(x * y + 1)
    assert (x ** -2 * y * y - x ** -2).exact_div(x ** -1 * y + x ** -1) \
        == x ** -1 * y - x ** -1


@examples
@given(st.data())
def test_structure_operations_match_the_oracle(data):
    table = data.draw(tables())
    terms = data.draw(term_maps(table))
    a, a0 = both(table, terms)
    name = data.draw(st.sampled_from(table.names))
    power = data.draw(st.integers(-4, 4))
    assert canon(a.derivative(name)) == canon(a0.derivative(name))
    assert canon(a.coeff_of_power(name, power)) == canon(a0.coeff_of_power(name, power))
    assert canon(a.split_by_var(name)) == canon(a0.split_by_var(name))
    assert a.degree_in(name) == a0.degree_in(name)
    assert a.uses_var(name) == a0.uses_var(name)
    assert_canonical(a.derivative(name))
    for part in a.split_by_var(name).values():
        assert_canonical(part)


@examples
@given(st.data())
def test_substitution_matches_the_oracle(data):
    table = data.draw(tables())
    a, a0 = both(table, data.draw(term_maps(table)))
    names = data.draw(st.lists(st.sampled_from(table.names), unique=True, max_size=3))
    values = [both(table, data.draw(term_maps(table, max_terms=3, lo=-1, hi=2)))
              for _ in names]
    new = {name: v for name, (v, _) in zip(names, values)}
    old = {name: v0 for name, (_, v0) in zip(names, values)}
    assert outcome(lambda: a.subs(new)) == outcome(lambda: a0.subs(old))


@examples
@given(st.data())
def test_migration_matches_the_oracle(data):
    table = data.draw(tables())
    a, a0 = both(table, data.draw(term_maps(table)))
    kept = data.draw(st.lists(st.sampled_from(table.names), unique=True))
    extra = [f"y{i}" for i in range(data.draw(st.integers(0, 3)))]
    names = data.draw(st.permutations(kept + extra))
    target = VarTable(names, [len(name) for name in names])
    assert outcome(lambda: a.migrate(target)) == outcome(lambda: a0.migrate(target))


@examples
@given(st.data())
def test_packed_key_order_is_graded_lex(data):
    table = data.draw(tables())
    n = len(table)
    vectors = st.lists(st.integers(-50, 50), min_size=n, max_size=n).map(tuple)
    u, v = data.draw(vectors), data.draw(vectors)
    assert table.unpack(table.pack(u)) == u
    assert (table.pack(u) < table.pack(v)) == ((sum(u), u) < (sum(v), v))


@examples
@given(st.data())
def test_term_records_are_the_sorted_terms_in_integers(data):
    table = data.draw(tables())
    p = LaurentPoly(table, data.draw(term_maps(table)))
    assert p.term_records() == [(list(e), c.numerator, c.denominator)
                                for e, c in p.sorted_terms()]


def test_term_records_reduce_each_coefficient():
    table = VarTable(["x", "y"], [0, 1])
    p = LaurentPoly(table, {(1, -2): Fraction(-3, 4), (0, 0): Fraction(5, 6),
                            (2, 0): Fraction(-1), (0, 1): Fraction(1, 2)})
    assert p.den == 12
    assert p.term_records() == [([2, 0], -1, 1), ([0, 1], 1, 2), ([0, 0], 5, 6),
                                ([1, -2], -3, 4)]
    assert LaurentPoly.zero(table).term_records() == []


def test_exponents_beyond_the_field_raise_instead_of_wrapping():
    table = VarTable(["x", "y"], [1, 1])
    top = LaurentPoly(table, {(EXP_MAX, 0): 1})
    bottom = LaurentPoly(table, {(0, EXP_MIN): 1})
    x, y = LaurentPoly.var(table, "x"), LaurentPoly.var(table, "y")
    with pytest.raises(RingError):
        LaurentPoly(table, {(EXP_MAX + 1, 0): 1})
    with pytest.raises(RingError):
        LaurentPoly(table, {(EXP_MAX, 1): 1})   # total degree overflows
    for make in (lambda: top * x, lambda: bottom * (y ** -1), lambda: bottom ** -1,
                 lambda: bottom.derivative("y"), lambda: (top + 1) * (x + 1),
                 lambda: top.exact_div(y ** -1), lambda: top.subs({"x": x * x})):
        with pytest.raises(RingError):
            make()
    # only the total degree leaves its field, by more than a field width
    wide = VarTable([f"v{i}" for i in range(8)], [1] * 8)
    split = LaurentPoly(wide, {(-30000,) * 4 + (30000,) * 4: 1})
    with pytest.raises(RingError):
        split.subs({f"v{i}": LaurentPoly.const(wide, 2) for i in range(4)})
    # within the range nothing is lost
    assert (top * (x ** -1)).degree_in("x") == (EXP_MAX - 1, EXP_MAX - 1)
    assert (bottom * y).leading() == ((0, EXP_MIN + 1), Fraction(1))
