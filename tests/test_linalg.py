"""Exact linear algebra tests with a Leibniz-formula determinant oracle."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from virasoro_irregular.linalg import (
    InconsistentSystem,
    SingularSystem,
    adjugate,
    det_bareiss,
    inverse_exact,
    mat_vec,
    rref_solve_fraction,
)
from virasoro_irregular.ring import LaurentPoly, NotDivisible, VarTable

T = VarTable(["x", "y", "z"], [1, 1, 1])


def mat_mul(a, b) -> list[list[LaurentPoly]]:
    table = a[0][0].table
    out = []
    for row in a:
        new = []
        for j in range(len(b[0])):
            acc = LaurentPoly.zero(table)
            for k, entry in enumerate(row):
                acc = acc + entry * b[k][j]
            new.append(acc)
        out.append(new)
    return out


def rand_poly(rng: random.Random, dense: bool = False) -> LaurentPoly:
    p = LaurentPoly.zero(T)
    for _ in range(rng.randrange(1, 3) if dense else rng.randrange(3)):
        exps = tuple(rng.randint(0, 2) for _ in T.names)
        p = p + LaurentPoly.monomial(T, exps, Fraction(rng.randint(-4, 4)))
    return p


def det_leibniz(rows):
    n = len(rows)
    total = LaurentPoly.zero(T)
    for perm in itertools.permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        term = LaurentPoly.const(T, sign)
        for i in range(n):
            term = term * rows[i][perm[i]]
        total = total + term
    return total


def test_bareiss_matches_leibniz():
    rng = random.Random(1234)
    for n in (1, 2, 3, 4):
        for _ in range(12):
            rows = [[rand_poly(rng) for _ in range(n)] for _ in range(n)]
            assert det_bareiss(rows) == det_leibniz(rows)


def test_bareiss_handles_zero_pivots():
    zero = LaurentPoly.zero(T)
    x = LaurentPoly.var(T, "x")
    y = LaurentPoly.var(T, "y")
    rows = [[zero, x], [y, zero]]
    assert det_bareiss(rows) == -(x * y)
    assert det_bareiss([[zero, zero], [x, y]]).is_zero()


def test_adjugate_identity():
    rng = random.Random(99)
    zero, one = LaurentPoly.zero(T), LaurentPoly.const(T, 1)
    x, y = LaurentPoly.var(T, "x"), LaurentPoly.var(T, "y")
    # up to three rows the adjugate is taken by cofactors, from four by
    # elimination
    cases = [[[rand_poly(rng, dense=True) for _ in range(n)] for _ in range(n)]
             for n in (1, 2, 3, 4, 5) for _ in range(8)]
    cases += [
        # a zero (0, 0) entry, and a pivot that vanishes after one step:
        # the elimination swaps rows, so the adjugate takes the swap sign
        [[zero, x, y, one], [x, y, x + y, zero], [y, x * y, x, one], [one, x, zero, y]],
        [[x, x, y, one], [y, y, x, zero], [x, y, y, one], [one, zero, x, y]],
        # no pivot in the first column: singular, with a nonzero adjugate
        [[zero, x, y, one], [zero, y, x, x], [zero, x * y, y, one], [zero, one, x, y]],
    ]
    for rows in cases:
        n = len(rows)
        d = det_bareiss(rows)
        adj = adjugate(rows)
        prod = mat_mul(rows, adj)
        for i in range(n):
            for j in range(n):
                assert prod[i][j] == (d if i == j else zero)
        for cols in ([], [n - 1], list(range(0, n, 2))):
            part = adjugate(rows, cols)
            for i in range(n):
                for j in range(n):
                    assert part[i][j] == (adj[i][j] if j in cols else zero)
    # the singular case, last above, is not trivially satisfied
    assert not all(entry.is_zero() for row in adj for entry in row)


def test_inverse_exact_on_unit_determinant():
    x = LaurentPoly.var(T, "x")
    one = LaurentPoly.const(T, 1)
    zero = LaurentPoly.zero(T)
    rows = [[x, one], [zero, x]]  # det = x^2, a unit monomial
    inv = inverse_exact(rows)
    prod = mat_mul(rows, inv)
    for i in range(2):
        for j in range(2):
            assert prod[i][j] == (one if i == j else zero)
    with pytest.raises(SingularSystem):
        inverse_exact([[x, x], [x, x]])
    with pytest.raises(NotDivisible):
        inverse_exact([[x + one, zero], [zero, x]])


def test_rref_solve_fraction_zeroes_free_variables():
    a = [[Fraction(1), Fraction(1), Fraction(0)],
         [Fraction(0), Fraction(0), Fraction(1)]]
    b = [Fraction(3), Fraction(5)]
    xs, free = rref_solve_fraction(a, b)
    assert xs == [Fraction(3), Fraction(0), Fraction(5)]
    assert free == [1]
    with pytest.raises(InconsistentSystem):
        rref_solve_fraction([[Fraction(1)], [Fraction(1)]], [Fraction(0), Fraction(1)])


def test_mat_vec():
    x = LaurentPoly.var(T, "x")
    y = LaurentPoly.var(T, "y")
    one = LaurentPoly.const(T, 1)
    out = mat_vec([[x, one], [one, y]], [one, x])
    assert out[0] == 2 * x
    assert out[1] == one + x * y
