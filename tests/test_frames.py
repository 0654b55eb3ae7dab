"""Frame matrices, their inverses, and the dual operator combinations."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from virasoro_irregular.frames import (
    DISPLAY,
    GENERAL,
    HALF,
    INTEGER,
    Family,
    apply_field,
    conformal_weight,
    default_central_charge,
    eigenvalue,
)
from virasoro_irregular.linalg import det_bareiss, inverse_exact
from virasoro_irregular.ring import LaurentPoly, VarTable


def poly_table(r: int) -> tuple[VarTable, list[str]]:
    cnames = [f"c{k}" for k in range(1, r + 1)]
    table = VarTable(["Q", "c0"] + cnames, [0, 0] + list(range(1, r + 1)))
    return table, cnames


def odd_table(r: int) -> tuple[VarTable, list[str], str]:
    cnames = [f"c{k}" for k in range(1, r)]
    table = VarTable(["Q", "c0"] + cnames + ["Lam"],
                     [0, 0] + list(range(1, r)) + [2 * r - 1])
    return table, cnames, "Lam"


def series_inverse_coeffs(table: VarTable, r: int, cnames: list[str],
                          count: int) -> list[LaurentPoly]:
    """Taylor coefficients of ``1 / (c_r + c_{r-1} z + ... + c_1 z^{r-1})``."""
    def cvar(j: int) -> LaurentPoly:
        if 1 <= j <= len(cnames):
            return LaurentPoly.var(table, cnames[j - 1])
        return LaurentPoly.zero(table)

    top_inv = cvar(r) ** -1
    coeffs = [top_inv]
    for p in range(1, count):
        acc = LaurentPoly.zero(table)
        for m in range(max(0, p - r + 1), p):
            acc = acc + coeffs[m] * cvar(r - p + m)
        coeffs.append(-(acc * top_inv))
    return coeffs


# ----- scalar tables ----------------------------------------------------------


def test_central_charge_and_weight():
    table, _ = poly_table(2)
    q = LaurentPoly.var(table, "Q")
    c0 = LaurentPoly.var(table, "c0")
    assert default_central_charge(table) == 1 + 6 * q ** 2
    assert conformal_weight(table, "c0") == c0 * (q - c0)


def test_eigenvalues_are_quasi_homogeneous():
    for r in range(1, 7):
        table, cnames = poly_table(r)
        for n in range(1, 2 * r + 1):
            ev = eigenvalue(table, n, cnames)
            assert ev.homogeneous_weight() == n


def test_eigenvalue_window_boundary_values():
    for r in (1, 2, 3, 4):
        table, cnames = poly_table(r)
        window = Family(INTEGER, r).mode_scalars(table)
        top = LaurentPoly.var(table, cnames[r - 1])
        assert window[2 * r] == -(top * top)
        q = LaurentPoly.var(table, "Q")
        c0 = LaurentPoly.var(table, "c0")
        assert window[r].coeff_of_power(cnames[r - 1], 1) == (r + 1) * q - c0


def test_display_convention_changes_linear_term_only():
    table, cnames = poly_table(3)
    c0 = LaurentPoly.var(table, "c0")
    for n in (1, 2, 3):
        gen = eigenvalue(table, n, cnames, convention=GENERAL)
        dis = eigenvalue(table, n, cnames, convention=DISPLAY)
        cn = LaurentPoly.var(table, cnames[n - 1])
        assert gen - dis == c0 * cn
    with pytest.raises(ValueError):
        eigenvalue(table, 1, cnames, convention="bogus")


def test_lower_scalars_free_of_top_parameter():
    for r in (2, 3, 4):
        table, cnames = poly_table(r)
        scalars = Family(INTEGER, r).mode_scalars(table)
        assert sorted(scalars) == list(range(2 * r + 1))
        for n in range(1, r):
            assert not scalars[n].uses_var(cnames[r - 1])


# ----- polynomial-family frame ---------------------------------------------------


def test_frame_determinant_closed_form():
    for r in range(2, 7):
        table, cnames = poly_table(r)
        m = Family(INTEGER, r).frame_matrix(table)
        assert det_bareiss(m) == Family(INTEGER, r).expected_det(table)


def test_inverse_last_row_matches_series_coefficients():
    for r in range(2, 7):
        table, cnames = poly_table(r)
        inv = inverse_exact(Family(INTEGER, r).frame_matrix(table))
        coeffs = series_inverse_coeffs(table, r, cnames, r)
        for k in range(r):
            assert inv[r - 1][k] == coeffs[k] * Fraction(1, r)


def test_series_coefficients_invert_the_generating_polynomial():
    for r in (2, 3, 4, 5):
        table, cnames = poly_table(r)
        count = 2 * r + 1
        coeffs = series_inverse_coeffs(table, r, cnames, count)
        for p in range(count):
            acc = LaurentPoly.zero(table)
            for m in range(max(0, p - r + 1), p + 1):
                acc = acc + coeffs[m] * LaurentPoly.var(table, cnames[r - (p - m) - 1])
            expected = LaurentPoly.const(table, 1 if p == 0 else 0)
            assert acc == expected


def test_dual_operator_small_case():
    table, cnames = poly_table(2)
    op = Family(INTEGER, 2).dual_operator(table)
    c1 = LaurentPoly.var(table, "c1")
    assert op.orders[0] == {1: c1 * Fraction(-1, 2)}
    assert op.orders[1] == {0: LaurentPoly.const(table, Fraction(1, 2))}


def test_dual_operator_lowest_order_profile():
    # Only the top free mode survives at order zero, with the closed-form
    # coefficient ((-1)^(r-1) / r) c_{r-1}^{r-1}.
    for r in range(2, 6):
        table, cnames = poly_table(r)
        profile = dict(Family(INTEGER, r).dual_operator(table).orders[0])
        assert set(profile) == {r - 1}
        sign = 1 if (r - 1) % 2 == 0 else -1
        expected = LaurentPoly.var(table, cnames[r - 2], r - 1) * Fraction(sign, r)
        assert profile[r - 1] == expected


def test_dual_row_reproduces_top_parameter_derivative():
    rng = random.Random(314)
    for r in (2, 3, 4):
        table, cnames = poly_table(r)
        fields = Family(INTEGER, r).fields(table)
        inv = inverse_exact(Family(INTEGER, r).frame_matrix(table))
        for _ in range(10):
            f = LaurentPoly.zero(table)
            for _ in range(4):
                exps = tuple(rng.randint(0, 2) for _ in table.names)
                f = f + LaurentPoly(table, {exps: rng.randint(-3, 3)})
            acc = LaurentPoly.zero(table)
            for n in range(r):
                acc = acc + inv[r - 1][n] * apply_field(fields[n], f)
            assert acc == f.derivative(cnames[r - 1])


# ----- odd-family frame -------------------------------------------------------------


def test_quadratic_scalars_values():
    table, cnames, lam = odd_table(3)
    c1 = LaurentPoly.var(table, "c1")
    c2 = LaurentPoly.var(table, "c2")
    scal = Family(HALF, 3).mode_scalars(table)
    assert set(scal) == {3, 4, 5}
    assert scal[3] == -2 * c1 * c2
    assert scal[4] == -(c2 * c2)
    assert scal[5] == LaurentPoly.var(table, lam)


def test_odd_fields_satisfy_defining_action():
    for r in (2, 3, 4, 5):
        table, cnames, lam = odd_table(r)
        scal = Family(HALF, r).mode_scalars(table)
        fields = Family(HALF, r).fields(table)
        zero = LaurentPoly.zero(table)
        for n in range(r):
            for m in range(r, 2 * r):
                got = apply_field(fields[n], scal[m])
                want = (m - n) * scal.get(m + n, zero)
                assert got == want, (r, n, m)


def test_odd_fields_support_profile():
    for r in (3, 4, 5):
        table, cnames, lam = odd_table(r)
        fields = Family(HALF, r).fields(table)
        cbot = LaurentPoly.var(table, cnames[r - 2])
        lam_poly = LaurentPoly.var(table, lam)
        for n in range(1, r):
            assert lam not in fields[n]
            for k in range(1, r):
                comp = fields[n].get(cnames[k - 1], LaurentPoly.zero(table))
                if n + k > r:
                    assert comp.is_zero(), (r, n, k)
            edge = fields[n].get(cnames[r - n - 1])
            expected = (lam_poly * Fraction(-(2 * r - 2 * n - 1), 2)).exact_div(cbot)
            assert edge == expected, (r, n)


def test_odd_field_brackets():
    for r in (2, 3, 4):
        table, cnames, lam = odd_table(r)
        fields = Family(HALF, r).fields(table)
        coords = list(cnames) + [lam]
        zero = LaurentPoly.zero(table)

        def bracket(x, y):
            out = {}
            for name in coords:
                term = LaurentPoly.zero(table)
                for v, c in x.items():
                    term = term + c * y.get(name, zero).derivative(v)
                for v, c in y.items():
                    term = term - c * x.get(name, zero).derivative(v)
                out[name] = term
            return out

        for a in range(r):
            for b in range(r):
                got = bracket(fields[a], fields[b])
                for name in coords:
                    if a + b < r:
                        want = (b - a) * fields[a + b].get(name, zero)
                    else:
                        want = zero
                    assert got[name] == want, (r, a, b, name)


def test_odd_frame_determinant_closed_form():
    for r in (2, 3, 4, 5):
        table, cnames, lam = odd_table(r)
        m = Family(HALF, r).frame_matrix(table)
        assert det_bareiss(m) == Family(HALF, r).expected_det(table)


def test_odd_dual_operator_small_case():
    table, cnames, lam = odd_table(2)
    op = Family(HALF, 2).dual_operator(table)
    c1 = LaurentPoly.var(table, "c1")
    assert op.orders[0] == {1: c1 * c1 * Fraction(2, 3)}
    assert op.orders[1] == {0: LaurentPoly.const(table, Fraction(1, 3))}


def test_odd_dual_lowest_order_profile():
    # Only the top free mode survives at order zero, proportional to
    # c_{r-1}^(2r-2); the ratio is recorded for r = 2 and 3.
    ratios = {}
    for r in (2, 3, 4):
        table, cnames, lam = odd_table(r)
        profile = dict(Family(HALF, r).dual_operator(table).orders[0])
        assert set(profile) == {r - 1}
        base = LaurentPoly.var(table, cnames[r - 2], 2 * r - 2)
        ratios[r] = profile[r - 1].exact_div(base).as_rational()
    assert ratios[2] == Fraction(2, 3)
    assert ratios[3] == Fraction(8, 15)
    assert ratios[4] != 0


def test_odd_dual_row_reproduces_top_eigenvalue_derivative():
    rng = random.Random(2718)
    for r in (2, 3):
        table, cnames, lam = odd_table(r)
        fields = Family(HALF, r).fields(table)
        inv = inverse_exact(Family(HALF, r).frame_matrix(table))
        for _ in range(10):
            f = LaurentPoly.zero(table)
            for _ in range(4):
                exps = tuple(rng.randint(0, 2) for _ in table.names)
                f = f + LaurentPoly(table, {exps: rng.randint(-3, 3)})
            acc = LaurentPoly.zero(table)
            for n in range(r):
                acc = acc + inv[r - 1][n] * apply_field(fields[n], f)
            assert acc == f.derivative(lam)
