"""Acceptance gate: one check per contract item, one pass/fail line each.

Every comparison is exact (rational arithmetic throughout); a check passes
only when the relevant residual is identically zero on its window.  Run
with ``pytest tests/test_acceptance.py -v -s`` to see the summary lines.
"""

from __future__ import annotations

import copy
import math
import random
import time
from fractions import Fraction
from types import SimpleNamespace

from gauge_residual import mode_residual
from virasoro_irregular.frames import HALF, INTEGER, Family, apply_field
from virasoro_irregular.gauge import (
    Infeasible,
    apply_gauge_and_verify,
    completion_residuals,
    frobenius_verify,
    integrate_potential,
    lstar_certificate,
    obstructions,
    scalar_completion_half,
)
from virasoro_irregular.gram import gram_matrix, pure_power_factor
from virasoro_irregular.linalg import det_bareiss, inverse_exact
from virasoro_irregular.ring import LaurentPoly, VarTable
from virasoro_irregular.solver import (
    rank1_series,
    solve_half,
    solve_integer,
    verify_canonical,
)
from virasoro_irregular.virasoro import ModuleContext, partitions_of


def _line(number: int, ok: bool, label: str, started: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[{number:2}] {status} {label} ({time.monotonic() - started:.2f}s)")


def _integer_table(r: int) -> tuple[VarTable, tuple[str, ...]]:
    cnames = tuple(f"c{j}" for j in range(1, r + 1))
    return VarTable(("Q", "c0") + cnames,
                    (0, 0) + tuple(range(1, r + 1))), cnames


def _odd_table(r: int) -> tuple[VarTable, tuple[str, ...]]:
    cnames = tuple(f"c{j}" for j in range(1, r))
    return VarTable(("Q", "c0") + cnames + ("Lam",),
                    (0, 0) + tuple(range(1, r)) + (2 * r - 1,)), cnames


def test_01_frame_determinant_closed_form():
    started = time.monotonic()
    ok = True
    for r in range(2, 7):
        table, cnames = _integer_table(r)
        det = det_bareiss(Family(INTEGER, r).frame_matrix(table))
        sign = -1 if (r * (r - 1) // 2) % 2 else 1
        expected = LaurentPoly.var(table, f"c{r}", r, sign * math.factorial(r))
        ok = ok and det == expected
    elapsed = time.monotonic() - started
    _line(1, ok and elapsed < 1.0, "frame determinant closed form, r = 2..6",
          started)
    assert ok, "frame determinant differs from the closed form"
    assert elapsed < 1.0, f"budget exceeded: {elapsed:.2f}s"


def test_02_frame_inverse_row_and_lowest_order_profile():
    started = time.monotonic()
    ok = True
    for r in range(2, 7):
        table, cnames = _integer_table(r)
        matrix = Family(INTEGER, r).frame_matrix(table)
        row = inverse_exact(matrix)[r - 1]
        one = LaurentPoly.const(table, 1)
        for j in range(r):
            total = sum((row[k] * matrix[k][j] for k in range(r)),
                        LaurentPoly.zero(table))
            ok = ok and total == (one if j == r - 1 else LaurentPoly.zero(table))
    for r in range(2, 6):
        table, cnames = _integer_table(r)
        profile = dict(Family(INTEGER, r).dual_operator(table).orders[0])
        seed = LaurentPoly.var(table, f"c{r - 1}", r - 1,
                               Fraction((-1) ** (r - 1), r))
        ok = ok and profile == {r - 1: seed}
    elapsed = time.monotonic() - started
    _line(2, ok and elapsed < 5.0,
          "inverse frame row and dual operator seed, r = 2..6", started)
    assert ok, "inverse row or order-zero dual profile is off"
    assert elapsed < 5.0, f"budget exceeded: {elapsed:.2f}s"


def test_03_odd_fields_restate_the_quadratic_scalars():
    started = time.monotonic()
    ok = True
    for r in range(2, 6):
        table, cnames = _odd_table(r)
        fields = Family(HALF, r).fields(table)
        scalars = Family(HALF, r).mode_scalars(table)
        zero = LaurentPoly.zero(table)
        for n in range(r):
            for m in range(r, 2 * r):
                lhs = apply_field(fields[n], scalars[m])
                rhs = (m - n) * scalars.get(m + n, zero)
                ok = ok and lhs == rhs
        coords = cnames + ("Lam",)
        for m in range(r):
            for n in range(m + 1, r):
                for coord in coords:
                    lhs = apply_field(fields[m], fields[n].get(coord, zero)) \
                        - apply_field(fields[n], fields[m].get(coord, zero))
                    if m + n < r:
                        rhs = (n - m) * fields[m + n].get(coord, zero)
                    else:
                        rhs = zero
                    ok = ok and lhs == rhs
    elapsed = time.monotonic() - started
    _line(3, ok and elapsed < 30.0,
          "odd fields act on the window scalars and close, r = 2..5", started)
    assert ok, "odd field action or bracket table is off"
    assert elapsed < 30.0, f"budget exceeded: {elapsed:.2f}s"


def test_04_odd_frame_determinant_and_profile():
    started = time.monotonic()
    ok = True
    for r in range(2, 6):
        table, cnames = _odd_table(r)
        det = det_bareiss(Family(HALF, r).frame_matrix(table))
        kappa = Fraction(2 * r - 1)
        for n in range(1, r):
            kappa *= Fraction(-(2 * r - 2 * n - 1), 2)
        if (r * (r - 1) // 2) % 2:
            kappa = -kappa
        expected = LaurentPoly.var(table, "Lam", r, kappa) \
            * LaurentPoly.var(table, f"c{r - 1}", -(r - 1))
        ok = ok and det == expected
    seeds = {2: Fraction(2, 3), 3: Fraction(8, 15),
             4: Fraction(16, 35), 5: Fraction(128, 315)}
    for r, rho in seeds.items():
        table, cnames = _odd_table(r)
        profile = dict(Family(HALF, r).dual_operator(table).orders[0])
        seed = LaurentPoly.var(table, f"c{r - 1}", 2 * r - 2, rho)
        ok = ok and profile == {r - 1: seed}
    elapsed = time.monotonic() - started
    _line(4, ok and elapsed < 30.0,
          "odd frame determinant and dual seed, r = 2..5", started)
    assert ok, "odd determinant or order-zero profile is off"
    assert elapsed < 30.0, f"budget exceeded: {elapsed:.2f}s"


def _pairing_diagonal_ratio(lam: tuple[int, ...]) -> int:
    """Integer factor 2^len * prod(parts) * prod(multiplicity!) of entry (lam, lam)."""
    ratio = 2 ** len(lam) * math.prod(lam)
    for part in set(lam):
        ratio *= math.factorial(lam.count(part))
    return ratio


def _pairing_block(ctx: ModuleContext, lo: int, hi: int) -> SimpleNamespace:
    """Determinant of a weight-range pairing block by fraction-free
    elimination, factored as a rational times a power of the top eigenvalue."""
    det = det_bareiss(gram_matrix(ctx, lo, hi)[1])
    base = ctx.eigenvalue(2 * ctx.rho)
    exponent, ratio = pure_power_factor(det, base)
    return SimpleNamespace(det=det, base=base, exponent=exponent, ratio=ratio)


def test_05_pairing_determinant_exponents():
    # Each part a of lam pairs through [L_{rho+a}, L_{rho-a}] = 2a L_{2 rho},
    # which has no central term for rho >= 1, so a window determinant is
    # prod_lam ratio(lam) * E_{2 rho}^len(lam).  The grading agrees: entry
    # (mu, lam) has weight |mu| - |lam| + rho (len(mu) + len(lam)), so the
    # determinant has weight 2 rho * sum len(lam).
    started = time.monotonic()
    mismatches = []
    for rho in (1, 2):
        names = ("cv",) + tuple(f"E{n}" for n in range(rho, 2 * rho + 1))
        weights = (0,) + tuple(range(rho, 2 * rho + 1))
        table = VarTable(names, weights)
        eigen = {n: LaurentPoly.var(table, f"E{n}")
                 for n in range(rho, 2 * rho + 1)}
        ctx = ModuleContext(table, rho, eigen, LaurentPoly.var(table, "cv"))
        top = eigen[2 * rho]
        for lo in range(0, 4):
            for hi in range(lo, 4):
                report = _pairing_block(ctx, lo, hi)
                window = [lam for w in range(lo, hi + 1)
                          for lam in partitions_of(w)]
                exponent = sum(len(lam) for lam in window)
                ratio = math.prod(_pairing_diagonal_ratio(lam) for lam in window)
                if report.ratio == 0:
                    mismatches.append((rho, lo, hi, "zero ratio"))
                elif (report.exponent, report.ratio) != (exponent, ratio):
                    mismatches.append(
                        (rho, lo, hi,
                         f"{report.ratio} * E^{report.exponent} != "
                         f"{ratio} * E^{exponent}"))
                elif report.base != top or report.det != ratio * top ** exponent:
                    mismatches.append((rho, lo, hi, f"det {report.det}"))
    ok = not mismatches
    elapsed = time.monotonic() - started
    _line(5, ok and elapsed < 120.0,
          "pairing determinants: closed-form ratio times "
          "E_{2rho}^(sum of partition lengths), rho = 1, 2", started)
    assert ok, (
        "pairing determinants differ from the length law "
        "prod_lam 2^len * prod(parts) * prod(mult!) * E_{2rho}^len "
        f"on {len(mismatches)} windows, first {mismatches[:3]}")
    assert elapsed < 120.0, f"budget exceeded: {elapsed:.2f}s"


def test_06_integer_series_solve_and_recheck():
    started = time.monotonic()
    series = solve_integer(2, 4)
    report = verify_canonical(series)
    ok = report.all_ok
    for n in range(2, 6):
        ok = ok and mode_residual(series, n).is_zero_on_window()
    table = series.table
    c0 = LaurentPoly.var(table, "c0")
    c0p = LaurentPoly.var(table, "c0p")
    c1 = LaurentPoly.var(table, "c1")
    ok = ok and series.g[1] == (c0 - c0p) * c1 ** 2 * Fraction(1, 2)
    other = solve_integer(3, 3)
    ok = ok and verify_canonical(other).all_ok
    elapsed = time.monotonic() - started
    _line(6, ok and elapsed < 600.0,
          "integer-rank series at (2,4) and (3,3) re-verified from scratch",
          started)
    assert ok, "integer series failed independent re-verification"
    assert elapsed < 600.0, f"budget exceeded: {elapsed:.2f}s"


def test_07_half_rank_series_solve_and_recheck():
    started = time.monotonic()
    series = solve_half(2, 4)
    report = verify_canonical(series)
    ok = report.all_ok
    table = series.table
    q = LaurentPoly.var(table, "Q")
    c0 = LaurentPoly.var(table, "c0")
    c1 = LaurentPoly.var(table, "c1")
    expected = (2 * q - c0) * c1 ** 3 * Fraction(-2, 3)
    ok = ok and series.g[1] == expected
    other = solve_half(3, 3)
    ok = ok and verify_canonical(other).all_ok
    elapsed = time.monotonic() - started
    _line(7, ok and elapsed < 600.0,
          "half-rank series at (2,4) and (3,3) re-verified from scratch",
          started)
    assert ok, "half-rank series failed independent re-verification"
    assert elapsed < 600.0, f"budget exceeded: {elapsed:.2f}s"


def test_08_single_coefficient_perturbations_break_the_relations():
    started = time.monotonic()
    series = solve_integer(2, 3)
    rng = random.Random(20240615)
    by_weight = {w: partitions_of(w) for w in range(2 * series.order + 1)}
    ok = True
    for _ in range(10):
        k = rng.randrange(1, series.order + 1)
        weight = rng.randrange(0, 2 * k + 1)
        lam = rng.choice(by_weight[weight]) if weight else ()
        eps = LaurentPoly.const(series.table,
                                Fraction(rng.randrange(1, 7), rng.randrange(1, 5)))
        tampered = [vec for vec in series.vectors]
        tampered[k] = tampered[k] + series.ctx.basis(lam, eps)
        probe = copy.copy(series)
        probe.vectors = tampered
        ok = ok and not verify_canonical(probe).all_ok
    elapsed = time.monotonic() - started
    _line(8, ok and elapsed < 120.0,
          "ten random single-coefficient perturbations all fail", started)
    assert ok, "a perturbed series slipped through re-verification"
    assert elapsed < 120.0, f"budget exceeded: {elapsed:.2f}s"


def test_09_integer_gauge_pipeline():
    started = time.monotonic()
    series = solve_integer(2, 4)
    obs = obstructions(series)
    frob = frobenius_verify(obs)
    certificate = lstar_certificate(obs)
    decomp = integrate_potential(obs)
    var = series.family.var
    clean = not decomp.g0.uses_var(var) \
        and all(not poly.uses_var(var) for poly in decomp.nu.values())
    gauged = apply_gauge_and_verify(obs, decomp)
    ok = (frob.all_ok and certificate.is_zero_on_window() and clean
          and gauged.all_ok)
    elapsed = time.monotonic() - started
    _line(9, ok and elapsed < 600.0,
          "integer obstruction scalars: parallel, closed, integrated, gauged "
          "away", started)
    assert ok, "integer gauge pipeline left a residual"
    assert elapsed < 600.0, f"budget exceeded: {elapsed:.2f}s"


def test_10_half_rank_scalar_completion_and_gauge():
    started = time.monotonic()
    first = scalar_completion_half(2, 1)
    ok = completion_residuals(first).all_ok and first.bound <= 4
    second = None
    for bound in range(1, 7):
        try:
            second = scalar_completion_half(3, bound)
            break
        except Infeasible:
            continue
    ok = ok and second is not None and second.bound <= 6 \
        and completion_residuals(second).all_ok
    wide = solve_half(2, 4)
    decomp = integrate_potential(obstructions(wide, first))
    series = solve_half(2, 3)
    gauged = apply_gauge_and_verify(obstructions(series, first), decomp)
    ok = ok and gauged.all_ok
    elapsed = time.monotonic() - started
    _line(10, ok and elapsed < 900.0,
          "scalar completions within the denominator bound and gauged "
          "half-rank residuals", started)
    assert ok, "scalar completion or half-rank gauge left a residual"
    assert elapsed < 900.0, f"budget exceeded: {elapsed:.2f}s"


def test_11_rank_one_series_forward_checks():
    started = time.monotonic()
    series = rank1_series(4)
    report = verify_canonical(series)
    ok = report.all_ok
    seen = {check.relation for check in report.checks if check.ok}
    ok = ok and "mode 1 relation" in seen and "mode 2 relation" in seen
    elapsed = time.monotonic() - started
    _line(11, ok and elapsed < 60.0,
          "rank-one series through order 4 with forward mode checks", started)
    assert ok, "rank-one series failed its forward checks"
    assert elapsed < 60.0, f"budget exceeded: {elapsed:.2f}s"
