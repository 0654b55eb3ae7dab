"""Structure of the word-against-basis pairing and its triangular solve."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from virasoro_irregular.frames import HALF, INTEGER, Family
from virasoro_irregular.gram import (
    ProportionalityFailure,
    SingularGram,
    _diagonal_factor,
    gram_entry,
    gram_entry_on,
    gram_matrix,
    pure_power_factor,
    solve_descendants,
    weight_range_partitions,
)
from virasoro_irregular.linalg import det_bareiss
from virasoro_irregular.ring import LaurentPoly, VarTable
from virasoro_irregular.solver import series_context, series_table
from virasoro_irregular.virasoro import (
    ModuleContext,
    ModuleVector,
    apply_tilde_word,
    partitions_of,
    verma_context,
)

T1 = VarTable(["E1", "E2", "cv"], [1, 2, 0])
T2 = VarTable(["E2", "E3", "E4", "cv"], [2, 3, 4, 0])
T3 = VarTable(["E3", "E5", "E6", "cv"], [3, 5, 6, 0])


def ctx_rank1() -> ModuleContext:
    return ModuleContext(T1, 1, {1: LaurentPoly.var(T1, "E1"),
                                 2: LaurentPoly.var(T1, "E2")},
                         LaurentPoly.var(T1, "cv"))


def ctx_rank2() -> ModuleContext:
    return ModuleContext(T2, 2, {n: LaurentPoly.var(T2, f"E{n}") for n in (2, 3, 4)},
                         LaurentPoly.var(T2, "cv"))


def ctx_verma() -> ModuleContext:
    # rho = 0: every shifted mode of a word lies above 2*rho
    return verma_context(T1, LaurentPoly.var(T1, "E1"), LaurentPoly.var(T1, "cv"))


def ctx_rank3_gap() -> ModuleContext:
    # rho = 3 with a zero eigenvalue inside the window (e_4 = 0)
    return ModuleContext(T3, 3, {3: LaurentPoly.var(T3, "E3"), 4: 0,
                                 5: LaurentPoly.var(T3, "E5"), 6: LaurentPoly.var(T3, "E6")},
                         LaurentPoly.var(T3, "cv"))


def test_weight_range_partitions_order():
    assert weight_range_partitions(0, 2) == [(), (1,), (2,), (1, 1)]
    assert weight_range_partitions(2, 3) == [(2,), (1, 1), (3,), (2, 1), (1, 1, 1)]


def expected_diagonal(ctx: ModuleContext, lam) -> LaurentPoly:
    """Closed form of the diagonal pairing entry."""
    top = ctx.eigenvalue(2 * ctx.rho)
    value = LaurentPoly.const(ctx.table, 1)
    mult: dict[int, int] = {}
    for part in lam:
        mult[part] = mult.get(part, 0) + 1
        value = value * (2 * part)
        value = value * top
    for count in mult.values():
        value = value * math.factorial(count)
    return value


def word_entry(ctx: ModuleContext, mu, lam) -> LaurentPoly:
    """Pairing by whole-word application, independent of the cached matrix."""
    return apply_tilde_word(ctx.basis(lam), mu).constant_term()


@pytest.mark.parametrize("ctx_builder", [ctx_rank1, ctx_rank2])
def test_entries_vanish_above_the_diagonal_weight(ctx_builder):
    # gram_entry returns zero here by construction, so check by whole words
    ctx = ctx_builder()
    for wmu in range(1, 5):
        for wlam in range(0, wmu):
            for mu in partitions_of(wmu):
                for lam in partitions_of(wlam):
                    assert word_entry(ctx, mu, lam).is_zero(), (mu, lam)


@pytest.mark.parametrize("ctx_builder", [ctx_rank1, ctx_rank2, ctx_verma, ctx_rank3_gap])
def test_cached_entries_match_whole_word_application(ctx_builder):
    # with the Verma and rank-3 contexts, every kind of term the recursion
    # skips is reached: zero sub-entries, a zero eigenvalue inside the
    # window, modes above 2*rho, and entries where no term survives
    ctx = ctx_builder()
    parts = weight_range_partitions(0, 4)
    for mu in parts:
        for lam in parts:
            assert gram_entry(ctx, mu, lam) == word_entry(ctx, mu, lam), (mu, lam)
    with pytest.raises(ValueError):
        gram_entry(ctx, (1, 2), (3,))


@pytest.mark.parametrize("ctx_builder", [ctx_rank1, ctx_rank2])
def test_equal_weight_blocks_are_diagonal(ctx_builder):
    ctx = ctx_builder()
    top = ctx.eigenvalue(2 * ctx.rho)
    for w in range(1, 6):
        parts = partitions_of(w)
        for mu in parts:
            for lam in parts:
                entry = gram_entry(ctx, mu, lam)
                if mu == lam:
                    assert entry == expected_diagonal(ctx, lam)
                    # the divisor solve_descendants uses in place of the entry
                    assert entry == top ** len(lam) * _diagonal_factor(lam)
                else:
                    assert entry.is_zero(), (mu, lam)


def test_expected_diagonal_values_rank1():
    ctx = ctx_rank1()
    e2 = LaurentPoly.var(T1, "E2")
    assert expected_diagonal(ctx, (1,)) == 2 * e2
    assert expected_diagonal(ctx, (2,)) == 4 * e2
    assert expected_diagonal(ctx, (1, 1)) == 8 * e2 ** 2
    assert expected_diagonal(ctx, (2, 1)) == 8 * e2 ** 2
    assert expected_diagonal(ctx, (1, 1, 1)) == 48 * e2 ** 3


def test_entry_weights_follow_the_grading():
    for ctx in (ctx_rank1(), ctx_rank2()):
        rho = ctx.rho
        for wmu in range(1, 4):
            for wlam in range(wmu, 4):
                for mu in partitions_of(wmu):
                    for lam in partitions_of(wlam):
                        entry = gram_entry(ctx, mu, lam)
                        if entry.is_zero():
                            continue
                        expected = sum(mu) - sum(lam) + rho * (len(mu) + len(lam))
                        assert entry.homogeneous_weight() == expected, (mu, lam)


def _block_det(ctx: ModuleContext, lo: int,
               hi: int) -> tuple[LaurentPoly, int, Fraction]:
    """Determinant of the weight ``lo..hi`` pairing block, with the exponent
    and rational ratio of its factorisation over the top window eigenvalue."""
    det = det_bareiss(gram_matrix(ctx, lo, hi)[1])
    return (det, *pure_power_factor(det, ctx.eigenvalue(2 * ctx.rho)))


def test_det_reports_match_frozen_values():
    ctx = ctx_rank1()
    e2 = LaurentPoly.var(T1, "E2")
    assert _block_det(ctx, 1, 1) == (2 * e2, 1, Fraction(2))
    assert _block_det(ctx, 2, 2) == (32 * e2 ** 3, 3, Fraction(32))
    assert _block_det(ctx, 3, 3) == (2304 * e2 ** 6, 6, Fraction(2304))
    assert _block_det(ctx, 1, 2) == (64 * e2 ** 4, 4, Fraction(64))

    ctx2 = ctx_rank2()
    e4 = LaurentPoly.var(T2, "E4")
    # weight-2 block: diag(4 E4, 8 E4^2)
    assert _block_det(ctx2, 2, 2) == (32 * e4 ** 3, 3, Fraction(32))


def test_observed_exponent_counts_lengths_not_weights():
    # sum of partition lengths per weight: w=1 -> 1, w=2 -> 3, w=3 -> 6
    ctx = ctx_rank1()
    for lo, hi, expected in [(1, 1, 1), (2, 2, 3), (3, 3, 6), (1, 3, 10), (0, 2, 4)]:
        assert _block_det(ctx, lo, hi)[1] == expected


def test_pure_power_factor_detects_mixtures():
    e2 = LaurentPoly.var(T1, "E2")
    e1 = LaurentPoly.var(T1, "E1")
    assert pure_power_factor(3 * e2 ** 2, e2) == (2, Fraction(3))
    assert pure_power_factor(LaurentPoly.const(T1, Fraction(5, 7)), e2) == (0, Fraction(5, 7))
    with pytest.raises(ProportionalityFailure):
        pure_power_factor(e2 + e1 ** 2, e2)
    with pytest.raises(ProportionalityFailure):
        pure_power_factor(LaurentPoly.zero(T1), e2)


def random_vector(rng: random.Random, ctx: ModuleContext, top: int) -> ModuleVector:
    terms = {}
    for w in range(top + 1):
        for lam in partitions_of(w):
            if rng.random() < 0.6:
                val = LaurentPoly.const(ctx.table, Fraction(rng.randint(-6, 6), rng.randint(1, 4)))
                if rng.random() < 0.4:
                    val = val * LaurentPoly.var(ctx.table, "E1" if ctx.rho == 1 else "E2")
                terms[lam] = val
    return ModuleVector(ctx, terms)


@pytest.mark.parametrize("ctx_builder,top", [(ctx_rank1, 4), (ctx_rank2, 3)])
def test_entry_on_matches_whole_word_application(ctx_builder, top):
    ctx = ctx_builder()
    rng = random.Random(16180339)
    for _ in range(4):
        vec = random_vector(rng, ctx, top)
        for mu in weight_range_partitions(0, top + 1):
            want = apply_tilde_word(vec, mu).constant_term()
            assert gram_entry_on(ctx, mu, vec) == want, mu


@pytest.mark.parametrize("ctx_builder,top", [(ctx_rank1, 4), (ctx_rank2, 3)])
def test_solve_descendants_round_trip(ctx_builder, top):
    ctx = ctx_builder()
    rng = random.Random(60221023)
    for _ in range(6):
        v_true = random_vector(rng, ctx, top)
        targets = {}
        for w in range(1, top + 1):
            for mu in partitions_of(w):
                targets[mu] = gram_entry_on(ctx, mu, v_true)
        got = solve_descendants(ctx, targets, top, constant=v_true.constant_term())
        assert got == v_true


def test_solve_descendants_rejects_out_of_range_targets():
    ctx = ctx_rank1()
    one = LaurentPoly.const(T1, 1)
    with pytest.raises(ValueError):
        solve_descendants(ctx, {(3,): one}, 2)
    with pytest.raises(ValueError):
        solve_descendants(ctx, {(): one}, 2)
    # a word that is not a partition would otherwise be ignored silently
    with pytest.raises(ValueError):
        solve_descendants(ctx, {(1, 2): one}, 3)
    with pytest.raises(ValueError):
        gram_entry_on(ctx, (1, 2), ctx.cyclic())


def test_solve_descendants_needs_diagonal_blocks():
    # rank 0 is a Verma module, whose equal-weight blocks are not diagonal
    table = VarTable(["D", "cv"], [1, 0])
    ctx = verma_context(table, LaurentPoly.var(table, "D"), LaurentPoly.var(table, "cv"))
    with pytest.raises(ValueError):
        solve_descendants(ctx, {(1,): LaurentPoly.const(table, 1)}, 1)


def test_singular_context_is_reported():
    table = VarTable(["E1", "cv"], [1, 0])
    ctx = ModuleContext(table, 1, {1: LaurentPoly.var(table, "E1"), 2: 0}, 0)
    with pytest.raises(SingularGram):
        solve_descendants(ctx, {(1,): LaurentPoly.const(table, 1)}, 1)


# ----- Kac determinant of the Verma pairing ---------------------------------------

# (b, Delta) points away from every Kac zero; Q = b + 1/b and c = 1 + 6 Q^2
KAC_POINTS = [(Fraction(2), Fraction(1, 3)), (Fraction(3, 2), Fraction(-5, 7)),
              (Fraction(1, 3), Fraction(11, 4)), (Fraction(-5, 4), Fraction(2, 9))]


def _kac_product(level: int, b: Fraction, delta: Fraction) -> Fraction:
    """prod over r s <= level of (Delta - Delta_{r,s})^p(level - r s), with
    Delta_{r,s} = Q^2/4 - (r b + s/b)^2/4."""
    q = b + 1 / b
    value = Fraction(1)
    for r in range(1, level + 1):
        for s in range(1, level // r + 1):
            zero = q * q / 4 - (r * b + s / b) ** 2 / 4
            value *= (delta - zero) ** len(partitions_of(level - r * s))
    return value


@pytest.mark.parametrize("level, constant", [
    (1, 2), (2, 32), (3, 2304), (4, 37748736), (5, 8697308774400)])
def test_verma_pairing_determinant_is_kac(level, constant):
    # det_bareiss of the level pairing matrix over the Kac product is one
    # constant C_k, the same at every point; the rank-one re-check divides
    # D_k by D_{k-n} because these determinants nest
    table = VarTable(["x"], [0])
    ratios = set()
    for b, delta in KAC_POINTS:
        q = b + 1 / b
        ctx = verma_context(table, delta, 1 + 6 * q * q)
        lams = partitions_of(level)
        det = det_bareiss([[gram_entry(ctx, mu, lam) for lam in lams] for mu in lams])
        ratios.add(det.as_rational() / _kac_product(level, b, delta))
    assert ratios == {constant}


@pytest.mark.parametrize("r", [2, 3, 4])
def test_integer_and_half_rank_modules_pair_alike(r):
    # integer rank r and half rank r build the rank r-1 module, on the zero
    # mode c0p and on c0; with both renamed to one name, their pairing
    # entries agree at every weight up to 6
    def entries(kind: str):
        family = Family(kind, r)
        table = series_table(family, 1)
        ctx = series_context(family, table, None)
        names = ["c0*" if name == family.base_c0 else name for name in table.names]
        parts, rows = gram_matrix(ctx, 0, 6)
        return parts, [[{tuple((n, e) for n, e in zip(names, exps) if e): c
                         for exps, c in entry.iter_terms()} for entry in row]
                       for row in rows]

    integer, half = entries(INTEGER), entries(HALF)
    assert integer == half
    assert sum(bool(entry) for row in half[1] for entry in row) > len(half[0])
