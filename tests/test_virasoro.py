"""Mode action tests, cross-checked against a word-rewriting oracle."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from virasoro_irregular.gram import gram_entry
from virasoro_irregular.ring import LaurentPoly, VarTable
from virasoro_irregular.virasoro import (
    ModuleContext,
    ModuleVector,
    apply_mode,
    apply_tilde,
    apply_tilde_word,
    partition_sort_key,
    partitions_of,
    verma_context,
)

# Rank-1 playground: the two eigenvalues and the central charge are opaque
# variables, weighted so that the eigenvalue of mode n has weight n.
T1 = VarTable(["E1", "E2", "cv"], [1, 2, 0])


def rank1_ctx() -> ModuleContext:
    return ModuleContext(
        T1, 1,
        {1: LaurentPoly.var(T1, "E1"), 2: LaurentPoly.var(T1, "E2")},
        LaurentPoly.var(T1, "cv"),
    )


def rank2_table() -> tuple[VarTable, ModuleContext]:
    t = VarTable(["E2", "E3", "E4", "cv"], [2, 3, 4, 0])
    ctx = ModuleContext(
        t, 2,
        {n: LaurentPoly.var(t, f"E{n}") for n in (2, 3, 4)},
        LaurentPoly.var(t, "cv"),
    )
    return t, ctx


# ----- independent straightening oracle -------------------------------------
#
# Represents states as coefficient-weighted operator words applied to the
# cyclic vector and rewrites one adjacent inversion at a time, so it shares
# no code path with the memoized recursion in the package.


def oracle_apply_word(ctx: ModuleContext, word: tuple[int, ...]) -> dict:
    state = {tuple(word): LaurentPoly.const(ctx.table, 1)}
    done: dict[tuple[int, ...], LaurentPoly] = {}
    while state:
        w, coeff = state.popitem()
        spot = next((i for i in range(len(w) - 1) if w[i] > w[i + 1]), None)
        if spot is not None:
            a, b = w[spot], w[spot + 1]
            swapped = w[:spot] + (b, a) + w[spot + 2:]
            _oracle_add(state, swapped, coeff)
            merged = w[:spot] + (a + b,) + w[spot + 2:]
            _oracle_add(state, merged, coeff * (a - b))
            if a + b == 0:
                central = ctx.c_vir * Fraction(a ** 3 - a, 12)
                _oracle_add(state, w[:spot] + w[spot + 2:], coeff * central)
            continue
        if w and w[-1] >= ctx.rho:
            ev = ctx.eigenvalue(w[-1])
            if not ev.is_zero():
                _oracle_add(state, w[:-1], coeff * ev)
            continue
        done_key = tuple(ctx.rho - m for m in w)
        _oracle_add(done, done_key, coeff)
    return {k: v for k, v in done.items() if not v.is_zero()}


def _oracle_add(store, key, value):
    if value.is_zero():
        return
    prior = store.get(key)
    total = value if prior is None else prior + value
    if total.is_zero():
        store.pop(key, None)
    else:
        store[key] = total


def vector_from_dict(ctx, terms):
    return ModuleVector(ctx, terms)


# ----- partitions -----------------------------------------------------------


def test_partition_counts():
    counts = [len(partitions_of(n)) for n in range(11)]
    assert counts == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]


def test_partition_order_is_descending_lex():
    assert partitions_of(4) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert partitions_of(4, max_part=2) == [(2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert partitions_of(0) == [()]
    assert partitions_of(-1) == []


def test_partition_sort_key_orders_by_weight_then_lex():
    lams = [(1, 1), (3,), (2,), (2, 1), (1,), ()]
    ordered = sorted(lams, key=partition_sort_key)
    assert ordered == [(), (1,), (2,), (1, 1), (3,), (2, 1)]


# ----- hand-checked actions ---------------------------------------------------


def test_annihilator_above_twice_rank_kills_cyclic():
    ctx = rank1_ctx()
    assert apply_mode(ctx.cyclic(), 3).is_zero()
    assert apply_mode(ctx.cyclic(), 2) == ctx.cyclic(LaurentPoly.var(T1, "E2"))


def test_creation_modes_build_basis_labels():
    ctx = rank1_ctx()
    v = apply_mode(ctx.cyclic(), -2)  # part 1 - (-2) = 3
    assert v == ctx.basis((3,))
    w = apply_mode(v, -2)
    assert w == ctx.basis((3, 3))
    x = apply_mode(w, 0)  # part 1, prepend is illegal, must straighten
    assert x.coeff((3, 3, 1)) == LaurentPoly.const(T1, 1)


def test_mode_three_on_depth_two_basis():
    # L_3 L_{-2} u = [L_3, L_{-2}] u = 5 L_1 u = 5 E1 u   (rank 1)
    ctx = rank1_ctx()
    v = apply_mode(ctx.basis((3,)), 3)
    assert v == ctx.cyclic(5 * LaurentPoly.var(T1, "E1"))


def test_mode_two_on_depth_two_basis_includes_central_term():
    # L_2 L_{-2} u = E2 L_{-2} u + 4 L_0 u + (cv/2) u   (rank 1)
    ctx = rank1_ctx()
    v = apply_mode(ctx.basis((3,)), 2)
    assert v.coeff((3,)) == LaurentPoly.var(T1, "E2")
    assert v.coeff((1,)) == LaurentPoly.const(T1, 4)
    assert v.constant_term() == LaurentPoly.var(T1, "cv") * Fraction(1, 2)


def test_verma_sl2_relations():
    t = VarTable(["D", "cv"], [0, 0])
    ctx = verma_context(t, LaurentPoly.var(t, "D"), LaurentPoly.var(t, "cv"))
    delta = LaurentPoly.var(t, "D")
    cv = LaurentPoly.var(t, "cv")
    v = apply_mode(ctx.cyclic(), -1)
    assert v == ctx.basis((1,))
    assert apply_mode(v, 1) == ctx.cyclic(2 * delta)
    w = apply_mode(ctx.cyclic(), -2)
    assert apply_mode(w, 2) == ctx.cyclic(4 * delta + cv * Fraction(1, 2))
    assert apply_mode(w, 1) == ctx.basis((1,), LaurentPoly.const(t, 3))


def test_eigen_table_must_cover_window():
    with pytest.raises(ValueError):
        ModuleContext(T1, 1, {1: 1}, 0)
    with pytest.raises(ValueError):
        ModuleContext(T1, 1, {1: 1, 2: 1, 3: 1}, 0)


# ----- algebra relations, randomized ------------------------------------------


def random_vector(rng: random.Random, ctx: ModuleContext, max_weight: int = 5) -> ModuleVector:
    terms = {}
    pool = [lam for w in range(max_weight + 1) for lam in partitions_of(w)]
    for lam in rng.sample(pool, k=min(4, len(pool))):
        terms[lam] = LaurentPoly.const(ctx.table, Fraction(rng.randint(-5, 5), rng.randint(1, 3)))
    return ModuleVector(ctx, terms)


@pytest.mark.parametrize("ctx_builder", [rank1_ctx, lambda: rank2_table()[1]])
def test_commutation_relation_on_random_vectors(ctx_builder):
    ctx = ctx_builder()
    rng = random.Random(424242)
    for _ in range(60):
        m = rng.randint(-4, 4)
        n = rng.randint(-4, 4)
        v = random_vector(rng, ctx)
        lhs = apply_mode(apply_mode(v, n), m) - apply_mode(apply_mode(v, m), n)
        rhs = apply_mode(v, m + n).scale(m - n)
        if m + n == 0:
            rhs = rhs + v.scale(ctx.c_vir * Fraction(m ** 3 - m, 12))
        assert lhs == rhs


@pytest.mark.parametrize("ctx_builder", [rank1_ctx, lambda: rank2_table()[1]])
def test_matches_word_rewriting_oracle(ctx_builder):
    ctx = ctx_builder()
    rng = random.Random(7)
    for _ in range(80):
        word = tuple(rng.randint(-3, 4) for _ in range(rng.randint(1, 4)))
        vec = ctx.cyclic()
        for mode in reversed(word):
            vec = apply_mode(vec, mode)
        expected = oracle_apply_word(ctx, word)
        assert set(vec.parts) == set(expected)
        for lam, c in expected.items():
            assert vec.coeff(lam) == c


def test_grading_of_mode_action():
    # Acting with L_n shifts the level |lam| - rho*len(lam) by -n once each
    # eigenvalue E_k is counted with weight k.
    for ctx in (rank1_ctx(), rank2_table()[1]):
        rho = ctx.rho
        for w in range(0, 6):
            for lam in partitions_of(w):
                level = sum(lam) - rho * len(lam)
                for n in range(-3, 2 * rho + 3):
                    for mu, c in ctx._apply_basis(n, lam).items():
                        got = c.homogeneous_weight()
                        assert got is not None
                        assert (sum(mu) - rho * len(mu)) - got == level - n


# ----- shifted modes -----------------------------------------------------------


def test_tilde_annihilates_cyclic_inside_window():
    ctx = rank1_ctx()
    for n in (1, 2):
        assert apply_tilde(ctx.cyclic(), n).is_zero()
    assert apply_tilde(ctx.basis((1,)), 3) == apply_mode(ctx.basis((1,)), 3)
    with pytest.raises(ValueError):
        apply_tilde(ctx.cyclic(), 0)


def test_tilde_word_applies_largest_part_first():
    ctx = rank1_ctx()
    v = ctx.basis((2, 1))
    manual = apply_tilde(apply_tilde(v, 3), 2)  # part 2 -> mode 3 first
    assert apply_tilde_word(v, (2, 1)) == manual
    assert apply_tilde_word(v, ()) == v
    with pytest.raises(ValueError):
        apply_tilde_word(v, (1, 2))


def test_vector_arithmetic_drops_zeros():
    ctx = rank1_ctx()
    v = ctx.basis((2,)) + ctx.basis((1, 1))
    w = v - ctx.basis((1, 1))
    assert set(w.parts) == {(2,)}
    assert (w - ctx.basis((2,))).is_zero()
    assert v.scale(0).is_zero()


@pytest.mark.parametrize("ctx_builder", [rank1_ctx, lambda: rank2_table()[1]])
def test_dropped_caches_refill_with_the_same_values(ctx_builder):
    ctx = ctx_builder()
    rng = random.Random(7)
    vectors = [random_vector(rng, ctx, 4) for _ in range(3)]
    lams = [lam for w in range(4) for lam in partitions_of(w)]

    def values():
        return ([apply_mode(v, n) for v in vectors for n in range(-2, 2 * ctx.rho + 3)],
                [gram_entry(ctx, mu, lam) for mu in lams for lam in lams])

    before = values()
    ctx.drop_caches()
    assert not ctx._mode_cache and not ctx._pairing_cache
    assert values() == before
    assert ctx._mode_cache and ctx._pairing_cache
