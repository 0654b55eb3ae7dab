"""Exact linear algebra tests with a Leibniz-formula determinant oracle."""

from __future__ import annotations

import itertools
import random
import time
from fractions import Fraction

import pytest

from virasoro_irregular.frames import HALF, INTEGER, Family
from virasoro_irregular.gram import gram_entry
from virasoro_irregular.linalg import (
    EXPANSION_ROWS,
    InconsistentSystem,
    SingularSystem,
    adjugate,
    det_bareiss,
    inverse_exact,
    det_from_adjugate,
    mat_vec,
    sparse_solve,
)
from virasoro_irregular.ring import LaurentPoly, NotDivisible, VarTable
from virasoro_irregular.virasoro import partitions_of, verma_context

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
        p = p + LaurentPoly(T, {exps: Fraction(rng.randint(-4, 4))})
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
    # up to EXPANSION_ROWS rows the adjugate is taken by expansion, above
    # by elimination
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
        assert all(det_from_adjugate(rows, adj, j) == d for j in range(n))
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


def cofactor_adjugate(rows, cols):
    """Reference adjugate: entry (i, j) is (-1)^(i+j) det_bareiss of ``rows``
    without row j and column i, for the columns in ``cols``; zero elsewhere."""
    n, table = len(rows), rows[0][0].table
    out = [[LaurentPoly.zero(table)] * n for _ in range(n)]
    for j in cols:
        for i in range(n):
            minor = [[e for c, e in enumerate(row) if c != i]
                     for k, row in enumerate(rows) if k != j]
            det = det_bareiss(minor) if minor else LaurentPoly.const(table, 1)
            out[i][j] = det if (i + j) % 2 == 0 else -det
    return out


def assert_adjugate_columns(rows, subsets):
    """``adjugate(rows, cols)`` equals the cofactor reference for each subset."""
    n = len(rows)
    ref = cofactor_adjugate(rows, sorted({j for cols in subsets for j in cols}))
    zero = LaurentPoly.zero(rows[0][0].table)
    for cols in subsets:
        want = [[ref[i][j] if j in cols else zero for j in range(n)] for i in range(n)]
        assert adjugate(rows, cols) == want, (n, cols)


def random_matrix(rng: random.Random, n: int, density: float,
                  entry=None) -> list[list[LaurentPoly]]:
    zero = LaurentPoly.zero(T)
    entry = entry or (lambda: rand_poly(rng, dense=True))
    return [[entry() if rng.random() < density else zero for _ in range(n)]
            for _ in range(n)]


def singular_matrices(rng: random.Random, n: int) -> list[list[list[LaurentPoly]]]:
    """Two singular matrices of ``n`` rows: one with a zero first column, on
    which elimination finds no pivot, and one whose last row is the sum of
    two others, so only its last pivot vanishes."""
    zero = LaurentPoly.zero(T)
    no_pivot = random_matrix(rng, n, 0.3)
    for row in no_pivot:
        row[0] = zero
    dependent = random_matrix(rng, n, 0.3)
    dependent[-1] = [a + b for a, b in zip(dependent[0], dependent[1])]
    return [no_pivot, dependent]


def level_matrix(k: int):
    """The rank-one level-``k`` pairing matrix over (Delta, c), and the
    columns the level solve asks for (partitions into parts 1 and 2)."""
    table = VarTable(("Delta", "c"), (0, 0))
    ctx = verma_context(table, LaurentPoly.var(table, "Delta"), LaurentPoly.var(table, "c"))
    lams = partitions_of(k)
    rows = [[gram_entry(ctx, mu, lam) for lam in lams] for mu in lams]
    return rows, [j for j, lam in enumerate(lams) if lam[0] <= 2]


def column_subsets(rng: random.Random, n: int) -> list[list[int]]:
    return [list(range(n)), [n - 1], sorted(rng.sample(range(n), (n + 1) // 2))]


def test_adjugate_matches_cofactor_determinants():
    rng = random.Random(2029)
    integer = lambda: LaurentPoly.const(T, rng.choice([-3, -2, -1, 1, 2, 3, 5]))
    singular = 0
    for n in range(1, EXPANSION_ROWS + 3):
        cases = [random_matrix(rng, n, 0.3), random_matrix(rng, n, 1.0, integer)]
        # dense polynomial entries swell under the reference's elimination,
        # so they stop at five rows
        if n <= 5:
            cases.append(random_matrix(rng, n, 1.0))
        if n >= 2:
            cases += singular_matrices(rng, n)
        for rows in cases:
            assert_adjugate_columns(rows, column_subsets(rng, n))
            singular += det_bareiss(rows).is_zero()
    assert singular >= 2 * (EXPANSION_ROWS + 1)


@pytest.mark.parametrize("k", range(1, 7))
def test_adjugate_of_level_matrices_matches_cofactors(k):
    rows, solve_cols = level_matrix(k)
    n = len(rows)
    if n <= EXPANSION_ROWS:
        assert_adjugate_columns(rows, [range(n), solve_cols])
        return
    # level 6 (11 rows) is eliminated, and its 44 ten-row reference
    # cofactors would take over ten seconds: there each column j of the
    # nonsingular matrix's adjugate is checked as the only x with
    # A x = det(A) e_j
    det, zero = det_bareiss(rows), LaurentPoly.zero(rows[0][0].table)
    assert not det.is_zero()
    adj = adjugate(rows, solve_cols)
    for j in solve_cols:
        column = mat_vec(rows, [adj[i][j] for i in range(n)])
        assert column == [det if i == j else zero for i in range(n)]


@pytest.mark.parametrize("kind", [INTEGER, HALF])
@pytest.mark.parametrize("r", range(2, 9))
def test_adjugate_of_frames_matches_cofactors(kind, r):
    family = Family(kind, r)
    rows = family.frame_matrix(family.frame_table())
    n = len(rows)
    # above the threshold one column: each elimination of the rank-15/2
    # frame takes about a second
    subsets = column_subsets(random.Random(r), n) if n <= EXPANSION_ROWS else [[n - 1]]
    assert_adjugate_columns(rows, subsets)


def test_adjugate_above_the_threshold_without_a_pivot():
    # elimination finds no pivot in the zero first column, so the matrix
    # takes the expansion whatever its size; of nine rows of this density
    # it takes well under a second, and the bound below leaves room for a
    # slow host
    rng = random.Random(31)
    rows, _ = singular_matrices(rng, EXPANSION_ROWS + 2)
    n = len(rows)
    start = time.perf_counter()
    adj = adjugate(rows)
    assert time.perf_counter() - start < 20
    zero = LaurentPoly.zero(T)
    assert all(entry == zero for row in mat_mul(rows, adj) for entry in row)
    assert all(entry == zero for row in mat_mul(adj, rows) for entry in row)
    # the zero column leaves only row 0 of the adjugate, and it is not zero
    assert all(adj[i][j].is_zero() for i in range(1, n) for j in range(n))
    assert not all(adj[0][j].is_zero() for j in range(n))


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


def rref_solve_fraction(a_rows, b):
    """Dense Gauss-Jordan oracle: ``(solution, free_columns)``, free columns at zero."""
    m = len(a_rows)
    n = len(a_rows[0]) if m else 0
    aug = [[Fraction(x) for x in row] + [Fraction(rhs)] for row, rhs in zip(a_rows, b)]
    row = 0
    pivot_of_col: dict[int, int] = {}
    for col in range(n):
        piv = next((i for i in range(row, m) if aug[i][col] != 0), None)
        if piv is None:
            continue
        aug[row], aug[piv] = aug[piv], aug[row]
        inv = 1 / aug[row][col]
        aug[row] = [entry * inv for entry in aug[row]]
        for i in range(m):
            if i != row and aug[i][col] != 0:
                factor = aug[i][col]
                aug[i] = [x - factor * y for x, y in zip(aug[i], aug[row])]
        pivot_of_col[col] = row
        row += 1
    for i in range(row, m):
        if aug[i][n] != 0:
            raise InconsistentSystem("no solution over the rationals")
    xs = [Fraction(0)] * n
    for col, r in pivot_of_col.items():
        xs[col] = aug[r][n]
    free = [c for c in range(n) if c not in pivot_of_col]
    return xs, free


def test_rref_solve_fraction_zeroes_free_variables():
    rows = [{0: Fraction(1), 1: Fraction(1)}, {2: Fraction(1)}]
    xs = sparse_solve(rows, [Fraction(3), Fraction(5)], 3)
    assert xs == [Fraction(3), Fraction(0), Fraction(5)]
    assert rows == [{0: Fraction(1), 1: Fraction(1)}, {2: Fraction(1)}]
    with pytest.raises(InconsistentSystem):
        sparse_solve([{0: Fraction(1)}, {0: Fraction(1)}], [Fraction(0), Fraction(1)], 1)


def _sparse_system(rng: random.Random, m: int, n: int):
    """Random sparse rows of width ``n``: some empty, some multiples of others."""
    rows = []
    for _ in range(m):
        kind = rng.random()
        if kind < 0.1 or not rows:
            row = {}
        elif kind < 0.25:
            f = Fraction(rng.randint(-3, 3) or 1, rng.randint(1, 3))
            row = {c: f * v for c, v in rng.choice(rows).items()}
        else:
            row = {c: Fraction(rng.randint(-5, 5) or 1, rng.randint(1, 4))
                   for c in rng.sample(range(n), rng.randint(1, min(n, 3)))}
        rows.append(row)
    return rows


def test_sparse_solve_matches_the_dense_oracle():
    rng = random.Random(2026)
    outcomes = {"solved": 0, "free": 0, "inconsistent": 0}
    for _ in range(300):
        m, n = rng.randint(1, 12), rng.randint(1, 10)
        rows = _sparse_system(rng, m, n)
        dense = [[row.get(c, Fraction(0)) for c in range(n)] for row in rows]
        if rng.random() < 0.5:
            # a right-hand side in the column span: always consistent
            x = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
            b = [sum((v * x[c] for c, v in row.items()), Fraction(0)) for row in rows]
        else:
            b = [Fraction(rng.randint(-2, 2)) for _ in rows]
        try:
            expected, free = rref_solve_fraction(dense, b)
        except InconsistentSystem:
            outcomes["inconsistent"] += 1
            with pytest.raises(InconsistentSystem):
                sparse_solve(rows, b, n)
            continue
        outcomes["free" if free else "solved"] += 1
        assert sparse_solve(rows, b, n) == expected
        assert all(expected[c] == 0 for c in free)
        # the answer does not depend on the order of the rows
        order = list(range(m))
        rng.shuffle(order)
        assert sparse_solve([rows[i] for i in order], [b[i] for i in order], n) == expected
    assert min(outcomes.values()) >= 30, outcomes


def test_mat_vec():
    x = LaurentPoly.var(T, "x")
    y = LaurentPoly.var(T, "y")
    one = LaurentPoly.const(T, 1)
    out = mat_vec([[x, one], [one, y]], [one, x])
    assert out[0] == 2 * x
    assert out[1] == one + x * y
