"""Time the Laurent-polynomial kernel against the reference kernel of the tests.

    python tools/bench_kernel.py

For each operand shape, two random Laurent polynomials are built from a
fixed seed (SEED), the second reusing the exponent vectors of the first in about
half of its terms.  Each is built once as
``virasoro_irregular.ring.LaurentPoly`` (packed keys, integer numerators)
and once as ``tests/ring_oracle.LaurentPoly`` (Fraction coefficients,
tuple exponents).  Their product, their sum and the exact
division of the product by the second operand are timed on both kernels;
the results are first checked to agree term for term.  One line is printed
per shape and operation: the median and the spread (max - min) of
REPEATS runs in milliseconds for each kernel, and the ratio of the medians.

The ``roadmap`` shape is the stored-coefficient product measured in the
ROADMAP: 131 x 105 terms over 11 variables with about 20-bit numerators.

A second table times ``linalg.adjugate`` on the rank-one level matrices
of levels 4-6 (the columns the level solve asks for) and on the frames of
4-8 rows, ranks 4-8 and 7/2-15/2 (every column), once by expansion and
once by elimination whatever ``linalg.EXPANSION_ROWS`` would pick, after
checking that the two agree entry for entry.  Each line gives the median
and spread of REPEATS runs in milliseconds and the ratio, so that the
threshold can be re-checked.

A third table times the report writer, ``serialize.series_to_doc`` plus
``serialize.dumps`` into ``os.devnull``, on the rank-one series of orders 4
and 5 and on ``solve_integer(2, 4)``: the report size, then the median and
spread of REPEATS runs in milliseconds.
Stdlib only.
"""

from __future__ import annotations

import os
import random
import statistics
import sys
import time
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

import ring_oracle  # noqa: E402
from virasoro_irregular import linalg, serialize  # noqa: E402
from virasoro_irregular.frames import HALF, INTEGER, Family  # noqa: E402
from virasoro_irregular.gram import gram_entry  # noqa: E402
from virasoro_irregular.ring import LaurentPoly, VarTable  # noqa: E402
from virasoro_irregular.serialize import format_rank  # noqa: E402
from virasoro_irregular.solver import rank1_series, solve_integer  # noqa: E402
from virasoro_irregular.virasoro import partitions_of, verma_context  # noqa: E402

REPEATS = 7
SEED = 20261018

# name, variables, terms of each operand, exponent range, numerator bits
SHAPES = [
    ("roadmap", 11, (131, 105), (-1, 3), 20),
    ("three-var", 3, (60, 45), (0, 8), 20),
]
# denominators divide 8640 = 2^6 3^3 5, as solver coefficients share theirs
DENOMINATORS = [d for d in range(1, 8641) if 8640 % d == 0]


def operand_terms(rng: random.Random, nvars: int, nterms: int,
                  span: tuple[int, int], bits: int, shared: tuple = ()) -> dict:
    """Random terms; half of them reuse exponent vectors from ``shared``."""
    terms: dict[tuple[int, ...], Fraction] = {}
    while len(terms) < nterms:
        if shared and rng.random() < 0.5:
            exps = rng.choice(shared)
        else:
            exps = tuple(rng.randint(*span) for _ in range(nvars))
        num = rng.getrandbits(bits) | 1 << (bits - 1)
        terms[exps] = Fraction(num if rng.random() < 0.5 else -num,
                               rng.choice(DENOMINATORS))
    return terms


def median_ms(fn) -> tuple[float, float]:
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn()
        times.append((time.perf_counter() - start) * 1e3)
    return statistics.median(times), max(times) - min(times)


def main() -> int:
    print(f"python {sys.version.split()[0]}, {os.cpu_count()} CPUs, "
          f"{REPEATS} repeats, seed {SEED}")
    print(f"{'shape':<10} {'operation':<10} {'oracle ms (spread)':>20} "
          f"{'kernel ms (spread)':>20} {'speedup':>8}")
    rng = random.Random(SEED)
    for name, nvars, (na, nb), span, bits in SHAPES:
        table = VarTable([f"x{i}" for i in range(nvars)], [1] * nvars)
        ta = operand_terms(rng, nvars, na, span, bits)
        tb = operand_terms(rng, nvars, nb, span, bits, shared=tuple(ta))
        kernels = {}
        for label, cls in (("oracle", ring_oracle.LaurentPoly), ("kernel", LaurentPoly)):
            a, b = cls(table, ta), cls(table, tb)
            prod = a * b
            kernels[label] = {
                "product": (lambda a=a, b=b: a * b, prod),
                "sum": (lambda a=a, b=b: a + b, a + b),
                "exact_div": (lambda p=prod, b=b: p.exact_div(b), prod.exact_div(b)),
            }
        for op in ("product", "sum", "exact_div"):
            results = [kernels[k][op][1].sorted_terms() for k in ("oracle", "kernel")]
            if results[0] != results[1]:
                print(f"{name}: {op} differs between the kernels", file=sys.stderr)
                return 1
            (old, old_spread), (new, new_spread) = (
                median_ms(kernels[k][op][0]) for k in ("oracle", "kernel"))
            print(f"{name:<10} {op:<10} {old:>10.3f} ({old_spread:>7.3f}) "
                  f"{new:>10.3f} ({new_spread:>7.3f}) {old / new:>7.1f}x")
    return adjugate_table() or writer_table()


def adjugate_matrices():
    """``(name, rows, cols)`` for the level matrices and the frames."""
    table = VarTable(("Delta", "c"), (0, 0))
    ctx = verma_context(table, LaurentPoly.var(table, "Delta"), LaurentPoly.var(table, "c"))
    for k in (4, 5, 6):
        lams = partitions_of(k)
        rows = [[gram_entry(ctx, mu, lam) for lam in lams] for mu in lams]
        yield f"level {k}", rows, [j for j, lam in enumerate(lams) if lam[0] <= 2]
    for kind in (INTEGER, HALF):
        for r in range(4, 9):
            family = Family(kind, r)
            yield f"rank {format_rank(family)}", family.frame_matrix(family.frame_table()), None


def adjugate_table() -> int:
    print(f"\n{'matrix':<10} {'rows':>4} {'expansion ms (spread)':>22} "
          f"{'elimination ms (spread)':>24} {'ratio':>6}  "
          f"(EXPANSION_ROWS = {linalg.EXPANSION_ROWS})")
    threshold = linalg.EXPANSION_ROWS
    try:
        for name, rows, cols in adjugate_matrices():
            timings, results = [], []
            for limit in (len(rows), 0):   # expand, then eliminate
                linalg.EXPANSION_ROWS = limit
                results.append(linalg.adjugate(rows, cols))
                timings.append(median_ms(lambda: linalg.adjugate(rows, cols)))
            if results[0] != results[1]:
                print(f"{name}: the expansion and the elimination differ", file=sys.stderr)
                return 1
            (exp, exp_spread), (elim, elim_spread) = timings
            print(f"{name:<10} {len(rows):>4} {exp:>12.2f} ({exp_spread:>7.2f}) "
                  f"{elim:>14.2f} ({elim_spread:>7.2f}) {elim / exp:>5.1f}x")
    finally:
        linalg.EXPANSION_ROWS = threshold
    return 0


def writer_table() -> int:
    print(f"\n{'series':<20} {'report bytes':>12} {'writer ms (spread)':>20}")
    cases = [("rank1_series(4)", rank1_series(4)), ("rank1_series(5)", rank1_series(5)),
             ("solve_integer(2, 4)", solve_integer(2, 4))]
    with open(os.devnull, "w", encoding="utf-8") as devnull:
        for name, series in cases:
            size = len(serialize.dumps(serialize.series_to_doc(series)))
            ms, spread = median_ms(
                lambda: serialize.dumps(serialize.series_to_doc(series), devnull))
            print(f"{name:<20} {size:>12} {ms:>10.2f} ({spread:>7.2f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
