"""Pairing between shifted-word functionals and the partition basis.

The scalar ``{X}`` denotes the coefficient of the cyclic vector in ``X``.
The pairing matrix ``G(mu, lam) = {L~_mu b_lam}`` pairs the shifted word of
``mu`` against the basis vector of ``lam``.  Every pairing in the package is
read from this one matrix, which :meth:`ModuleContext.pairing` caches per
module context and fills lazily by peeling the innermost (largest) word
factor off ``mu``:

* ``G((), lam) = [lam == ()]``;
* ``G(mu, lam) = 0`` whenever ``|lam| < |mu|``: a shifted mode
  ``L~_{a + rho}`` lowers the partition weight by at least ``a``;
* otherwise ``G(mu, lam) = sum_nu [L~_{mu_1 + rho} b_lam]_nu G(mu[1:], nu)``,
  where the one-mode action comes from the context's straightening cache.

The pairing of a word with any vector is then ``sum_lam v_lam G(mu, lam)``
over ``|lam| >= |mu|``.  Equal-weight blocks are diagonal, with closed-form
diagonal entries

      2^len * prod(parts) * prod(multiplicity!) * top_eigenvalue^len

where ``top_eigenvalue`` is the eigenvalue of the highest annihilating mode
``2 * rho``.  Determinants of weight ranges are therefore pure powers of the
top eigenvalue up to a rational factor; ``pure_power_factor`` factors a
determinant computed honestly (fraction-free elimination, no use of the
closed form), so any deviation surfaces as an error.  Tests check the
cached entries against whole-word application.

``solve_descendants`` inverts the pairing: given the values ``{L~_mu v}``
for every word up to a weight bound, it reconstructs the descendant part of
``v`` one weight at a time from the top, dividing by the closed-form
diagonal, and re-checks each layer through its cached equal-weight block.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Mapping

from .ring import LaurentPoly, NotDivisible, RingError, dot
from .virasoro import (
    ModuleContext,
    ModuleVector,
    Partition,
    is_partition,
    partition_sort_key,
    partitions_of,
)


class GramError(RingError):
    """Structural failure in the pairing machinery."""


class SingularGram(GramError):
    """A diagonal pairing entry vanished, so the solve cannot proceed."""


class ProportionalityFailure(GramError):
    """A determinant is not a rational multiple of a pure eigenvalue power."""


def gram_entry(ctx: ModuleContext, mu: Partition, lam: Partition) -> LaurentPoly:
    """Pairing of the shifted word of ``mu`` against the basis vector of ``lam``."""
    if not (is_partition(mu) and is_partition(lam)):
        raise ValueError(f"not a pair of partitions: {mu}, {lam}")
    return ctx.pairing(mu, lam)


def weight_range_partitions(lo: int, hi: int) -> list[Partition]:
    out: list[Partition] = []
    for w in range(lo, hi + 1):
        out.extend(partitions_of(w))
    return sorted(out, key=partition_sort_key)


def gram_matrix(ctx: ModuleContext, lo: int, hi: int
                ) -> tuple[list[Partition], list[list[LaurentPoly]]]:
    """Pairing matrix over all partitions with weight in ``[lo, hi]``."""
    parts = weight_range_partitions(lo, hi)
    rows = [[gram_entry(ctx, mu, lam) for lam in parts] for mu in parts]
    return parts, rows


def pure_power_factor(poly: LaurentPoly, base: LaurentPoly) -> tuple[int, Fraction]:
    """Write ``poly`` as ``ratio * base**exponent`` or raise ProportionalityFailure.

    The candidate exponent is forced by the grading: both operands must be
    quasi-homogeneous and the base must carry nonzero weight (every
    eigenvalue base here does), so a single exact division decides.
    """
    if poly.is_zero():
        raise ProportionalityFailure("zero cannot be a pure power")
    if poly.is_constant():
        return 0, poly.as_rational()
    w_base = base.homogeneous_weight()
    w_poly = poly.homogeneous_weight()
    if not w_base:
        raise ProportionalityFailure("base must carry nonzero weight")
    if w_poly is None or w_poly % w_base != 0 or w_poly // w_base < 0:
        raise ProportionalityFailure("weights rule out a pure power")
    exponent = w_poly // w_base
    try:
        ratio = poly.exact_div(base ** exponent)
    except NotDivisible:
        raise ProportionalityFailure(
            f"base power {exponent} does not divide the determinant") from None
    if not ratio.is_constant():
        raise ProportionalityFailure(
            f"cofactor of base power {exponent} is not rational")
    return exponent, ratio.as_rational()


def _diagonal_factor(mu: Partition) -> int:
    """``2^len * prod(parts) * prod(multiplicity!)``, the closed-form diagonal
    entry at ``mu`` over its power of the top eigenvalue."""
    return (2 ** len(mu) * math.prod(mu)
            * math.prod(math.factorial(mu.count(p)) for p in set(mu)))


def _check_layer(ctx: ModuleContext, rests: Mapping[Partition, LaurentPoly],
                 layer: ModuleVector) -> None:
    """Raise GramError unless each word ``mu`` pairs ``layer`` to ``rests[mu]``."""
    for mu, rest in rests.items():
        got = gram_entry_on(ctx, mu, layer)
        if got != rest:
            raise GramError(f"pairing mismatch at {mu}: {got} != {rest}")


def solve_descendants(ctx: ModuleContext, targets: Mapping[Partition, LaurentPoly],
                      top_weight: int, constant: LaurentPoly | None = None) -> ModuleVector:
    """Reconstruct a vector from its pairings against all words up to a weight.

    ``targets[mu]`` is the required value of ``{L~_mu v}``; missing words
    default to zero.  The constant term of the result is ``constant`` (the
    pairing never constrains it).  Layer ``w`` divides ``rest_mu = t_mu -
    {L~_mu (heavier layers)}`` by the closed-form diagonal, then must pair
    back to every ``rest_mu`` through the cached equal-weight block.  As
    lighter layers pair to zero with these words, that is exactly the check
    that every prescribed pairing holds on the result, and it re-derives
    each diagonal entry it divided by.  Needs rank ``rho >= 1``.
    """
    for mu in targets:
        if not is_partition(mu):
            raise ValueError(f"target word {mu} is not a partition")
        w = sum(mu)
        if w < 1 or w > top_weight:
            raise ValueError(f"target word {mu} outside weight range 1..{top_weight}")
    if ctx.rho == 0:
        raise ValueError("rank 0: the pairing blocks of a Verma module are not diagonal")
    top = ctx.eigenvalue(2 * ctx.rho)
    if top.is_zero():
        raise SingularGram("every diagonal pairing entry vanishes with the top eigenvalue")
    powers = [top ** n for n in range(top_weight + 1)]
    zero = LaurentPoly.zero(ctx.table)
    solved = ModuleVector(ctx, {} if constant is None else {(): constant})
    for w in range(top_weight, 0, -1):
        rests: dict[Partition, LaurentPoly] = {}
        layer: dict[Partition, LaurentPoly] = {}
        for mu in partitions_of(w):
            rest = rests[mu] = targets.get(mu, zero) - gram_entry_on(ctx, mu, solved)
            if rest.is_zero():
                continue
            layer[mu] = rest.exact_div(powers[len(mu)] * _diagonal_factor(mu))
        vec = ModuleVector(ctx, layer)
        _check_layer(ctx, rests, vec)
        solved = solved + vec
    return solved


def gram_entry_on(ctx: ModuleContext, mu: Partition, vec: ModuleVector) -> LaurentPoly:
    """Value of ``{L~_mu vec}`` for an arbitrary vector.

    Only ``mu`` is checked: the keys of a vector are partitions.
    """
    if not is_partition(mu):
        raise ValueError(f"not a partition: {mu}")
    w = sum(mu)
    return dot(ctx.table, [(c, ctx.pairing(mu, lam))
                           for lam, c in vec.parts.items() if sum(lam) >= w])
