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
``v`` one weight at a time from the top, dividing by the diagonal entries,
and then recomputes every prescribed pairing on the result.
"""

from __future__ import annotations

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


def solve_descendants(ctx: ModuleContext, targets: Mapping[Partition, LaurentPoly],
                      top_weight: int, constant: LaurentPoly | None = None) -> ModuleVector:
    """Reconstruct a vector from its pairings against all words up to a weight.

    ``targets[mu]`` is the required value of ``{L~_mu v}``; missing words
    default to zero.  The constant term of the result is ``constant`` (the
    pairing never constrains it).  Every prescribed pairing is recomputed on
    the result and must match exactly.
    """
    for mu in targets:
        if not is_partition(mu):
            raise ValueError(f"target word {mu} is not a partition")
        w = sum(mu)
        if w < 1 or w > top_weight:
            raise ValueError(f"target word {mu} outside weight range 1..{top_weight}")
    zero = LaurentPoly.zero(ctx.table)
    solved = ModuleVector(ctx, {} if constant is None else {(): constant})
    for w in range(top_weight, 0, -1):
        layer: dict[Partition, LaurentPoly] = {}
        for mu in partitions_of(w):
            t_mu = targets.get(mu, zero) - gram_entry_on(ctx, mu, solved)
            diag = gram_entry(ctx, mu, mu)
            if diag.is_zero():
                raise SingularGram(f"diagonal pairing entry vanished at {mu}")
            if t_mu.is_zero():
                continue
            try:
                layer[mu] = t_mu.exact_div(diag)
            except NotDivisible as exc:
                raise NotDivisible(
                    f"pairing solve at {mu} leaves the ring: {exc}") from exc
        solved = solved + ModuleVector(ctx, layer)
    for w in range(1, top_weight + 1):
        for mu in partitions_of(w):
            got = gram_entry_on(ctx, mu, solved)
            want = targets.get(mu, zero)
            if got != want:
                raise GramError(f"pairing mismatch at {mu}: {got} != {want}")
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
