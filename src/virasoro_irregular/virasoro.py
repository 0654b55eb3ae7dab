"""Virasoro mode actions on modules built over a single cyclic vector.

A module context of rank ``rho`` is generated by a cyclic vector ``u`` on
which modes with index above ``2*rho`` vanish, modes with index ``rho`` to
``2*rho`` act by the eigenvalues in the context table, and modes with index
below ``rho`` act freely.  The basis is indexed by integer partitions: the
partition ``(a_1 >= ... >= a_l)`` labels the vector

    L_{rho - a_1} L_{rho - a_2} ... L_{rho - a_l} u

so the leftmost factor carries the most negative mode.  Rank ``0`` recovers
an ordinary highest-weight module whose cyclic vector has L_0-eigenvalue
``eigen[0]``.

Straightening uses the commutation rule

    [L_m, L_n] = (m - n) L_{m+n} + (c/12) (m^3 - m) delta_{m+n,0}

and memoizes the action of each mode on each basis element per context,
and with it the pairing of each shifted word against each basis element.
Every scalar and every vector coefficient, at every rank, is a
:class:`LaurentPoly` over the context's table.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator, Mapping

from .ring import LaurentPoly, VarTable, dot

Partition = tuple[int, ...]


# ----- partitions ---------------------------------------------------------


def partitions_of(n: int, max_part: int | None = None) -> list[Partition]:
    """Partitions of ``n`` in descending lexicographic order, largest part first."""
    if n < 0:
        return []
    if n == 0:
        return [()]
    cap = n if max_part is None else min(max_part, n)
    out: list[Partition] = []
    for first in range(cap, 0, -1):
        for rest in partitions_of(n - first, first):
            out.append((first,) + rest)
    return out


def partition_sort_key(lam: Partition) -> tuple:
    """Sort key: ascending weight, then descending lexicographic within a weight."""
    return (sum(lam), tuple(-p for p in lam))


def is_partition(lam: Iterable[int]) -> bool:
    lam = tuple(lam)
    return all(isinstance(p, int) and p >= 1 for p in lam) and all(
        lam[i] >= lam[i + 1] for i in range(len(lam) - 1)
    )


# ----- module context -----------------------------------------------------


class ModuleContext:
    """Fixed rank, eigenvalue table and central charge for one module.

    ``eigen`` must assign a scalar to every mode index from ``rho`` to
    ``2*rho`` inclusive.  The straightening and pairing caches live on the
    context, so contexts are cheap to query repeatedly and should be shared;
    :meth:`drop_caches` frees them once they are no longer needed.
    """

    __slots__ = ("table", "rho", "eigen", "c_vir", "_zero", "_one", "_mode_cache",
                 "_pairing_cache")

    def __init__(self, table: VarTable, rho: int,
                 eigen: Mapping[int, LaurentPoly | Fraction | int],
                 c_vir: LaurentPoly | Fraction | int):
        if rho < 0:
            raise ValueError("rank must be non-negative")
        expected = set(range(rho, 2 * rho + 1))
        if set(eigen) != expected:
            raise ValueError(f"eigen table must cover modes {sorted(expected)}")
        self.table = table
        self.rho = rho
        self.eigen = {n: self._scalar(table, v) for n, v in eigen.items()}
        self.c_vir = self._scalar(table, c_vir)
        self._zero = LaurentPoly.zero(table)
        self._one = LaurentPoly.const(table, 1)
        self._mode_cache: dict[tuple[int, Partition], dict[Partition, LaurentPoly]] = {}
        # pairing entries {L~_mu b_lam} as [mu][lam], filled by :meth:`pairing`
        self._pairing_cache: dict[Partition, dict[Partition, LaurentPoly]] = {}

    def drop_caches(self) -> None:
        """Release the straightening and pairing caches once a caller is done
        with them; both refill on demand if the context is used again."""
        self._mode_cache.clear()
        self._pairing_cache.clear()

    @staticmethod
    def _scalar(table: VarTable, v) -> LaurentPoly:
        if isinstance(v, LaurentPoly):
            if v.table != table:
                return v.migrate(table)
            return v
        return LaurentPoly.const(table, v)

    def eigenvalue(self, n: int) -> LaurentPoly:
        """Scalar action of mode ``n`` on the cyclic vector (``n >= rho``)."""
        if n < self.rho:
            raise ValueError(f"mode {n} acts freely, it has no eigenvalue")
        return self.eigen.get(n, self._zero)

    def cyclic(self, coeff=None) -> "ModuleVector":
        return ModuleVector(self, {(): self._one if coeff is None else coeff})

    def basis(self, lam: Iterable[int], coeff=None) -> "ModuleVector":
        lam = tuple(lam)
        if not is_partition(lam):
            raise ValueError(f"not a partition: {lam}")
        return ModuleVector(self, {lam: self._one if coeff is None else coeff})

    # cached straightening on basis elements --------------------------------

    def _apply_basis(self, n: int, lam: Partition) -> dict[Partition, LaurentPoly]:
        key = (n, lam)
        hit = self._mode_cache.get(key)
        if hit is not None:
            return hit
        rho = self.rho
        out: dict[Partition, LaurentPoly] = {}
        if not lam:
            if n < rho:
                out[(rho - n,)] = self._one
            else:
                ev = self.eigenvalue(n)
                if not ev.is_zero():
                    out[()] = ev
        else:
            m1 = rho - lam[0]
            if n <= m1:
                out[(rho - n,) + lam] = self._one
            else:
                rest = lam[1:]
                # L_n L_{m1} = L_{m1} L_n + (n - m1) L_{n+m1} [+ central]
                terms = [(c, self._apply_basis(m1, mu))
                         for mu, c in self._apply_basis(n, rest).items()]
                terms.append((LaurentPoly.const(self.table, n - m1),
                              self._apply_basis(n + m1, rest)))
                if n + m1 == 0:
                    terms.append((self.c_vir * Fraction(n ** 3 - n, 12), {rest: self._one}))
                out = _combine(self.table, terms)
        self._mode_cache[key] = out
        return out

    # cached pairing on basis elements --------------------------------------

    def pairing(self, mu: Partition, lam: Partition) -> LaurentPoly:
        """``{L~_mu b_lam}`` for partitions ``mu`` and ``lam`` (unchecked):
        zero when ``|lam| < |mu|``, else the innermost word factor is peeled
        off ``mu`` and paired through one cached mode action.  Terms known
        to vanish are skipped, not summed: zero sub-entries, and the
        eigenvalue term of a mode whose eigenvalue is zero (every mode above
        ``2 * rho``), whose sub-entry is then not computed."""
        row = self._pairing_cache.get(mu)
        entry = None if row is None else row.get(lam)
        if entry is not None:
            return entry
        if sum(lam) < sum(mu):
            return self._zero
        if not mu:
            entry = self._zero if lam else self._one
        else:
            n, rest = mu[0] + self.rho, mu[1:]
            pairs = [(d, sub) for nu, d in self._apply_basis(n, lam).items()
                     if (sub := self.pairing(rest, nu)).terms]
            ev = self.eigenvalue(n)
            if ev.terms and (sub := self.pairing(rest, lam)).terms:
                pairs.append((-ev, sub))
            entry = dot(self.table, pairs) if pairs else self._zero
            if entry.is_zero():
                entry = self._zero   # most entries vanish; share one zero
        self._pairing_cache.setdefault(mu, {})[lam] = entry
        return entry


def _combine(table: VarTable, terms: Iterable[tuple[LaurentPoly, Mapping]]) -> dict:
    """Coefficients of ``sum s * v`` over ``(s, v)`` terms, ``v`` a coefficient
    map: one ``dot`` per partition, and a partition whose sum vanishes is
    dropped."""
    gathered: dict[Partition, list] = {}
    for s, parts in terms:
        for lam, c in parts.items():
            gathered.setdefault(lam, []).append((s, c))
    out = {}
    for lam, pairs in gathered.items():
        total = dot(table, pairs)
        if total.terms:
            out[lam] = total
    return out


def combine(ctx: "ModuleContext", terms: Iterable[tuple[LaurentPoly, "ModuleVector"]]
            ) -> "ModuleVector":
    """The vector ``sum s * v`` over ``(s, v)`` terms."""
    v = ModuleVector(ctx)
    v.parts = _combine(ctx.table, ((s, vec.parts) for s, vec in terms))
    return v


def _accumulate(store: dict, key, value) -> None:
    prior = store.get(key)
    if prior is None:
        if value.terms:
            store[key] = value
        return
    total = prior + value
    if not total.terms:
        del store[key]
    else:
        store[key] = total


def verma_context(table: VarTable, delta, c_vir) -> ModuleContext:
    """Highest-weight module: rank 0 with L_0 acting by ``delta``."""
    return ModuleContext(table, 0, {0: delta}, c_vir)


# ----- module vectors ------------------------------------------------------


class ModuleVector:
    """Finite linear combination of basis vectors of one module context.

    Coefficients are LaurentPolys at every rank; a rank-one level is stored
    as its polynomial numerator vector, its one denominator kept beside it
    (``IrregularSeries.dens``).  Zero coefficients are dropped on
    construction.  Keys are partitions: the constructor does not check
    them, but ``ModuleContext.basis`` and the report reader do.
    """

    __slots__ = ("ctx", "parts")

    def __init__(self, ctx: ModuleContext,
                 parts: Mapping[Partition, LaurentPoly] | None = None):
        self.ctx = ctx
        self.parts: dict[Partition, LaurentPoly] = {}
        if parts:
            for lam, c in parts.items():
                if c.terms:
                    self.parts[tuple(lam)] = c

    @property
    def table(self) -> VarTable:
        return self.ctx.table

    def is_zero(self) -> bool:
        return not self.parts

    def coeff(self, lam: Iterable[int]):
        return self.parts.get(tuple(lam), self.ctx._zero)

    def constant_term(self):
        """Coefficient of the cyclic vector."""
        return self.parts.get((), self.ctx._zero)

    def items(self) -> Iterator[tuple[Partition, LaurentPoly]]:
        return iter(sorted(self.parts.items(), key=lambda kv: partition_sort_key(kv[0])))

    def max_weight(self) -> int:
        return max((sum(lam) for lam in self.parts), default=0)

    def map_coeffs(self, fn) -> "ModuleVector":
        return ModuleVector(self.ctx, {lam: fn(c) for lam, c in self.parts.items()})

    def __add__(self, other: "ModuleVector") -> "ModuleVector":
        if not isinstance(other, ModuleVector):
            return NotImplemented
        if other.ctx is not self.ctx:
            raise ValueError("vectors from different module contexts")
        out = dict(self.parts)
        for lam, c in other.parts.items():
            _accumulate(out, lam, c)
        v = ModuleVector(self.ctx)
        v.parts = out
        return v

    def __neg__(self) -> "ModuleVector":
        return self.map_coeffs(lambda c: -c)

    def __sub__(self, other: "ModuleVector") -> "ModuleVector":
        if not isinstance(other, ModuleVector):
            return NotImplemented
        return self + (-other)

    def scale(self, scalar) -> "ModuleVector":
        return self.map_coeffs(lambda c: c * scalar)

    __mul__ = scale

    def split_by_var(self, name: str) -> dict[int, "ModuleVector"]:
        """Decompose as a finite Laurent polynomial in ``name`` with vector
        coefficients free of it."""
        out: dict[int, dict[Partition, LaurentPoly]] = {}
        for lam, c in self.parts.items():
            for d, part in c.split_by_var(name).items():
                out.setdefault(d, {})[lam] = part
        return {d: ModuleVector(self.ctx, parts) for d, parts in out.items()}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ModuleVector):
            return NotImplemented
        return (self - other).is_zero()

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        if not self.parts:
            return "ModuleVector(0)"
        bits = [f"{lam}: {c}" for lam, c in self.items()]
        return "ModuleVector({" + ", ".join(bits) + "})"


# ----- mode application -----------------------------------------------------


def apply_mode(vec: ModuleVector, n: int) -> ModuleVector:
    """Act with L_n, straightening back onto the partition basis."""
    ctx = vec.ctx
    images = [(c, ctx._apply_basis(n, lam)) for lam, c in vec.parts.items()]
    v = ModuleVector(ctx)
    v.parts = _combine(ctx.table, images)
    return v


def apply_tilde(vec: ModuleVector, n: int) -> ModuleVector:
    """Act with L_n minus its cyclic-vector eigenvalue (``n >= rho``)."""
    ev = vec.ctx.eigenvalue(n)
    shifted = apply_mode(vec, n)
    if ev.is_zero():
        return shifted
    return shifted - vec.scale(ev)


def apply_tilde_word(vec: ModuleVector, lam: Iterable[int]) -> ModuleVector:
    """Act with the shifted word attached to partition ``lam``.

    Part ``a`` contributes the shifted mode ``a + rho``; the factor for the
    largest part sits innermost, so it is applied first.
    """
    lam = tuple(lam)
    if not is_partition(lam):
        raise ValueError(f"not a partition: {lam}")
    rho = vec.ctx.rho
    out = vec
    for a in lam:
        out = apply_tilde(out, a + rho)
    return out
