"""Reference Laurent-polynomial kernel: Fraction coefficients, tuple exponents.

This is the straightforward representation the package kernel replaced:
terms are ``{exponent tuple: Fraction}`` with zero coefficients dropped.
It shares no arithmetic with ``virasoro_irregular.ring`` (only the variable
table and the exception classes), so the differential tests in
``test_ring_kernel.py`` and ``tools/bench_kernel.py`` use it as an oracle.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence

from virasoro_irregular.ring import (NotDivisible, RingError, VarTable,
                                     VariableMismatch)


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected exact rational, got {type(value).__name__}")


def _grlex_key(exps: tuple[int, ...]) -> tuple:
    # Graded lexicographic: compare total degree first, then the exponent
    # vector itself.  Works for negative exponents too (total order).
    return (sum(exps), exps)


class LaurentPoly:
    """Sparse multivariate Laurent polynomial with Fraction coefficients.

    Terms are stored as ``{exponent tuple: Fraction}`` with zero
    coefficients dropped, so equality of dicts is equality of polynomials.
    Instances are treated as immutable; all operations return new objects.
    """

    __slots__ = ("table", "terms")

    def __init__(self, table: VarTable, terms: Mapping[tuple[int, ...], Fraction] | None = None):
        self.table = table
        self.terms: dict[tuple[int, ...], Fraction] = {}
        if terms:
            n = len(table)
            for exps, coeff in terms.items():
                if len(exps) != n:
                    raise ValueError("exponent vector length mismatch")
                c = _as_fraction(coeff)
                if c:
                    self.terms[tuple(exps)] = c

    # ----- constructors -------------------------------------------------

    @staticmethod
    def zero(table: VarTable) -> "LaurentPoly":
        return LaurentPoly(table)

    @staticmethod
    def const(table: VarTable, value) -> "LaurentPoly":
        c = _as_fraction(value)
        p = LaurentPoly(table)
        if c:
            p.terms[(0,) * len(table)] = c
        return p

    @staticmethod
    def var(table: VarTable, name: str, power: int = 1, coeff=1) -> "LaurentPoly":
        exps = [0] * len(table)
        exps[table.index(name)] = power
        return LaurentPoly(table, {tuple(exps): _as_fraction(coeff)})

    @staticmethod
    def monomial(table: VarTable, exps: Sequence[int], coeff=1) -> "LaurentPoly":
        return LaurentPoly(table, {tuple(int(e) for e in exps): _as_fraction(coeff)})

    # ----- basic queries ------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        if not self.terms:
            return True
        zero = (0,) * len(self.table)
        return len(self.terms) == 1 and zero in self.terms

    def as_rational(self) -> Fraction:
        """Return the constant value; raises if the polynomial is not constant."""
        if not self.terms:
            return Fraction(0)
        zero = (0,) * len(self.table)
        if len(self.terms) == 1 and zero in self.terms:
            return self.terms[zero]
        raise RingError(f"not a constant: {self}")

    def is_unit_monomial(self) -> bool:
        """True when the polynomial is a single term (hence invertible)."""
        return len(self.terms) == 1

    def leading(self) -> tuple[tuple[int, ...], Fraction]:
        """Largest term in graded-lex order."""
        if not self.terms:
            raise RingError("zero polynomial has no leading term")
        exps = max(self.terms, key=_grlex_key)
        return exps, self.terms[exps]

    def sorted_terms(self) -> list[tuple[tuple[int, ...], Fraction]]:
        """Terms in descending graded-lex order (canonical output order)."""
        return sorted(self.terms.items(), key=lambda kv: _grlex_key(kv[0]), reverse=True)

    def degree_in(self, name: str) -> tuple[int, int]:
        """(min, max) exponent of ``name`` over the support; (0, 0) if absent."""
        i = self.table.index(name)
        if not self.terms:
            return (0, 0)
        es = [exps[i] for exps in self.terms]
        return (min(es), max(es))

    def uses_var(self, name: str) -> bool:
        i = self.table.index(name)
        return any(exps[i] for exps in self.terms)

    def support_vars(self) -> set[str]:
        used: set[str] = set()
        for exps in self.terms:
            for i, e in enumerate(exps):
                if e:
                    used.add(self.table.names[i])
        return used

    # ----- arithmetic ---------------------------------------------------

    def _check(self, other: "LaurentPoly") -> None:
        if self.table is not other.table and self.table != other.table:
            raise VariableMismatch("operands over different variable tables")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.const(self.table, other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        self._check(other)
        out = dict(self.terms)
        for exps, c in other.terms.items():
            s = out.get(exps)
            if s is None:
                out[exps] = c
            else:
                s = s + c
                if s:
                    out[exps] = s
                else:
                    del out[exps]
        p = LaurentPoly(self.table)
        p.terms = out
        return p

    __radd__ = __add__

    def __neg__(self):
        p = LaurentPoly(self.table)
        p.terms = {exps: -c for exps, c in self.terms.items()}
        return p

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.const(self.table, other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.__add__(other.__neg__())

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _as_fraction(other)
            if not c:
                return LaurentPoly(self.table)
            p = LaurentPoly(self.table)
            p.terms = {exps: coeff * c for exps, coeff in self.terms.items()}
            return p
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        self._check(other)
        out: dict[tuple[int, ...], Fraction] = {}
        if len(self.terms) > len(other.terms):
            a, b = other.terms, self.terms
        else:
            a, b = self.terms, other.terms
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                exps = tuple(x + y for x, y in zip(e1, e2))
                c = c1 * c2
                s = out.get(exps)
                if s is None:
                    out[exps] = c
                else:
                    s = s + c
                    if s:
                        out[exps] = s
                    else:
                        del out[exps]
        p = LaurentPoly(self.table)
        p.terms = out
        return p

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            if self.is_unit_monomial():
                (exps, c), = self.terms.items()
                inv = LaurentPoly.monomial(self.table, tuple(-e for e in exps), Fraction(1) / c)
                return inv ** (-n)
            raise NotDivisible("negative power of a non-monomial")
        result = LaurentPoly.const(self.table, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.const(self.table, other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.table == other.table and self.terms == other.terms

    __hash__ = None  # type: ignore[assignment]

    # ----- calculus and structure ----------------------------------------

    def derivative(self, name: str) -> "LaurentPoly":
        i = self.table.index(name)
        out: dict[tuple[int, ...], Fraction] = {}
        for exps, c in self.terms.items():
            e = exps[i]
            if e == 0:
                continue
            new = list(exps)
            new[i] = e - 1
            key = tuple(new)
            s = out.get(key, Fraction(0)) + c * e
            if s:
                out[key] = s
            elif key in out:
                del out[key]
        p = LaurentPoly(self.table)
        p.terms = out
        return p

    def coeff_of_power(self, name: str, k: int) -> "LaurentPoly":
        """Coefficient of ``name**k`` (the variable is removed from the result)."""
        i = self.table.index(name)
        out: dict[tuple[int, ...], Fraction] = {}
        for exps, c in self.terms.items():
            if exps[i] != k:
                continue
            new = list(exps)
            new[i] = 0
            out[tuple(new)] = c
        p = LaurentPoly(self.table)
        p.terms = out
        return p

    def split_by_var(self, name: str) -> dict[int, "LaurentPoly"]:
        """Decompose as a finite Laurent polynomial in ``name``."""
        i = self.table.index(name)
        buckets: dict[int, dict[tuple[int, ...], Fraction]] = {}
        for exps, c in self.terms.items():
            new = list(exps)
            k = new[i]
            new[i] = 0
            buckets.setdefault(k, {})[tuple(new)] = c
        out = {}
        for k, terms in buckets.items():
            p = LaurentPoly(self.table)
            p.terms = terms
            out[k] = p
        return out

    def subs(self, assignments: Mapping[str, "LaurentPoly"]) -> "LaurentPoly":
        """Substitute variables by polynomials (exact; negative powers need units)."""
        idx = {self.table.index(name): poly for name, poly in assignments.items()}
        result = LaurentPoly(self.table)
        for exps, c in self.terms.items():
            factor = LaurentPoly.const(self.table, c)
            rest = list(exps)
            for i, poly in idx.items():
                e = rest[i]
                if e:
                    rest[i] = 0
                    factor = factor * (poly ** e)
            term = LaurentPoly.monomial(self.table, tuple(rest), 1)
            result = result + factor * term
        return result

    def weighted_degrees(self) -> set[int]:
        """Set of quasi-homogeneous weights present in the support."""
        ws = self.table.weights
        return {sum(e * w for e, w in zip(exps, ws)) for exps in self.terms}

    def homogeneous_weight(self) -> int | None:
        """The single weight if quasi-homogeneous (0 for the zero poly), else None."""
        degs = self.weighted_degrees()
        if not degs:
            return 0
        if len(degs) == 1:
            return next(iter(degs))
        return None

    def migrate(self, table: VarTable) -> "LaurentPoly":
        """Re-express over another table; every used variable must exist there."""
        if table == self.table:
            return self
        mapping = [table.index(name) if name in table.names else -1
                   for name in self.table.names]
        out: dict[tuple[int, ...], Fraction] = {}
        n = len(table)
        for exps, c in self.terms.items():
            new = [0] * n
            for i, e in enumerate(exps):
                if not e:
                    continue
                j = mapping[i]
                if j < 0:
                    raise VariableMismatch(
                        f"variable {self.table.names[i]!r} missing from target table")
                new[j] = e
            out[tuple(new)] = c
        p = LaurentPoly(table)
        p.terms = out
        return p

    # ----- exact division -------------------------------------------------

    def exact_div(self, divisor: "LaurentPoly") -> "LaurentPoly":
        """Exact quotient in the Laurent ring; raises NotDivisible otherwise."""
        if isinstance(divisor, (int, Fraction)):
            divisor = LaurentPoly.const(self.table, divisor)
        self._check(divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        if self.is_zero():
            return LaurentPoly(self.table)
        if divisor.is_unit_monomial():
            (dexps, dc), = divisor.terms.items()
            p = LaurentPoly(self.table)
            p.terms = {
                tuple(e - d for e, d in zip(exps, dexps)): c / dc
                for exps, c in self.terms.items()
            }
            return p
        # Shift both operands into the polynomial subring so that, for each
        # variable, the minimal exponent is zero; a Laurent quotient of the
        # shifted operands is then forced to be an honest polynomial.
        n = len(self.table)
        shift_a = [min(exps[i] for exps in self.terms) for i in range(n)]
        shift_b = [min(exps[i] for exps in divisor.terms) for i in range(n)]
        a = {tuple(e - s for e, s in zip(exps, shift_a)): c for exps, c in self.terms.items()}
        b = {tuple(e - s for e, s in zip(exps, shift_b)): c for exps, c in divisor.terms.items()}
        quot = _poly_exact_div(a, b)
        if quot is None:
            raise NotDivisible("quotient does not lie in the Laurent ring")
        back = tuple(sa - sb for sa, sb in zip(shift_a, shift_b))
        p = LaurentPoly(self.table)
        p.terms = {tuple(e + s for e, s in zip(exps, back)): c for exps, c in quot.items()}
        return p

    # ----- rendering -------------------------------------------------------

    def __repr__(self) -> str:
        return f"LaurentPoly({self})"

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        pieces = []
        for exps, c in self.sorted_terms():
            factors = []
            for name, e in zip(self.table.names, exps):
                if e == 0:
                    continue
                factors.append(name if e == 1 else f"{name}^{e}")
            if not factors:
                body = str(c)
            else:
                mono = "*".join(factors)
                if c == 1:
                    body = mono
                elif c == -1:
                    body = f"-{mono}"
                else:
                    body = f"{c}*{mono}"
            pieces.append(body)
        text = pieces[0]
        for body in pieces[1:]:
            text += f" - {body[1:]}" if body.startswith("-") else f" + {body}"
        return text


def _poly_exact_div(a: dict, b: dict) -> dict | None:
    """Exact division of polynomial term-dicts (non-negative exponents)."""
    rem = dict(a)
    lead_b = max(b, key=_grlex_key)
    cb = b[lead_b]
    quot: dict[tuple[int, ...], Fraction] = {}
    while rem:
        lead_r = max(rem, key=_grlex_key)
        qexp = tuple(er - eb for er, eb in zip(lead_r, lead_b))
        if any(e < 0 for e in qexp):
            return None
        qc = rem[lead_r] / cb
        quot[qexp] = qc
        for exps, c in b.items():
            key = tuple(e + q for e, q in zip(exps, qexp))
            s = rem.get(key, Fraction(0)) - qc * c
            if s:
                rem[key] = s
            elif key in rem:
                del rem[key]
    return quot

