"""Exact coefficient arithmetic: sparse Laurent polynomials and truncated series.

Everything downstream (module vectors, Gram solves, frames, gauge data)
stores its scalars as :class:`LaurentPoly` over a fixed :class:`VarTable`.
A polynomial is a dict from packed exponent keys to integer numerators over
one common denominator, the packed-monomial layout of Monagan and Pearce
("Sparse polynomial division using a heap", J. Symb. Comp. 2011).  The
table packs an exponent vector into one integer, a biased field per
variable under a field for the total degree, so integer order of keys is
graded-lex order and a monomial product is a key sum; a field overflow
raises :class:`RingError` rather than wrapping.  The denominator is kept
reduced against the numerators, so all arithmetic is exact and canonical,
and the public interface still speaks exponent tuples and
``fractions.Fraction``.  Only the ordinary Verma (rank-one) solve keeps
denominators, as :class:`RationalFunction` pairs without arithmetic;
every other operation either stays in the Laurent ring or raises
:class:`NotDivisible`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from operator import or_
from typing import Callable, Iterable, Iterator, Mapping, Sequence


class RingError(Exception):
    """Base class for exact-arithmetic failures."""


class NotDivisible(RingError):
    """Raised when an exact division has no quotient in the Laurent ring."""


class NonUnitLeadingCoefficient(RingError):
    """Raised when a series division needs to invert a non-unit coefficient."""


class VariableMismatch(RingError):
    """Raised when two operands live over different variable tables."""


# Exponent fields of a packed monomial key (see VarTable.pack): FIELD_BITS
# value bits, biased by 2**(FIELD_BITS - 1), plus one guard bit above.
FIELD_BITS = 16
EXP_MIN, EXP_MAX = -(1 << FIELD_BITS - 1), (1 << FIELD_BITS - 1) - 1
_STRIDE = FIELD_BITS + 1
_BIAS = 1 << FIELD_BITS - 1
_MASK = (1 << FIELD_BITS) - 1


class VarTable:
    """Ordered roster of named variables with integer grading weights.

    The order of ``names`` fixes the exponent-vector layout and the
    graded-lexicographic monomial order used for canonical output.  Weights
    feed the quasi-homogeneity checks (weight of a monomial = sum of
    exponent * weight over the active variables); they may be negative,
    which unknown expansion constants use for bookkeeping.

    The table also owns the packed form of a monomial (see :meth:`pack`):
    one integer holding a biased ``FIELD_BITS``-bit field per variable, the
    first variable highest, under a top field for the total degree.  A guard
    bit sits above every field, so a key sum that leaves a field's range
    sets a guard bit instead of spilling silently into its neighbour.
    """

    __slots__ = ("names", "weights", "_index", "_shifts", "_units",
                 "_zero", "_guard", "_nonneg", "_limit")

    def __init__(self, names: Sequence[str], weights: Sequence[int]):
        names = tuple(names)
        weights = tuple(int(w) for w in weights)
        if len(names) != len(weights):
            raise ValueError("names and weights must have equal length")
        if len(set(names)) != len(names):
            raise ValueError("variable names must be unique")
        self.names = names
        self.weights = weights
        self._index = {name: i for i, name in enumerate(names)}
        n = len(names)
        fields = range(n + 1)   # field n is the total degree
        self._shifts = tuple((n - 1 - i) * _STRIDE for i in range(n))
        # key step of x_i: one in its own field and one in the degree field
        self._units = tuple((1 << s) + (1 << n * _STRIDE) for s in self._shifts)
        self._zero = sum(_BIAS << i * _STRIDE for i in fields)
        self._guard = sum(1 << i * _STRIDE + FIELD_BITS for i in fields)
        # the top value bit of a field is set exactly for exponents >= 0
        self._nonneg = sum(1 << i * _STRIDE + FIELD_BITS - 1 for i in fields)
        self._limit = 1 << (n + 1) * _STRIDE

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise VariableMismatch(f"unknown variable {name!r}") from None

    def pack(self, exps: Sequence[int]) -> int:
        """Packed key of an exponent vector.

        Integer order of keys is graded-lex order ``(sum(exps), exps)``, and
        the key of a product of monomials is ``k1 + k2 - pack(0, ..., 0)``.
        Raises RingError when an exponent or the total degree leaves the
        field range ``EXP_MIN..EXP_MAX``.
        """
        if len(exps) != len(self.names):
            raise ValueError("exponent vector length mismatch")
        key = total = 0
        for e in exps:
            if not EXP_MIN <= e <= EXP_MAX:
                raise RingError(f"exponent {e} outside the packed range "
                                f"{EXP_MIN}..{EXP_MAX}")
            key = key << _STRIDE | e + _BIAS
            total += e
        if not EXP_MIN <= total <= EXP_MAX:
            raise RingError(f"total degree {total} outside the packed range "
                            f"{EXP_MIN}..{EXP_MAX}")
        return (total + _BIAS) << len(exps) * _STRIDE | key

    def unpack(self, key: int) -> tuple[int, ...]:
        """Exponent vector of a packed key."""
        return tuple((key >> s & _MASK) - _BIAS for s in self._shifts)

    def _in_range(self, keys_or: int) -> bool:
        """Whether keys, given as the bitwise or of them all, are all valid.

        The keys made here are sums and differences of valid keys in which
        every field but the total degree combines at most three values, so
        a field that leaves its range sets its guard bit (the lowest such
        field does, whatever borrows it passes up).  The degree field can
        move further; being on top, it then shows as a negative key or one
        past the top field.
        """
        return 0 <= keys_or < self._limit and not keys_or & self._guard

    def _checked(self, keys: Iterable[int]) -> None:
        if not self._in_range(reduce(or_, keys, 0)):
            raise RingError(f"exponent outside the packed range {EXP_MIN}..{EXP_MAX}")

    def __len__(self) -> int:
        return len(self.names)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, VarTable)
            and self.names == other.names
            and self.weights == other.weights
        )

    def __hash__(self) -> int:
        return hash((self.names, self.weights))

    def __repr__(self) -> str:
        items = ", ".join(f"{n}:{w}" for n, w in zip(self.names, self.weights))
        return f"VarTable({items})"


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected exact rational, got {type(value).__name__}")


def _new(table: VarTable, terms: dict[int, int], den: int = 1) -> "LaurentPoly":
    p = _alloc(LaurentPoly)
    p.table = table
    p.terms = terms
    p.den = den
    return p


def _reduced(table: VarTable, terms: dict[int, int], den: int) -> "LaurentPoly":
    """Polynomial ``terms / den`` with the denominator made canonical."""
    if den != 1:
        if not terms:
            den = 1
        else:
            g = gcd(den, *terms.values())
            if g != 1:
                terms = {k: c // g for k, c in terms.items()}
                den //= g
    return _new(table, terms, den)


_alloc = object.__new__


class LaurentPoly:
    """Sparse multivariate Laurent polynomial with rational coefficients.

    ``terms`` maps packed exponent keys (:meth:`VarTable.pack`) to nonzero
    integer numerators over the common denominator ``den``.  ``den`` is
    positive and shares no factor with all numerators together (it is 1 for
    the zero polynomial), so equal polynomials have equal storage.  The
    public interface speaks exponent tuples and ``Fraction``; only this
    module reads the storage.  Instances are treated as immutable; all
    operations return new objects.
    """

    __slots__ = ("table", "terms", "den")

    def __init__(self, table: VarTable, terms: Mapping[tuple[int, ...], Fraction] | None = None):
        self.table = table
        self.terms: dict[int, int] = {}
        self.den = 1
        if terms:
            fracs = {}
            for exps, coeff in terms.items():
                key = table.pack(exps)
                c = _as_fraction(coeff)
                if c:
                    fracs[key] = c
            if fracs:
                # numerators over the least common denominator are coprime
                # to it as a whole, so the result is already canonical
                den = lcm(*(c.denominator for c in fracs.values()))
                self.terms = {k: c.numerator * (den // c.denominator)
                              for k, c in fracs.items()}
                self.den = den

    # ----- constructors -------------------------------------------------

    @staticmethod
    def zero(table: VarTable) -> "LaurentPoly":
        return _new(table, {})

    @staticmethod
    def const(table: VarTable, value) -> "LaurentPoly":
        c = _as_fraction(value)
        if not c:
            return _new(table, {})
        return _new(table, {table._zero: c.numerator}, c.denominator)

    @staticmethod
    def from_triples(table: VarTable,
                     triples: Sequence[tuple[Sequence[int], int, int]]) -> "LaurentPoly":
        """Sum of ``num/den * x**exps`` over ``(exps, num, den)`` triples.

        Denominators may be negative or unreduced and exponent vectors may
        repeat; the integer numerators are put over the lcm of the
        denominators and the sum is reduced once at the end.
        """
        den = lcm(*(d for _, _, d in triples))
        pack = table.pack
        terms: dict[int, int] = {}
        get = terms.get
        for exps, n, d in triples:
            key = pack(exps)
            terms[key] = get(key, 0) + n * (den // d)
        if 0 in terms.values():
            terms = {k: c for k, c in terms.items() if c}
        return _reduced(table, terms, den)

    @staticmethod
    def var(table: VarTable, name: str, power: int = 1, coeff=1) -> "LaurentPoly":
        exps = [0] * len(table)
        exps[table.index(name)] = power
        return LaurentPoly(table, {tuple(exps): _as_fraction(coeff)})

    # ----- basic queries ------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        terms = self.terms
        return not terms or (len(terms) == 1 and self.table._zero in terms)

    def as_rational(self) -> Fraction:
        """Return the constant value; raises if the polynomial is not constant."""
        if not self.terms:
            return Fraction(0)
        if self.is_constant():
            return Fraction(self.terms[self.table._zero], self.den)
        raise RingError(f"not a constant: {self}")

    def is_unit_monomial(self) -> bool:
        """True when the polynomial is a single term (hence invertible)."""
        return len(self.terms) == 1

    def leading(self) -> tuple[tuple[int, ...], Fraction]:
        """Largest term in graded-lex order."""
        if not self.terms:
            raise RingError("zero polynomial has no leading term")
        key = max(self.terms)
        return self.table.unpack(key), Fraction(self.terms[key], self.den)

    def iter_terms(self) -> Iterator[tuple[tuple[int, ...], Fraction]]:
        """All ``(exponent vector, coefficient)`` pairs, in no fixed order."""
        unpack, den = self.table.unpack, self.den
        for key, c in self.terms.items():
            yield unpack(key), Fraction(c, den)

    def sorted_terms(self) -> list[tuple[tuple[int, ...], Fraction]]:
        """Terms in descending graded-lex order (canonical output order)."""
        unpack, terms, den = self.table.unpack, self.terms, self.den
        return [(unpack(key), Fraction(terms[key], den))
                for key in sorted(terms, reverse=True)]

    def term_records(self) -> list[tuple[list[int], int, int]]:
        """``sorted_terms`` as ``(exponents, numerator, denominator)``, each
        fraction reduced by one gcd instead of built as a ``Fraction``."""
        unpack, terms, den = self.table.unpack, self.terms, self.den
        out = []
        for key in sorted(terms, reverse=True):
            c = terms[key]
            g = gcd(c, den)
            out.append((list(unpack(key)), c // g, den // g))
        return out

    def _exponents_of(self, name: str) -> list[int]:
        s = self.table._shifts[self.table.index(name)]
        return [(key >> s & _MASK) - _BIAS for key in self.terms]

    def degree_in(self, name: str) -> tuple[int, int]:
        """(min, max) exponent of ``name`` over the support; (0, 0) if absent."""
        es = self._exponents_of(name)
        if not es:
            return (0, 0)
        return (min(es), max(es))

    def uses_var(self, name: str) -> bool:
        return any(self._exponents_of(name))

    def support_vars(self) -> set[str]:
        return {name for name in self.table.names if self.uses_var(name)}

    # ----- arithmetic ---------------------------------------------------

    def _check(self, other: "LaurentPoly") -> None:
        if self.table is not other.table and self.table != other.table:
            raise VariableMismatch("operands over different variable tables")

    def __add__(self, other):
        if not isinstance(other, LaurentPoly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = LaurentPoly.const(self.table, other)
        self._check(other)
        if not other.terms:
            return self
        if not self.terms:
            return other
        da, db = self.den, other.den
        if da == db:
            out = dict(self.terms)
            get = out.get
            for k, c in other.terms.items():
                out[k] = get(k, 0) + c
        else:
            g = gcd(da, db)
            ma, mb = db // g, da // g
            da *= ma
            out = {k: c * ma for k, c in self.terms.items()}
            get = out.get
            for k, c in other.terms.items():
                out[k] = get(k, 0) + c * mb
        if 0 in out.values():
            out = {k: c for k, c in out.items() if c}
        return _reduced(self.table, out, da)

    __radd__ = __add__

    def __neg__(self):
        return _new(self.table, {k: -c for k, c in self.terms.items()}, self.den)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.const(self.table, other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.__add__(other.__neg__())

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if not isinstance(other, LaurentPoly):
            if isinstance(other, int):
                num, den = other, 1
            elif isinstance(other, Fraction):
                num, den = other.numerator, other.denominator
            else:
                return NotImplemented
            if not num:
                return _new(self.table, {})
            return _reduced(self.table, {k: c * num for k, c in self.terms.items()},
                            self.den * den)
        return dot(self.table, [(self, other)])

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            if self.is_unit_monomial():
                (key, c), = self.terms.items()
                table = self.table
                inv_key = 2 * table._zero - key
                table._checked((inv_key,))
                inv = _new(table, {inv_key: self.den if c > 0 else -self.den}, abs(c))
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
        return (self.table == other.table and self.den == other.den
                and self.terms == other.terms)

    __hash__ = None  # type: ignore[assignment]

    # ----- calculus and structure ----------------------------------------

    def derivative(self, name: str) -> "LaurentPoly":
        table = self.table
        i = table.index(name)
        s, unit = table._shifts[i], table._units[i]
        out = {}
        for key, c in self.terms.items():
            e = (key >> s & _MASK) - _BIAS
            if e:
                out[key - unit] = c * e
        table._checked(out)
        return _reduced(table, out, self.den)

    def coeff_of_power(self, name: str, k: int) -> "LaurentPoly":
        """Coefficient of ``name**k`` (the variable is removed from the result)."""
        table = self.table
        i = table.index(name)
        s, drop, field = table._shifts[i], k * table._units[i], k + _BIAS
        out = {key - drop: c for key, c in self.terms.items()
               if key >> s & _MASK == field}
        table._checked(out)
        return _reduced(table, out, self.den)

    def split_by_var(self, name: str) -> dict[int, "LaurentPoly"]:
        """Decompose as a finite Laurent polynomial in ``name``."""
        table = self.table
        i = table.index(name)
        s, unit = table._shifts[i], table._units[i]
        buckets: dict[int, dict[int, int]] = {}
        for key, c in self.terms.items():
            e = (key >> s & _MASK) - _BIAS
            buckets.setdefault(e, {})[key - e * unit] = c
        out = {}
        for e, terms in buckets.items():
            table._checked(terms)
            out[e] = _reduced(table, terms, self.den)
        return out

    def subs(self, assignments: Mapping[str, "LaurentPoly"]) -> "LaurentPoly":
        """Substitute variables by polynomials (exact; negative powers need units)."""
        table = self.table
        slots = [(table._shifts[i], table._units[i], poly) for i, poly in
                 ((table.index(name), poly) for name, poly in assignments.items())]
        # no assigned variable occurs when each of its fields holds the bias
        mask = sum(_MASK << s for s, _, _ in slots)
        bias = table._zero & mask
        if all(key & mask == bias for key in self.terms):
            return self
        # group the terms by their powers of the substituted variables
        groups: dict[tuple[int, ...], dict[int, int]] = {}
        for key, c in self.terms.items():
            powers = tuple((key >> s & _MASK) - _BIAS for s, _, _ in slots)
            rest = key - sum(e * unit for e, (_, unit, _) in zip(powers, slots))
            groups.setdefault(powers, {})[rest] = c
        result = _new(table, {})
        cache: dict[tuple[int, int], LaurentPoly] = {}
        for powers, terms in groups.items():
            table._checked(terms)
            factor = _reduced(table, terms, self.den)
            for slot, (e, (_, _, poly)) in enumerate(zip(powers, slots)):
                if e:
                    power = cache.get((slot, e))
                    if power is None:
                        power = cache[(slot, e)] = poly ** e
                    factor = factor * power
            result = result + factor
        return result

    def weighted_degrees(self) -> set[int]:
        """Set of quasi-homogeneous weights present in the support."""
        ws, unpack = self.table.weights, self.table.unpack
        return {sum(e * w for e, w in zip(unpack(key), ws)) for key in self.terms}

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
        mapping = [table.index(name) if name in table._index else -1
                   for name in self.table.names]
        out: dict[int, int] = {}
        n = len(table)
        for key, c in self.terms.items():
            new = [0] * n
            for i, e in enumerate(self.table.unpack(key)):
                if not e:
                    continue
                j = mapping[i]
                if j < 0:
                    raise VariableMismatch(
                        f"variable {self.table.names[i]!r} missing from target table")
                new[j] = e
            out[table.pack(new)] = c
        return _new(table, out, self.den)

    # ----- exact division -------------------------------------------------

    def _lowest_shift(self) -> int:
        """Key offset that moves every variable's lowest exponent to zero."""
        table = self.table
        return sum((min(key >> s & _MASK for key in self.terms) - _BIAS) * unit
                   for s, unit in zip(table._shifts, table._units))

    def exact_div(self, divisor: "LaurentPoly") -> "LaurentPoly":
        """Exact quotient in the Laurent ring; raises NotDivisible otherwise."""
        if isinstance(divisor, (int, Fraction)):
            divisor = LaurentPoly.const(self.table, divisor)
        self._check(divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        table = self.table
        if self.is_zero():
            return _new(table, {})
        if divisor.is_unit_monomial():
            (dkey, dc), = divisor.terms.items()
            shift = dkey - table._zero
            scale = divisor.den if dc > 0 else -divisor.den
            out = {key - shift: c * scale for key, c in self.terms.items()}
            table._checked(out)
            return _reduced(table, out, self.den * abs(dc))
        # Shift both operands into the polynomial subring so that, for each
        # variable, the minimal exponent is zero; a Laurent quotient of the
        # shifted operands is then forced to be an honest polynomial.  With
        # the contents divided out, Gauss's lemma makes that quotient a
        # primitive integer polynomial.
        shift_a, shift_b = self._lowest_shift(), divisor._lowest_shift()
        # _poly_exact_div's leading-term test, made before the copies: a
        # shift keeps the key order, so the shifted leads are max - shift
        lead = max(self.terms) - shift_a - max(divisor.terms) + shift_b
        if lead < 0 or (lead + table._zero) & (table._nonneg | table._guard) != table._nonneg:
            raise NotDivisible("quotient does not lie in the Laurent ring")
        content_a, content_b = gcd(*self.terms.values()), gcd(*divisor.terms.values())
        a = {key - shift_a: c // content_a for key, c in self.terms.items()}
        b = {key - shift_b: c // content_b for key, c in divisor.terms.items()}
        table._checked(a)
        table._checked(b)
        quot = _poly_exact_div(table, a, b)
        if quot is None:
            raise NotDivisible("quotient does not lie in the Laurent ring")
        # self / divisor = (content_a * den_b) / (content_b * den_a) * quot
        num, den = content_a * divisor.den, content_b * self.den
        g = gcd(num, den)
        num, den, back = num // g, den // g, shift_a - shift_b
        out = {key + back: c * num for key, c in quot.items()}
        table._checked(out)
        return _new(table, out, den)

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


def dot(table: VarTable, pairs: Iterable[tuple[LaurentPoly, LaurentPoly]]) -> LaurentPoly:
    """Sum of ``a * b`` over ``pairs``, every operand over ``table``.

    All products go into one integer-numerator dict over the lcm of the
    pair denominators, so the sum is range-checked once and reduced once
    instead of copying an accumulator per term.
    """
    live, den = [], 1
    for a, b in pairs:
        if (a.table is not table or b.table is not table) and (
                a.table != table or b.table != table):
            raise VariableMismatch("operands over different variable tables")
        if a.terms and b.terms:
            live.append((a, b))
            if den % (a.den * b.den):
                den = lcm(den, a.den * b.den)
    base = table._zero
    out: dict[int, int] = {}
    get = out.get
    for a, b in live:
        ta, tb = a.terms, b.terms
        if len(ta) > len(tb):
            ta, tb = tb, ta
        scale = den // (a.den * b.den)
        for k1, c1 in ta.items():
            k1 -= base
            c1 *= scale
            if not k1:
                # a constant term keeps the other operand's key objects,
                # which the caches then share instead of holding copies
                for k2, c2 in tb.items():
                    out[k2] = get(k2, 0) + c1 * c2
                continue
            for k2, c2 in tb.items():
                k = k1 + k2
                out[k] = get(k, 0) + c1 * c2
    table._checked(out)
    if 0 in out.values():
        out = {k: c for k, c in out.items() if c}
    return _reduced(table, out, den)


def _poly_exact_div(table: VarTable, a: dict[int, int],
                    b: dict[int, int]) -> dict[int, int] | None:
    """Exact quotient of primitive integer polynomials ``a / b``.

    Both operands have nonnegative exponents.  Returns None when the
    quotient is not a polynomial with integer coefficients, which for
    primitive operands means it is not a polynomial at all.
    """
    rem = dict(a)
    # max-heap of remainder keys (negated); entries of cancelled keys are
    # skipped when popped, and new keys always lie below the current lead
    heap = [-k for k in rem]
    heapify(heap)
    lead_b = max(b)
    cb = b[lead_b]
    tail = [(k - lead_b, c) for k, c in b.items() if k != lead_b]
    zero, nonneg = table._zero, table._nonneg
    fields = nonneg | table._guard
    quot: dict[int, int] = {}
    seen = 0
    while rem:
        lead_r = -heappop(heap)
        lead_c = rem.pop(lead_r, 0)
        if not lead_c:
            continue
        qkey = lead_r - lead_b + zero
        # every exponent of the quotient term must be >= 0
        if lead_r < lead_b or qkey & fields != nonneg:
            return None
        qc, r = divmod(lead_c, cb)
        if r:
            return None
        quot[qkey] = qc
        for offset, c in tail:
            key = lead_r + offset
            seen |= key
            s = rem.get(key)
            if s is None:
                rem[key] = -qc * c
                heappush(heap, -key)
            else:
                s -= qc * c
                if s:
                    rem[key] = s
                else:
                    del rem[key]
    # a quotient whose products left the packed range cannot be exact
    if not table._in_range(seen):
        return None
    return quot


class RationalFunction:
    """A normalised (numerator, denominator) pair of Laurent polynomials.

    It carries no arithmetic: rank-one solves store their coefficients in
    it, reports write its two halves, and the re-check clears the
    denominators itself.  There is no multivariate gcd here: the quotient
    is reduced when the denominator divides the numerator exactly or is a
    unit monomial, and a surviving denominator is normalised to leading
    coefficient one.  A denominator that is already monic is kept as the
    same object, so the coefficients of one rank-one level share theirs.
    Equality cross-multiplies.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentPoly, den: LaurentPoly | None = None):
        if den is None:
            den = LaurentPoly.const(num.table, 1)
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        num._check(den)
        if num.is_zero():
            den = LaurentPoly.const(num.table, 1)
        else:
            try:
                num = num.exact_div(den)
                den = LaurentPoly.const(num.table, 1)
            except NotDivisible:
                pass
        _, lead = den.leading()
        if lead != 1:
            num = num * (1 / lead)
            den = den * (1 / lead)
        self.num = num
        self.den = den

    @property
    def table(self) -> VarTable:
        return self.num.table

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return (self.num * other.den) == (other.num * self.den)

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        if self.den.is_constant():
            return f"RationalFunction({self.num})"
        return f"RationalFunction(({self.num}) / ({self.den}))"


class TruncatedSeries:
    """Formal series in one distinguished variable, graded by its powers.

    The coefficients are all LaurentPolys or all module vectors; ``zero``,
    the zero coefficient, says which.  ``parts`` maps an order to its
    nonzero coefficient, and no coefficient contains the expansion variable.
    The window [lo, hi] marks the orders that are actually known: ``lo`` is
    the lowest nonzero order (``hi + 1`` when the window holds only zeros),
    and ``hi=None`` means the series is exact (a finite Laurent polynomial in
    the expansion variable), in which case no information is lost in
    products.
    """

    __slots__ = ("zero", "var", "parts", "lo", "hi")

    def __init__(self, zero, var: str, parts: Mapping[int, object], hi: int | None):
        """Series with coefficient ``parts[m]`` at order ``m``.  A power
        ``var**d`` left in that coefficient moves its part to order
        ``m + d``; whatever lands above ``hi`` is dropped."""
        zero.table.index(var)
        acc: dict[int, object] = {}
        for m, c in parts.items():
            for d, piece in c.split_by_var(var).items():
                acc[m + d] = acc[m + d] + piece if m + d in acc else piece
        self._set(zero, var, acc, hi)

    def _set(self, zero, var: str, parts: dict[int, object],
             hi: int | None) -> "TruncatedSeries":
        self.zero, self.var, self.hi = zero, var, hi
        self.parts = {k: c for k, c in parts.items()
                      if (hi is None or k <= hi) and not c.is_zero()}
        self.lo = min(self.parts, default=0 if hi is None else hi + 1)
        return self

    def _like(self, parts: dict[int, object], hi: int | None) -> "TruncatedSeries":
        """A series over this one's ring and coefficient type whose
        coefficients are already free of the expansion variable, as sums,
        products and quotients of such coefficients are: no regrading scan."""
        return object.__new__(TruncatedSeries)._set(self.zero, self.var, parts, hi)

    # ----- constructors ---------------------------------------------------

    @staticmethod
    def from_poly(p: LaurentPoly, var: str) -> "TruncatedSeries":
        return TruncatedSeries(LaurentPoly.zero(p.table), var, {0: p}, None)

    # ----- structure --------------------------------------------------------

    @property
    def table(self) -> VarTable:
        return self.zero.table

    @property
    def known_hi(self) -> int:
        if self.hi is not None:
            return self.hi
        return max(self.parts, default=self.lo - 1)

    def coeff(self, k: int):
        if self.hi is not None and k > self.hi:
            raise RingError(f"order {k} outside valid window (hi={self.hi})")
        return self.parts.get(k, self.zero)

    def window(self) -> tuple[int, int | None]:
        return (self.lo, self.hi)

    def is_zero_on_window(self) -> bool:
        return not self.parts

    def map(self, fn: Callable) -> "TruncatedSeries":
        """Apply ``fn`` to every coefficient (and to ``zero``), regrading."""
        return TruncatedSeries(fn(self.zero), self.var,
                               {m: fn(c) for m, c in self.parts.items()}, self.hi)

    # ----- arithmetic --------------------------------------------------------

    def _operand(self, other):
        """``other`` as a series over this one's ring, or None."""
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.const(self.table, other)
        if isinstance(other, LaurentPoly):
            other = TruncatedSeries.from_poly(other, self.var)
        if not isinstance(other, TruncatedSeries):
            return None
        if self.table != other.table or self.var != other.var:
            raise VariableMismatch("series over different rings or expansion variables")
        return other

    def __add__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        his = [h for h in (self.hi, other.hi) if h is not None]
        parts = dict(self.parts)
        for m, c in other.parts.items():
            parts[m] = parts[m] + c if m in parts else c
        return self._like(parts, min(his) if his else None)

    __radd__ = __add__

    def __neg__(self):
        return self._like({m: -c for m, c in self.parts.items()}, self.hi)

    def __sub__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        """Product; a vector-coefficient operand keeps its coefficient type."""
        other = self._operand(other)
        if other is None:
            return NotImplemented
        if isinstance(self.zero, LaurentPoly) and not isinstance(other.zero, LaurentPoly):
            return other * self
        if (not self.parts and self.hi is None) or (not other.parts and other.hi is None):
            return self._like({}, None)
        # unknown tail of a starts at a.hi+1, so the product is unknown from
        # (a.hi + 1 + b.lo); symmetrically for b.
        bounds = [h + s.lo for h, s in ((self.hi, other), (other.hi, self))
                  if h is not None]
        hi = min(bounds) if bounds else None
        parts: dict[int, object] = {}
        for i, a in self.parts.items():
            for j, b in other.parts.items():
                if hi is None or i + j <= hi:
                    prod = a * b
                    parts[i + j] = parts[i + j] + prod if i + j in parts else prod
        return self._like(parts, hi)

    __rmul__ = __mul__

    def divide(self, other: "TruncatedSeries") -> "TruncatedSeries":
        """Long division of scalar series; the divisor's lowest coefficient
        must be a unit monomial."""
        other = self._operand(other)
        if not other.parts:
            raise ZeroDivisionError("series division by zero")
        lead = other.parts[other.lo]
        if not lead.is_unit_monomial():
            raise NonUnitLeadingCoefficient(
                f"series divisor leading coefficient is not a unit monomial: {lead}")
        lo = self.lo - other.lo
        bounds = []
        if self.hi is not None:
            bounds.append(self.hi - other.lo)
        if other.hi is not None:
            # q = a/b: a_k = sum q_i b_{k-i}; solving for q_k uses b up to b.hi
            bounds.append(other.hi - other.lo + lo)
        hi = min(bounds) if bounds else None
        top = hi if hi is not None else self.known_hi - other.lo
        quot: dict[int, LaurentPoly] = {}
        for k in range(lo, top + 1):
            acc = self.coeff(k + other.lo)
            for i, qc in quot.items():
                b = other.parts.get(k + other.lo - i)
                if b is not None:
                    acc = acc - qc * b
            q = acc.exact_div(lead)
            if not q.is_zero():
                quot[k] = q
        return self._like(quot, hi)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return (self.table == other.table and self.var == other.var
                and self.hi == other.hi and self.parts == other.parts)

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        parts = [f"({self.parts[k]})*{self.var}^{k}" for k in sorted(self.parts)]
        body = " + ".join(parts) if parts else "0"
        tail = "" if self.hi is None else f" + O({self.var}^{self.hi + 1})"
        return f"TruncatedSeries({body}{tail})"
