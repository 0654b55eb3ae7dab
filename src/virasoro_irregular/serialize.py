"""Exact JSON encoding of series data and verification reports.

Coefficients travel as ``(exponent vector, numerator, denominator)``
triples, never as decimals, with terms listed in the canonical monomial
order and document keys emitted sorted.  Equal inputs therefore always
produce byte-identical documents, and a document written by
:func:`series_to_doc` can be rebuilt with :func:`series_from_doc` and
re-verified from scratch.
"""

from __future__ import annotations

import io
from itertools import chain
from json.encoder import encode_basestring_ascii as quote
from operator import itemgetter

from .frames import CONVENTIONS, GENERAL, HALF, INTEGER, RANK_ONE, Family
from .ring import LaurentPoly, RationalFunction, TruncatedSeries, VarTable
from .solver import (IrregularSeries, VerificationReport, series_context,
                     series_table)
from .virasoro import ModuleVector, partition_sort_key


class SerializeError(ValueError):
    """Document does not describe data this package can rebuild."""


# ----- rank strings -----------------------------------------------------------


def format_rank(family: Family) -> str:
    """Render a rank family as the user-facing rank string."""
    return f"{2 * family.r - 1}/2" if family.kind == HALF else str(family.r)


def parse_rank(text: str) -> Family:
    """Parse a rank string such as ``"3"`` or ``"5/2"`` into its family.

    Half ranks are the family (2m+1)/2 with m >= 1, stored under the next
    integer up, so ``"5/2"`` maps to ``Family(HALF, 3)``.
    """
    body = text.strip()
    if "/" in body:
        num_text, _, den_text = body.partition("/")
        try:
            num, den = int(num_text), int(den_text)
        except ValueError:
            raise SerializeError(f"rank {text!r} is not a fraction of integers") from None
        if den != 2 or num < 3 or num % 2 == 0:
            raise SerializeError(
                f"half ranks have the form (2m+1)/2 with m >= 1, got {text!r}")
        return Family(HALF, (num + 1) // 2)
    try:
        r = int(body)
    except ValueError:
        raise SerializeError(f"rank {text!r} is not an integer or a half") from None
    if r < 1:
        raise SerializeError(f"rank must be at least 1, got {r}")
    return Family(RANK_ONE, 1) if r == 1 else Family(INTEGER, r)


# ----- polynomial and coefficient terms ---------------------------------------

_INT = {int}
_D, _E, _N = itemgetter("d"), itemgetter("e"), itemgetter("n")


def poly_terms(poly: LaurentPoly) -> list[dict]:
    """Canonical term list: exponent vector plus exact numerator/denominator."""
    return [{"e": e, "n": n, "d": d} for e, n, d in poly.term_records()]


def poly_from_terms(table: VarTable, terms: object) -> LaurentPoly:
    """Rebuild a polynomial from its term records in one integer pass;
    records that repeat an exponent vector are summed."""
    if not isinstance(terms, list):
        raise SerializeError("polynomial must be a list of term records")
    triples = []
    for record in terms:
        if not isinstance(record, dict) or set(record) != {"e", "n", "d"}:
            raise SerializeError(f"malformed polynomial term {record!r}")
        exps = record["e"]
        if (not isinstance(exps, list) or len(exps) != len(table)
                or not all(type(e) is int for e in exps)):
            raise SerializeError(f"exponent vector {exps!r} does not fit the header")
        num, den = record["n"], record["d"]
        if type(num) is not int or type(den) is not int or den == 0:
            raise SerializeError(f"malformed coefficient in term {record!r}")
        triples.append((exps, num, den))
    return LaurentPoly.from_triples(table, triples)


def coeff_doc(coeff, last: list | None = None) -> dict:
    """Encode a coefficient, polynomial or quotient, as a num/den pair.
    ``last``, if given, holds the previous quotient's denominator and its
    records, reused for the same denominator object."""
    if not isinstance(coeff, RationalFunction):
        return {"num": poly_terms(coeff),
                "den": poly_terms(LaurentPoly.const(coeff.table, 1))}
    if last and last[0] is coeff.den:
        records = last[1]
    else:
        records = poly_terms(coeff.den)
        if last is not None:
            last[:] = coeff.den, records
    return {"num": poly_terms(coeff.num), "den": records}


def coeff_from_doc(table: VarTable, doc: object, rational: bool,
                   last: list | None = None):
    """Rebuild a coefficient record.  ``last``, if given, holds the previous
    ``"den"`` records and their polynomial, reused for equal records."""
    if not isinstance(doc, dict) or set(doc) != {"num", "den"}:
        raise SerializeError(f"malformed coefficient record {doc!r}")
    num = poly_from_terms(table, doc["num"])
    if last and _same_records(doc["den"], last[0]):
        den = last[1]
    else:
        den = poly_from_terms(table, doc["den"])
        if den.is_zero():
            raise SerializeError("coefficient has a zero denominator")
        if last is not None:
            last[:] = doc["den"], den
    if rational:
        return RationalFunction(num, den)
    if den != LaurentPoly.const(table, 1):
        raise SerializeError("polynomial coefficient carries a denominator")
    return num


def _same_records(records: object, seen: list) -> bool:
    """``records == seen``, records already read, down to each number's
    type (``==`` alone takes ``true`` or ``1.0`` for 1)."""
    return records == seen and set(map(type, chain(
        map(_N, records), map(_D, records), *map(_E, records)))) <= _INT


# ----- module vectors ----------------------------------------------------------


def partition_key(lam: tuple[int, ...]) -> str:
    return ",".join(str(part) for part in lam)


def partition_from_key(key: str) -> tuple[int, ...]:
    if key == "":
        return ()
    try:
        lam = tuple(int(part) for part in key.split(","))
    except ValueError:
        raise SerializeError(f"malformed partition key {key!r}") from None
    if any(part < 1 for part in lam) or list(lam) != sorted(lam, reverse=True):
        raise SerializeError(f"{key!r} is not a partition")
    return lam


def vector_doc(vec: ModuleVector) -> dict:
    """Coefficient records by partition key.  A run of quotients over one
    denominator object (a rank-one level) renders it once, and their
    ``"den"`` fields hold that one list: copy before editing in place."""
    last: list = []
    return {partition_key(lam): coeff_doc(vec.parts[lam], last)
            for lam in sorted(vec.parts, key=partition_sort_key)}


def vector_from_doc(ctx, doc: object, rational: bool) -> ModuleVector:
    """Rebuild a vector; a ``"den"`` record equal to the one before it
    reuses its polynomial, so a rank-one level shares one denominator."""
    if not isinstance(doc, dict):
        raise SerializeError("vector terms must be a partition-to-coefficient map")
    last: list = []
    parts = {partition_from_key(key): coeff_from_doc(ctx.table, value, rational, last)
             for key, value in doc.items()}
    return ModuleVector(ctx, parts)


# ----- series documents ---------------------------------------------------------


def _indexed_polys(store: dict[int, LaurentPoly], label: str) -> list[dict]:
    return [{label: index, "poly": poly_terms(store[index])}
            for index in sorted(store)]


def _polys_indexed(table: VarTable, docs: object, label: str) -> dict[int, LaurentPoly]:
    if not isinstance(docs, list):
        raise SerializeError(f"{label!r} records must form a list")
    out: dict[int, LaurentPoly] = {}
    for record in docs:
        if not isinstance(record, dict) or set(record) != {label, "poly"}:
            raise SerializeError(f"malformed {label!r} record {record!r}")
        index = record[label]
        if type(index) is not int or index in out:
            raise SerializeError(f"bad or repeated index {index!r} in {label!r} records")
        out[index] = poly_from_terms(table, record["poly"])
    return out


def variables_doc(table: VarTable) -> dict:
    """The ``variables`` header block: names and weights of a table."""
    return {"names": list(table.names), "weights": list(table.weights)}


def series_header(series: IrregularSeries) -> dict:
    """The ``meta`` and ``variables`` blocks of a series document."""
    return {
        "meta": {
            "rank": format_rank(series.family),
            "K": series.order,
            "convention": series.convention,
            "central": poly_terms(series.ctx.c_vir),
        },
        "variables": variables_doc(series.table),
    }


def series_to_doc(series: IrregularSeries) -> dict:
    """Full document for a constructed series, ready for :func:`dumps`."""
    return {
        **series_header(series),
        "series": {
            "nu": None if series.nu is None else poly_terms(series.nu),
            "g": _indexed_polys(series.g, "j"),
            "constants": _indexed_polys(series.constants, "k"),
            "pending": list(series.pending),
            "tail": [{"k": k, "terms": vector_doc(vec)}
                     for k, vec in enumerate(series.vectors)],
        },
    }


def _require(doc: object, key: str, context: str) -> object:
    if not isinstance(doc, dict) or key not in doc:
        raise SerializeError(f"{context} is missing the {key!r} field")
    return doc[key]


def series_from_doc(doc: object) -> IrregularSeries:
    """Rebuild a series from its document so it can be re-verified."""
    meta = _require(doc, "meta", "document")
    rank_text = _require(meta, "rank", "meta block")
    if not isinstance(rank_text, str):
        raise SerializeError("meta rank must be a string")
    family = parse_rank(rank_text)
    order = _require(meta, "K", "meta block")
    if type(order) is not int or order < 0:
        raise SerializeError(f"order must be a non-negative integer, got {order!r}")
    convention = _require(meta, "convention", "meta block")
    if convention not in CONVENTIONS:
        raise SerializeError(f"unknown convention {convention!r}")
    if convention != GENERAL and family.kind != RANK_ONE:
        raise SerializeError(f"the {convention} convention applies to rank one only")

    table = series_table(family, order)
    header = _require(doc, "variables", "document")
    if (_require(header, "names", "variables header") != list(table.names)
            or _require(header, "weights", "variables header") != list(table.weights)
            or not all(type(w) is int for w in header["weights"])):
        raise SerializeError("variables header does not match the declared rank and order")

    central = poly_from_terms(table, _require(meta, "central", "meta block"))
    ctx = series_context(family, table, central)

    body = _require(doc, "series", "document")
    rational = family.kind == RANK_ONE
    nu_doc = _require(body, "nu", "series block")
    nu = None if nu_doc is None else poly_from_terms(table, nu_doc)
    g = _polys_indexed(table, _require(body, "g", "series block"), "j")
    # nu and g1..g{r-1} are solved for every rank but one, which has none
    if (nu is None) != rational or set(g) != set(range(1, family.r)):
        raise SerializeError(f"the nu and g records do not fit rank {rank_text}")
    constants = _polys_indexed(table, _require(body, "constants", "series block"), "k")
    pending_doc = _require(body, "pending", "series block")
    if (not isinstance(pending_doc, list)
            or not all(isinstance(name, str) and name in table.names
                       for name in pending_doc)):
        raise SerializeError("pending entries must name header variables")

    tail = _require(body, "tail", "series block")
    if not isinstance(tail, list):
        raise SerializeError("tail must be a list of order records")
    staged: dict[int, ModuleVector] = {}
    for record in tail:
        k = _require(record, "k", "tail record")
        if type(k) is not int or k in staged:
            raise SerializeError(f"bad or repeated tail order {k!r}")
        staged[k] = vector_from_doc(ctx, _require(record, "terms", "tail record"),
                                    rational)
    if sorted(staged) != list(range(order + 1)):
        raise SerializeError(f"tail must cover orders 0..{order} exactly once")
    vectors = [staged[k] for k in range(order + 1)]
    return IrregularSeries(
        family=family, order=order, ctx=ctx, vectors=vectors, nu=nu,
        g=g, constants=constants, pending=tuple(pending_doc), pinned=None,
        convention=convention)


def check_unknowns(series: IrregularSeries) -> None:
    """Refuse a series whose ``pending`` and ``constants`` records disagree
    with its tail, which no relation re-checks: an unknown is pending
    exactly where its slot (``nu``, its ``g`` entry or the cyclic
    coefficient of its order) is still its own variable, and ``constants``
    holds that coefficient for every order that pinned one.  Rank one
    solves no unknowns."""
    if series.family.kind == RANK_ONE:
        ok = not series.constants and not series.pending
    else:
        table, vectors = series.table, series.vectors
        slots = {"nu": series.nu, **{f"g{j}": poly for j, poly in series.g.items()},
                 **{f"ce{k}": vectors[k].constant_term() for k in range(1, len(vectors))}}
        free = [name for name, slot in slots.items() if slot == LaurentPoly.var(table, name)]
        ok = sorted(series.pending) == sorted(free) and series.constants == {
            k: slots[f"ce{k}"] for k in range(1, len(vectors)) if f"ce{k}" not in free}
    if not ok:
        raise SerializeError("pending and constants do not match the tail")


# ----- reports and windowed series ----------------------------------------------


def report_doc(report: VerificationReport) -> list[dict]:
    """Residual records in the fixed relation/window/status shape."""
    return [{"relation": check.relation, "window": check.window,
             "status": "ok" if check.ok else "fail"}
            for check in report.checks]


def truncated_doc(series: TruncatedSeries) -> dict:
    """Windowed scalar series: one polynomial per expansion-variable order."""
    orders = [] if series.hi is None else [
        {"m": m, "poly": poly_terms(series.parts[m])} for m in sorted(series.parts)]
    return {"var": series.var, "lo": series.lo, "hi": series.hi, "orders": orders}


# ----- JSON text ------------------------------------------------------------------

_TERM_KEYS = {"d", "e", "n"}
# pieces a streaming dumps buffers before it writes them out
_CHUNK = 64


def _write(node: object, nl: str, out: list[str], flush) -> None:
    """Append the indent-2, sorted-key JSON text of ``node`` to ``out``;
    ``nl`` is the newline plus the indentation of the line ``node`` is on.
    ``flush`` is called with ``out`` whenever it holds ``_CHUNK`` pieces,
    and must empty it."""
    if isinstance(node, dict):
        if not node:
            out.append("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for key in sorted(node):
            out.append(sep + quote(key) + ": ")   # quote raises on a non-str key
            _write(node[key], inner, out, flush)
            sep = "," + inner
            if len(out) >= _CHUNK:
                flush(out)
        out.append(nl + "}")
    elif isinstance(node, (list, tuple)):
        if not node:
            out.append("[]")
            return
        inner = nl + "  "
        # a term record {"d": int, "e": [int, ...], "n": int}, the bulk of
        # every report, is written from one template
        term = (f'{{{inner}  "d": %s,{inner}  "e": [{inner}    %s{inner}  ],'
                f'{inner}  "n": %s{inner}}}')
        exp_sep = "," + inner + "    "
        sep = "[" + inner
        for item in node:
            out.append(sep)
            sep = "," + inner
            if len(out) >= _CHUNK:
                flush(out)
            if type(item) is dict and item.keys() == _TERM_KEYS:
                d, e, n = item["d"], item["e"], item["n"]
                if (type(d) is int and type(n) is int and type(e) is list
                        and set(map(type, e)) == _INT):
                    out.append(term % (d, exp_sep.join(map(int.__repr__, e)), n))
                    continue
            _write(item, inner, out, flush)
        out.append(nl + "]")
    elif isinstance(node, str):
        out.append(quote(node))
    elif node is None:
        out.append("null")
    elif node is True:
        out.append("true")
    elif node is False:
        out.append("false")
    elif isinstance(node, int):
        out.append(int.__repr__(node))
    else:
        raise TypeError(f"{type(node).__name__} {node!r} cannot appear in a report")


def dumps(doc: dict, handle=None) -> str | None:
    """Byte-deterministic rendering: sorted keys, exact integers, no floats.

    The text is exactly ``json.dumps(doc, indent=2, sort_keys=True)`` plus a
    final newline, written without ``json``'s pure-Python indenting encoder.
    Dict keys must be strings; a float or any other non-JSON value raises
    :class:`TypeError`.

    With a text ``handle`` the text is written there a few dozen pieces at
    a time, so neither the whole piece list nor the whole string is ever
    held, and ``None`` is returned; on a :class:`TypeError` the text before
    the bad value has already been written.  Without one the text is
    returned.
    """
    stream = io.StringIO() if handle is None else handle
    out: list[str] = []

    def flush(pieces: list[str]) -> None:
        stream.write("".join(pieces))
        pieces.clear()

    _write(doc, "\n", out, flush)
    out.append("\n")
    flush(out)
    return stream.getvalue() if handle is None else None
