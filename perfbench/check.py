"""Independent checks of the JSON reports the CLI writes.

Nothing here imports the package.  Reports are read as plain JSON, and the
Virasoro straightening used to re-check the defining relations is written
out below from the commutation rule

    [L_m, L_n] = (m - n) L_{m+n} + (c/12) (m^3 - m) delta_{m+n,0}.

A report is checked as follows.

* Structure: v_0 is the cyclic vector with coefficient 1, every partition
  in v_k has weight at most r*k, the expansion variable never occurs, and
  the residual records are exactly the expected set, all ``ok``.
* Grading: the coefficient at (k, lam) is quasi-homogeneous of weight
  (|lam| - rho*len(lam)) - step*k under the header weights.
* Relations at points: every header variable is set to a seeded random
  nonzero rational, and the defining mode relations are checked on the
  evaluated vectors.  A wrong coefficient is caught unless the point is a
  root of the error, which a random point avoids.
* Rank one: the relations are checked in a Verma module at seeded points
  (Q, c0): L_0 v_k = (Delta + k) v_k, L_n v_k = 0 for n >= 3, and L_1, L_2
  map v_k to one fixed multiple of v_{k-1}, v_{k-2}.

Every check returns a list of problems; an empty list means the report
passed.
"""

from __future__ import annotations

import random
from fractions import Fraction

# ----- reading reports ----------------------------------------------------------


def terms_of(doc) -> dict:
    """Term list ``[{e, n, d}, ...]`` as ``{exponent tuple: Fraction}``."""
    return {tuple(t["e"]): Fraction(t["n"], t["d"]) for t in doc}


def partition_of(key: str) -> tuple:
    return () if key == "" else tuple(int(p) for p in key.split(","))


def rank_info(rank: str) -> tuple[str, int]:
    """(kind, internal r) for a rank string: 5/2 -> ("half", 3)."""
    if "/" in rank:
        return "half", (int(rank.split("/")[0]) + 1) // 2
    r = int(rank)
    return ("one", 1) if r == 1 else ("integer", r)


def grading(kind: str, r: int) -> tuple[int, int]:
    """(rho, step) of a family: the base module rank and the order step."""
    if kind == "one":
        return 0, 1
    return r - 1, (r if kind == "integer" else 2 * r - 1)


def expansion_variable(kind: str, r: int) -> str:
    return {"one": "c1", "integer": f"c{r}", "half": "Lam"}[kind]


def all_term_lists(node):
    """Every term list anywhere in a document tree."""
    if isinstance(node, list):
        if node and all(isinstance(t, dict) and set(t) == {"e", "n", "d"}
                        for t in node):
            yield node
            return
        for item in node:
            yield from all_term_lists(item)
    elif isinstance(node, dict):
        for value in node.values():
            yield from all_term_lists(value)


def coefficient_sizes(doc) -> tuple[int, int]:
    """Largest term count of one polynomial and largest numerator or
    denominator bit size anywhere in a report."""
    terms = bits = 0
    for lst in all_term_lists(doc):
        terms = max(terms, len(lst))
        for t in lst:
            bits = max(bits, abs(t["n"]).bit_length(), t["d"].bit_length())
    return terms, bits


# ----- straightening ----------------------------------------------------------


class Module:
    """Module over one cyclic vector u, coefficients in any field.

    Rank ``rho``: L_n u = eigen[n] u for rho <= n <= 2*rho, L_n u = 0 above
    2*rho, and modes below rho act freely.  The partition (a_1 >= ... >= a_l)
    labels L_{rho-a_1} ... L_{rho-a_l} u.  Rank 0 is the Verma module with
    L_0 u = eigen[0] u.  ``simplify`` normalises coefficients (sympy needs
    ``expand`` to see zeros; Fractions need nothing).
    """

    def __init__(self, rho: int, eigen: dict, central, simplify=None):
        self.rho, self.eigen, self.central = rho, eigen, central
        self.simplify = simplify or (lambda x: x)
        self.cache: dict = {}

    def basis_action(self, n: int, lam: tuple) -> dict:
        key = (n, lam)
        if key in self.cache:
            return self.cache[key]
        rho = self.rho
        out: dict = {}
        if not lam:
            if n < rho:
                out[(rho - n,)] = 1
            elif n <= 2 * rho and self.eigen[n] != 0:
                out[()] = self.eigen[n]
        elif n <= rho - lam[0]:
            out[(rho - n,) + lam] = 1
        else:
            m, rest = rho - lam[0], lam[1:]
            for mu, c in self.basis_action(n, rest).items():
                for nu, d in self.basis_action(m, mu).items():
                    _add(out, nu, c * d)
            for mu, c in self.basis_action(n + m, rest).items():
                _add(out, mu, c * (n - m))
            if n + m == 0:
                _add(out, rest, self.central * Fraction(n ** 3 - n, 12))
        out = {mu: self.simplify(c) for mu, c in out.items()}
        out = {mu: c for mu, c in out.items() if c != 0}
        self.cache[key] = out
        return out

    def act(self, n: int, vec: dict) -> dict:
        out: dict = {}
        for lam, c in vec.items():
            for mu, d in self.basis_action(n, lam).items():
                _add(out, mu, c * d)
        return clean(out, self.simplify)


def _add(store: dict, key, value) -> None:
    store[key] = store[key] + value if key in store else value


def clean(vec: dict, simplify=None) -> dict:
    simplify = simplify or (lambda x: x)
    out = {k: simplify(v) for k, v in vec.items()}
    return {k: v for k, v in out.items() if v != 0}


def combine(a: dict, b: dict, s, simplify=None) -> dict:
    """a + s*b."""
    out = dict(a)
    for k, v in b.items():
        _add(out, k, s * v)
    return clean(out, simplify)


# ----- evaluation at points -----------------------------------------------------


def eval_poly(terms: dict, point: list) -> Fraction:
    total = Fraction(0)
    for exps, c in terms.items():
        value = c
        for x, e in zip(point, exps):
            if e:
                value *= x ** e
        total += value
    return total


def eval_coeff(doc, point: list) -> Fraction:
    den = eval_poly(terms_of(doc["den"]), point)
    if den == 0:
        raise ZeroDivisionError("point is a pole of a coefficient")
    return eval_poly(terms_of(doc["num"]), point) / den


def random_nonzero(rng: random.Random) -> Fraction:
    num = rng.choice([-1, 1]) * rng.randint(1, 97)
    return Fraction(num, rng.randint(1, 89))


def evaluated_tail(doc, rng: random.Random, fixed: dict | None = None):
    """Seeded point for every header variable and the tail evaluated there.

    ``fixed`` pins some variables by name; the others are drawn, and drawn
    again while the point is a pole, so the result depends on the seed
    alone.  Returns the point by name, as a list, and the evaluated tail.
    """
    names = doc["variables"]["names"]
    tail = sorted(doc["series"]["tail"], key=lambda t: t["k"])
    for _ in range(50):
        point = [fixed[n] if fixed and n in fixed else random_nonzero(rng)
                 for n in names]
        try:
            vecs = [{partition_of(key): eval_coeff(c, point)
                     for key, c in rec["terms"].items()} for rec in tail]
        except ZeroDivisionError:
            continue
        return dict(zip(names, point)), point, [clean(v) for v in vecs]
    raise ZeroDivisionError("no regular evaluation point found")


def eigenvalue(values: dict, n: int, ncs: int, c0: str) -> Fraction:
    """((n+1) Q - c0) c_n - sum_{a+b=n} c_a c_b with c_j = 0 beyond ncs."""
    def c(j):
        return values[f"c{j}"] if 1 <= j <= ncs else 0
    out = ((n + 1) * values["Q"] - values[c0]) * c(n)
    for a in range(1, n):
        out -= c(a) * c(n - a)
    return out


# ----- construct reports --------------------------------------------------------


def expected_records(kind: str, r: int, order: int) -> list[tuple[str, str]]:
    """(relation, window) of every residual record a construct or verify
    report must carry, so that no re-check can silently drop out."""
    out = [("normalization", "k = 0")]
    window = f"k = 0..{order}"
    if kind == "one":
        out += [("grading", f"k = {k}") for k in range(order + 1)]
        out += [(f"mode {n} relation", window) for n in range(1, max(4, order + 1) + 1)]
        return out
    rho = r - 1
    out += [("support bound", f"k = {k}") for k in range(order + 1)]
    out += [(f"mode {n} relation", window)
            for n in range(r, max(2 * r, 2 * rho + r * order) + 1)]
    out += [("flow recurrence", f"order {k}") for k in range(order + 1)]
    return out


def check_records(doc, expected: list[tuple[str, str]]) -> list[str]:
    got = sorted((rec["relation"], rec["window"]) for rec in doc.get("residuals", []))
    problems = []
    if got != sorted(expected):
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        problems.append(f"residual records differ: missing {missing[:3]}, extra {extra[:3]}")
    bad = [rec for rec in doc.get("residuals", []) if rec["status"] != "ok"]
    if bad:
        problems.append(f"{len(bad)} residual records are not ok: {bad[0]}")
    return problems


def check_structure(doc, rank: str, order: int, convention: str) -> list[str]:
    """Header, v_0, support, grading and expansion-variable checks."""
    kind, r = rank_info(rank)
    rho, step = grading(kind, r)
    meta = doc.get("meta", {})
    if "error" in doc:
        return [f"error record: {doc['error']}"]
    if (meta.get("rank"), meta.get("K"), meta.get("convention")) != (rank, order, convention):
        return [f"meta {meta} does not match rank {rank} order {order}"]
    names = doc["variables"]["names"]
    weights = doc["variables"]["weights"]
    if meta.get("central") is None or terms_of(meta["central"]) != {
            tuple(2 if n == "Q" else 0 for n in names): Fraction(6),
            tuple(0 for _ in names): Fraction(1)}:
        return ["central charge is not 1 + 6 Q^2"]
    problems = []
    tail = {rec["k"]: rec["terms"] for rec in doc["series"]["tail"]}
    if sorted(tail) != list(range(order + 1)):
        return [f"tail orders {sorted(tail)} are not 0..{order}"]
    one = [{"e": [0] * len(names), "n": 1, "d": 1}]
    if tail[0] != {"": {"num": one, "den": one}}:
        problems.append("v_0 is not the cyclic vector with coefficient 1")
    var = names.index(expansion_variable(kind, r))
    for lst in all_term_lists(doc["series"]):
        if any(t["e"][var] != 0 for t in lst):
            problems.append(f"expansion variable {names[var]} occurs in the series")
            break

    def weights_of(lst):
        return {sum(e * w for e, w in zip(t["e"], weights)) for t in lst}

    for k, terms in tail.items():
        for key, coeff in terms.items():
            lam = partition_of(key)
            if sum(lam) > r * k:
                problems.append(f"v_{k} has partition {lam} of weight above {r * k}")
            num, den = weights_of(coeff["num"]), weights_of(coeff["den"])
            want = (sum(lam) - rho * len(lam)) - step * k
            if len(num) != 1 or len(den) != 1 or num.pop() - den.pop() != want:
                problems.append(f"coefficient at k={k}, {lam} is not "
                                f"quasi-homogeneous of weight {want}")
    return problems[:5]


def relation_table(kind: str, r: int, values: dict, n: int):
    """(scalar, shift) of the mode-n relation of the canonical series.

    Integer rank r over the rank r-1 base module: L~_r v_k = ((r+1)Q - c0)
    v_{k-1}, L~_{r-1+p} v_k = -2 c_{p-1} v_{k-1} for 2 <= p <= r, and
    L_{2r} v_k = -v_{k-2}.  Half rank (internal r): L_{2r-1} v_k = v_{k-1}.
    All other modes from r on annihilate v_k.  L~ is L minus the base
    module's eigenvalue on modes up to 2(r-1).
    """
    part = n - (r - 1)
    if kind == "integer":
        if part == 1:
            return (r + 1) * values["Q"] - values["c0"], 1
        if 2 <= part <= r:
            return -2 * values[f"c{part - 1}"], 1
        if part == r + 1:
            return Fraction(-1), 2
    elif part == r:
        return Fraction(1), 1
    return None, 0


def check_relations_at_point(doc, rank: str, order: int, rng: random.Random) -> list[str]:
    """Defining mode relations of an integer or half-rank series, evaluated
    at one seeded point of all header variables."""
    kind, r = rank_info(rank)
    rho = r - 1
    values, point, vecs = evaluated_tail(doc, rng)
    c0 = "c0p" if kind == "integer" else "c0"
    eigen = {n: eigenvalue(values, n, rho, c0) for n in range(rho, 2 * rho + 1)}
    central = eval_poly(terms_of(doc["meta"]["central"]), point)
    module = Module(rho, eigen, central)
    for n in range(r, max(2 * r, 2 * rho + r * order) + 1):
        scalar, shift = relation_table(kind, r, values, n)
        for k, vk in enumerate(vecs):
            lhs = module.act(n, vk)
            if n <= 2 * rho:
                lhs = combine(lhs, vk, -eigen[n])
            if scalar is not None and k - shift >= 0:
                lhs = combine(lhs, vecs[k - shift], -scalar)
            if lhs:
                return [f"mode {n} relation fails on v_{k} at the seeded point"]
    return []


def check_rank_one_at_points(doc, order: int, convention: str,
                             rng: random.Random, points: int = 2) -> list[str]:
    """Verma-module relations of the rank-one series at seeded (Q, c0)."""
    kappa = 1 if convention == "general" else 2
    checked = 0
    while checked < points:
        q, c0 = random_nonzero(rng), random_nonzero(rng)
        delta = c0 * (q - c0)
        try:
            _, _, vecs = evaluated_tail(doc, rng, {"Q": q, "c0": c0})
        except ZeroDivisionError:
            continue
        checked += 1
        module = Module(0, {0: delta}, 1 + 6 * q * q)
        for k, vk in enumerate(vecs):
            if combine(module.act(0, vk), vk, -(delta + k)):
                return [f"L_0 v_{k} != (Delta + {k}) v_{k}"]
            for n in range(3, order + 2):
                if module.act(n, vk):
                    return [f"L_{n} v_{k} != 0"]
        for n, want in ((1, 2 * q - kappa * c0), (2, Fraction(-1))):
            ratios = set()
            for k in range(n, order + 1):
                image, below = module.act(n, vecs[k]), vecs[k - n]
                lam = next(iter(below))
                ratio = image.get(lam, Fraction(0)) / below[lam]
                if combine(image, below, -ratio):
                    return [f"L_{n} v_{k} is not a multiple of v_{k - n}"]
                ratios.add(ratio)
            if len(ratios) > 1:
                return [f"L_{n} multiples differ across k: {sorted(ratios)}"]
            if ratios and ratios != {want}:
                return [f"L_{n} multiple {ratios.pop()} is not the eigenvalue {want}"]
    return []


def check_construct(doc, rank: str, order: int, convention: str,
                    rng: random.Random, reference=None) -> list[str]:
    """All checks of a construct report.  ``reference`` maps header names
    to sympy values of nu, g1, ce1 and v1 for rank 2 (see reference.py)."""
    problems = check_structure(doc, rank, order, convention)
    if problems:
        return problems
    kind, r = rank_info(rank)
    problems += check_records(doc, expected_records(kind, r, order))
    if kind == "one":
        problems += check_rank_one_at_points(doc, order, convention, rng)
    else:
        problems += check_relations_at_point(doc, rank, order, rng)
    if reference is not None:
        problems += reference(doc)
    return problems


# ----- gauge and verify reports ---------------------------------------------------


def expected_gauge_records(kind: str, r: int) -> list[str]:
    """Relations a gauge report must carry: Frobenius brackets, the
    certificate, the applied gauge and, for half ranks, the completion."""
    pairs = [(i, j) for i in range(r) for j in range(i + 1, r)]
    out = [f"bracket({i},{j}) closes on a[{i + j}]" for i, j in pairs]
    out.append("top frame row certificate")
    out += [f"gauged mode {i} residual" for i in range(r)]
    if kind == "half":
        out += [f"bracket({i},{j}) closes on scalar {i + j}" for i, j in pairs]
        out.append("top frame row annihilates the scalars")
        out += [f"scalar {n} is quasi-homogeneous of weight {n}" for n in range(r)]
    return out


def check_gauge(doc, rank: str, order: int) -> list[str]:
    if "error" in doc:
        return [f"error record: {doc['error']}"]
    kind, r = rank_info(rank)
    meta = doc.get("meta", {})
    if (meta.get("rank"), meta.get("K")) != (rank, order):
        return [f"meta {meta} does not match rank {rank} order {order}"]
    got = sorted(rec["relation"] for rec in doc.get("residuals", []))
    problems = []
    if got != sorted(expected_gauge_records(kind, r)):
        problems.append(f"gauge records differ from the expected set: {got}")
    bad = [rec for rec in doc.get("residuals", []) if rec["status"] != "ok"]
    if bad:
        problems.append(f"{len(bad)} gauge records are not ok: {bad[0]}")
    return problems


def check_verify(doc, code: int, rank: str, order: int, clean_input: bool) -> list[str]:
    """A clean input must give exit 0 with every expected record ok; a
    perturbed one exit 1 with at least one failing residual record."""
    if "error" in doc:
        return [f"error record: {doc['error']}"]
    kind, r = rank_info(rank)
    if clean_input:
        if code != 0:
            return [f"clean input gave exit {code}"]
        return check_records(doc, expected_records(kind, r, order))
    failing = [rec for rec in doc.get("residuals", []) if rec["status"] == "fail"]
    if code != 1 or not failing:
        return [f"perturbed input gave exit {code} with {len(failing)} failing records"]
    return []


def perturb(doc, rng: random.Random) -> str:
    """Change one term of one determined coefficient, in place.

    The site is a descendant (non-empty partition) coefficient of the top
    order v_K; the cyclic slots are left alone, since the truncation leaves
    the top one free.  The term's value is raised by 1 (lowered if that
    would cancel it).  Returns a description of the site.
    """
    top = max(doc["series"]["tail"], key=lambda t: t["k"])
    keys = sorted(key for key in top["terms"] if key != "")
    key = rng.choice(keys)
    terms = top["terms"][key]["num"]
    index = rng.randrange(len(terms))
    term = terms[index]
    step = term["d"] if term["n"] + term["d"] != 0 else -term["d"]
    term["n"] += step
    return f"k={top['k']} lam=({key}) term {index}"
