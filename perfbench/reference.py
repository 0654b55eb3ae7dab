"""Sympy derivation of the rank-2 series at low order, for checking reports.

The defining relations are solved by direct linear elimination over
sympy expressions, with the straightening of check.py and no package code.
Rank 2 lives over the rank-1 base module with primed zero-mode parameter
c0p, eigenvalues E_1 = (2Q - c0p) c1 and E_2 = -c1^2, and expands in c2.

* v_1 solves (L_2 - E_2) v_1 = (3Q - c0) v_0, L_3 v_1 = -2 c1 v_0 and
  L_4 v_1 = 0, with its cyclic slot ce1 free.
* The flow recurrence Z_k = f_0 v_k + g1 v_k + f_1 v_{k-1} - (nu + k - 1)
  v_{k-1}, with f_0 = -(c1/2)(L_1 - (2Q - c0) c1) and f_1 = (1/2)(L_0 -
  c0 (Q - c0)), pins g1 from the constant term of Z_0, nu from Z_1 and ce1
  from Z_2 (which needs v_2 from the relations one order up).

Takes about 2 s; ``rank2_reference()`` caches its result.
"""

from __future__ import annotations

from functools import lru_cache

import sympy as sp

from check import Module, clean, combine, partition_of, terms_of

Q, c0, c0p, c1, ce1, ce2, g1, nu = sp.symbols("Q c0 c0p c1 ce1 ce2 g1 nu")


def _partitions(n: int, cap: int | None = None) -> list[tuple]:
    if n == 0:
        return [()]
    cap = n if cap is None else min(cap, n)
    return [(first,) + rest for first in range(cap, 0, -1)
            for rest in _partitions(n - first, first)]


def _solve(module: Module, unknown_vec: dict, relations, unknowns) -> dict:
    eqs = []
    for n, rhs, tilde in relations:
        lhs = module.act(n, unknown_vec)
        if tilde:
            lhs = combine(lhs, unknown_vec, -module.eigen[n], sp.expand)
        diff = combine(lhs, rhs, -1, sp.expand)
        eqs += list(diff.values())
    (sol,) = sp.solve(eqs, unknowns, dict=True)
    return clean({lam: sp.sympify(c).subs(sol) for lam, c in unknown_vec.items()},
                 sp.expand)


@lru_cache(maxsize=1)
def rank2_reference() -> dict:
    """nu, g1, ce1 and v_1 (with ce1 both free and substituted)."""
    module = Module(1, {1: (2 * Q - c0p) * c1, 2: -c1 ** 2},
                    1 + 6 * Q ** 2, sp.expand)
    v0 = {(): sp.Integer(1)}
    xs = {lam: sp.Symbol("x_" + "_".join(map(str, lam)))
          for w in (1, 2) for lam in _partitions(w)}
    v1 = _solve(module, {(): ce1, **xs},
                [(2, {lam: (3 * Q - c0) * c for lam, c in v0.items()}, True),
                 (3, {lam: -2 * c1 * c for lam, c in v0.items()}, False),
                 (4, {}, False)], list(xs.values()))
    ys = {lam: sp.Symbol("y_" + "_".join(map(str, lam)))
          for w in range(1, 5) for lam in _partitions(w)}
    v2 = _solve(module, {(): ce2, **ys},
                [(2, {lam: (3 * Q - c0) * c for lam, c in v1.items()}, True),
                 (3, {lam: -2 * c1 * c for lam, c in v1.items()}, False),
                 (4, {lam: -c for lam, c in v0.items()}, False),
                 (5, {}, False), (6, {}, False)], list(ys.values()))
    vecs = [v0, v1, v2]

    def flow(k: int) -> sp.Expr:
        """Constant term of Z_k."""
        out: dict = {}
        if k < len(vecs):
            vk = vecs[k]
            f0 = combine(module.act(1, vk), vk, -(2 * Q - c0) * c1, sp.expand)
            out = combine(combine(out, f0, -c1 / 2, sp.expand), vk, g1, sp.expand)
        if k >= 1:
            vb = vecs[k - 1]
            f1 = combine(module.act(0, vb), vb, -c0 * (Q - c0), sp.expand)
            out = combine(combine(out, f1, sp.Rational(1, 2), sp.expand),
                          vb, -(nu + k - 1), sp.expand)
        return out.get((), sp.Integer(0))

    g1_val = sp.solve(flow(0), g1)[0]
    nu_val = sp.solve(flow(1).subs(g1, g1_val), nu)[0]
    ce1_val = sp.solve(flow(2).subs({g1: g1_val, nu: nu_val}), ce1)[0]
    return {"g1": g1_val, "nu": nu_val, "ce1": ce1_val, "v1": v1,
            "v1_pinned": clean({lam: c.subs(ce1, ce1_val) for lam, c in v1.items()},
                               sp.expand)}


def _expr(names: list[str], terms) -> sp.Expr:
    symbols = sp.symbols(names)
    total = sp.Integer(0)
    for exps, c in terms_of(terms).items():
        total += sp.Rational(c.numerator, c.denominator) * sp.Mul(
            *[s ** e for s, e in zip(symbols, exps)])
    return total


def check_rank2(doc) -> list[str]:
    """Compare a rank-2 report's nu, g1, ce1 and v_1 with the derivation."""
    ref = rank2_reference()
    names = doc["variables"]["names"]
    body = doc["series"]
    pinned = doc["meta"]["K"] >= 2
    problems = []
    if sp.expand(_expr(names, body["nu"]) - ref["nu"]) != 0:
        problems.append("nu differs from the sympy derivation")
    g = {rec["j"]: rec["poly"] for rec in body["g"]}
    if sp.expand(_expr(names, g.get(1, [])) - ref["g1"]) != 0:
        problems.append("g1 differs from the sympy derivation")
    constants = {rec["k"]: rec["poly"] for rec in body["constants"]}
    if pinned and sp.expand(_expr(names, constants.get(1, [])) - ref["ce1"]) != 0:
        problems.append("ce1 differs from the sympy derivation")
    want = ref["v1_pinned"] if pinned else ref["v1"]
    v1 = next(rec["terms"] for rec in body["tail"] if rec["k"] == 1)
    got = {partition_of(key): _expr(names, c["num"]) for key, c in v1.items()}
    if any(terms_of(c["den"]) != {(0,) * len(names): 1} for c in v1.values()):
        problems.append("v_1 carries a denominator")
    if set(got) != set(want) or any(sp.expand(got[lam] - want[lam]) != 0 for lam in got):
        problems.append("v_1 differs from the sympy derivation")
    return problems
