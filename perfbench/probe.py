"""Host-speed probe: a fixed piece of the package's kind of work.

    python3 probe.py

run.py launches this in a fresh interpreter before every command and times
it from launch to exit.  It does what a command does, without the package:
start an interpreter, import the standard modules the package imports, and
multiply sparse polynomials with Fraction coefficients stored in dicts
keyed by exponent tuples, as ``LaurentPoly`` does.  Nothing in it depends
on the program under test, so its time follows only the host's speed.
"""

import argparse, ast, dataclasses, itertools, json, math  # noqa: E401,F401  as the package
from fractions import Fraction


def poly(seed: int, size: int) -> dict:
    out, x = {}, seed
    for _ in range(size):
        x = (x * 1103515245 + 12345) % 2147483648
        exps = (x % 7, (x >> 3) % 6, (x >> 6) % 5 - 2)
        out[exps] = Fraction((x >> 9) % 9973 - 4986 or 1, (x >> 16) % 89 + 1)
    return out


def mul(a: dict, b: dict) -> dict:
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            exps = tuple(x + y for x, y in zip(e1, e2))
            s = out.get(exps)
            out[exps] = c1 * c2 if s is None else s + c1 * c2
    return out


polys = [poly(i, 40) for i in range(10)]
products = [mul(polys[i], polys[(7 * i + 3) % 10]) for i in range(10)]
json.dumps(sum(len(p) for p in products))
