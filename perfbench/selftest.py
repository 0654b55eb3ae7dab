"""Self-test of the output checks: clean reports pass, faulty ones fail.

    python3 perfbench/selftest.py

Makes small clean reports with the CLI (rank 2 and 5/2 at order 3, rank
one at order 3), then feeds the benchmark's check to each clean report and
to three kinds of faulty copies:

* one determined coefficient changed (a descendant of v_K, as reingest
  perturbs it), for rank 2 and rank 5/2;
* one residual record deleted;
* a rank-one report with one level-2 coefficient scaled by 2.

Each faulty copy must count as a failed operation and each clean report
as a passed one.  Exits 0 when all of them do, 1 otherwise.
"""

from __future__ import annotations

import copy
import json
import os
import random
import sys

import check
import run
from run import Op


def count(cases) -> tuple[int, int]:
    failed = 0
    for label, op, doc, rng in cases:
        path = os.path.join(run.WORK, "selftest", f"{label}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
        problems = run.check_output(op, 0, path, rng)
        failed += bool(problems)
        print(f"  {label:36} {'FAILED ' + problems[0] if problems else 'passed'}")
    return len(cases), failed


def main() -> int:
    rng = random.Random(1)
    os.makedirs(os.path.join(run.WORK, "selftest"), exist_ok=True)
    ops = [Op("construct", "2", 3), Op("construct", "5/2", 3), Op("construct", "1", 3)]
    clean = {}
    for op in ops:
        path = os.path.join(run.WORK, "selftest", f"{op.label}.made.json")
        result = run.launch(op.argv(path))
        if result["code"] != 0:
            print(f"{op.label}: exit {result['code']}")
            return 1
        with open(path, encoding="utf-8") as handle:
            clean[op] = json.load(handle)

    def fresh():
        return random.Random(rng.random())

    faulty = []
    for op in ops[:2]:
        doc = copy.deepcopy(clean[op])
        site = check.perturb(doc, fresh())
        faulty.append((f"{op.label} changed {site}", op, doc, fresh()))
    for op in ops:
        doc = copy.deepcopy(clean[op])
        dropped = doc["residuals"].pop(rng.randrange(len(doc["residuals"])))
        faulty.append((f"{op.label} without '{dropped['relation']}'", op, doc, fresh()))
    rank_one = ops[2]
    doc = copy.deepcopy(clean[rank_one])
    level2 = next(rec for rec in doc["series"]["tail"] if rec["k"] == 2)
    key = rng.choice(sorted(level2["terms"]))
    for term in level2["terms"][key]["num"]:
        term["n"] *= 2
    faulty.append((f"{rank_one.label} v_2[{key}] scaled", rank_one, doc, fresh()))

    print("clean reports")
    clean_n, clean_failed = count([(op.label, op, doc, fresh()) for op, doc in clean.items()])
    print("faulty reports")
    faulty_n, faulty_failed = count(faulty)
    print(f"clean: {clean_n} attempted, {clean_failed} failed; "
          f"faulty: {faulty_n} attempted, {faulty_failed} failed")
    return 0 if clean_failed == 0 and faulty_failed == faulty_n else 1


if __name__ == "__main__":
    sys.exit(main())
