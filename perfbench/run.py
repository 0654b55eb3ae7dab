"""Benchmark of the virasoro-irregular CLI, end to end and per module.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --steadiness N [--seconds S] [--seed S0]

A run repeats whole rounds of one workload's CLI commands until S seconds
have passed, one ``virasoro-irregular`` process at a time, and checks every
output with check.py, which does not import the package.  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

* ``--trace 0`` reports the end-to-end metrics: ``wall_s`` (per round, the
  summed time of each command from the end of its set-up to its exit) and
  ``setup_s`` (per round, the summed time from launching each command until
  the package is imported and the command is about to run), each the mean
  over the run's rounds scaled to the reference host speed by probe.py,
  and ``peak_rss_mb`` (largest peak resident set of any command in the run).
* ``--trace 1`` runs the same commands with the package's public functions
  wrapped from outside (tracer.py) and reports the per-layer metrics, each
  the median over the run's rounds of a per-round sum.

``--steadiness N`` runs N seeds of every workload twice, as two interleaved
sets, and prints each metric's median, quartiles, min and max per set.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "virasoro_irregular")
WORK = os.path.join(HERE, "work")
LAUNCH = os.path.join(HERE, "launch.py")
PROBE = os.path.join(HERE, "probe.py")
# The time probe.py takes on the reference host.  End-to-end times are
# scaled to that host speed (see host_factor).
PROBE_S = 0.2

sys.path.insert(0, HERE)
import check  # noqa: E402


@dataclass(frozen=True)
class Op:
    """One CLI command and what its output must satisfy."""

    command: str
    rank: str
    order: int
    convention: str = "general"
    input: str | None = None     # verify: the report re-ingested
    clean: bool = True           # verify: whether the input is unmodified

    @property
    def label(self) -> str:
        name = f"{self.command}-{self.rank.replace('/', 'h')}-K{self.order}"
        if self.convention != "general":
            name += "-display"
        if self.input is not None:
            name += "-clean" if self.clean else "-perturbed"
        return name

    def argv(self, output: str) -> list[str]:
        if self.input is not None:
            args = ["verify", "--input", self.input]
        else:
            args = [self.command, "--rank", self.rank, "--order", str(self.order)]
            if self.convention != "general":
                args += ["--convention", self.convention]
        return args + ["--format", "json", "--output", output]


TAIL_SOLVE = [Op("construct", "2", 4), Op("construct", "5/2", 3),
              Op("gauge", "2", 4), Op("gauge", "3/2", 4)]
RANK_ONE = [Op("construct", "1", 4), Op("construct", "1", 4, "section2-display")]
SOURCES = [op for op in TAIL_SOLVE + RANK_ONE if op.command == "construct"]
WORKLOADS = ("tail_solve", "rank_one", "reingest")

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# per-layer metric -> (unit, key in the tracer summary)
PER_LAYER = {
    "ring.mul_calls": ("count", "ring.mul_calls"),
    "ring.mul_s": ("s", "ring.mul_self_s"),
    "ring.term_products": ("count", "ring.term_products"),
    "ring.add_calls": ("count", "ring.add_calls"),
    "ring.add_s": ("s", "ring.add_self_s"),
    "ring.exact_div_calls": ("count", "ring.exact_div_calls"),
    "ring.exact_div_s": ("s", "ring.exact_div_self_s"),
    "ring.max_coeff_terms": ("count", None),
    "ring.max_coeff_bits": ("bits", None),
    "linalg.det_bareiss_calls": ("count", "linalg.det_bareiss_calls"),
    "linalg.det_bareiss_s": ("s", "linalg.det_bareiss_self_s"),
    "linalg.adjugate_s": ("s", "linalg.adjugate_self_s"),
    "linalg.inverse_exact_s": ("s", "linalg.inverse_exact_self_s"),
    "virasoro.apply_mode_calls": ("count", "virasoro.apply_mode_calls"),
    "virasoro.apply_mode_s": ("s", "virasoro.apply_mode_self_s"),
    "virasoro.tilde_word_calls": ("count", "virasoro.tilde_word_calls"),
    "virasoro.tilde_word_s": ("s", "virasoro.tilde_word_self_s"),
    "gram.entry_on_calls": ("count", "gram.entry_on_calls"),
    "gram.entry_on_s": ("s", "gram.entry_on_self_s"),
    "gram.solve_descendants_s": ("s", "gram.solve_descendants_self_s"),
    "gram.entry_calls": ("count", "gram.entry_calls"),
    "gram.entry_s": ("s", "gram.entry_self_s"),
    "frames.dual_operator_s": ("s", "frames.dual_operator_self_s"),
    "solver.solve_s": ("s", "solver.solve_total_s"),
    "solver.self_s": ("s", None),
    "solver.verify_s": ("s", "solver.verify_total_s"),
    "gauge.obstructions_s": ("s", "gauge.obstructions_self_s"),
    "gauge.completion_s": ("s", "gauge.completion_self_s"),
    "gauge.checks_s": ("s", "gauge.checks_self_s"),
    "serialize.from_doc_s": ("s", "serialize.from_doc_self_s"),
    "serialize.to_doc_s": ("s", "serialize.to_doc_self_s"),
    "serialize.dumps_s": ("s", "serialize.dumps_self_s"),
    "serialize.report_bytes": ("bytes", None),
    "cli.self_s": ("s", "cli_self_s"),
}


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


# ----- launching one command ---------------------------------------------------


def launch(args: list[str], trace_path: str | None = None, op_id: str = "") -> dict:
    """Run one CLI command in a fresh interpreter and time it from outside."""
    read_fd, write_fd = os.pipe()
    cmd = [sys.executable, LAUNCH, SRC, str(write_fd), trace_path or "-"] + args
    env = dict(os.environ, PERFBENCH_OP=op_id)
    with open(os.path.join(WORK, "stderr.txt"), "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, pass_fds=(write_fd,), stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err, cwd=WORK, env=env)
        os.close(write_fd)
        try:
            proc.wait()
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        end = time.monotonic()
    with os.fdopen(read_fd, "rb") as pipe:
        marks = pipe.read().decode().split()
    if not marks:
        with open(os.path.join(WORK, "stderr.txt"), encoding="utf-8",
                  errors="replace") as err:
            raise RuntimeError(f"command never started: {args}\n{err.read()[-2000:]}")
    # a command that dies in a traceback leaves no peak mark; its exit code
    # and missing report then fail the checks
    ready = float(marks[0])
    return {"code": proc.returncode, "setup": ready - start, "wall": end - ready,
            "rss_mb": int(marks[1]) / 1024.0 if len(marks) > 1 else 0.0}


def probe() -> float:
    """Launch-to-exit time of probe.py in a fresh interpreter."""
    start = time.monotonic()
    subprocess.run([sys.executable, PROBE], check=True, stdin=subprocess.DEVNULL,
                   stdout=subprocess.DEVNULL, cwd=WORK)
    return time.monotonic() - start


# ----- inputs -------------------------------------------------------------------


def source_hash() -> str:
    digest = hashlib.sha256(sys.version.encode())
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name), "rb") as handle:
                digest.update(name.encode() + b"\0" + handle.read())
    return digest.hexdigest()[:16]


def check_output(op: Op, code: int, path: str, rng: random.Random) -> list[str]:
    """Independent check of one command's exit code and report."""
    try:
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
    except (OSError, ValueError) as exc:
        return [f"unreadable report: {exc}"]
    if op.input is not None:
        return check.check_verify(doc, code, op.rank, op.order, op.clean)
    if code != 0:
        return [f"exit code {code}"]
    if op.command == "gauge":
        return check.check_gauge(doc, op.rank, op.order)
    reference = None
    if op.rank == "2":
        import reference as ref
        reference = ref.check_rank2
    return check.check_construct(doc, op.rank, op.order, op.convention, rng, reference)


def reingest_inputs() -> list[str]:
    """Clean construct reports made by the code under test, cached per
    source hash under work/, and checked when made."""
    folder = os.path.join(WORK, "inputs", source_hash())
    paths = [os.path.join(folder, f"{op.label}.json") for op in SOURCES]
    if os.path.exists(os.path.join(folder, "checked")):
        return paths
    os.makedirs(folder, exist_ok=True)
    rng = random.Random(0)
    for op, path in zip(SOURCES, paths):
        result = launch(op.argv(path))
        problems = check_output(op, result["code"], path, rng)
        if problems:
            raise RuntimeError(f"reingest input {op.label} is wrong: {problems}")
    open(os.path.join(folder, "checked"), "w").close()
    return paths


def reingest_ops(rng: random.Random) -> list[Op]:
    """Each source report once clean and once with a seeded perturbation."""
    ops = []
    folder = os.path.join(WORK, "perturbed")
    os.makedirs(folder, exist_ok=True)
    for op, path in zip(SOURCES, reingest_inputs()):
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
        site = check.perturb(doc, rng)
        bad = os.path.join(folder, f"{op.label}.json")
        with open(bad, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, indent=2, sort_keys=True)
        log(f"perturbed {op.label} at {site}")
        for clean, source in ((True, path), (False, bad)):
            ops.append(Op("verify", op.rank, op.order, op.convention, source, clean))
    return ops


# ----- one run ------------------------------------------------------------------


def run_round(ops: list[Op], rng: random.Random, traced: bool) -> dict:
    order = list(ops)
    rng.shuffle(order)
    out = os.path.join(WORK, "out")
    os.makedirs(out, exist_ok=True)
    totals = {"wall": 0.0, "setup": 0.0, "probe": [], "rss_mb": 0.0, "failed": 0,
              "report_bytes": 0, "max_terms": 0, "max_bits": 0, "layers": {}}
    for index, op in enumerate(order):
        path = os.path.join(out, f"{op.label}.json")
        trace_path = os.path.join(out, f"{op.label}.trace.json") if traced else None
        for stale in (path, trace_path):
            if stale and os.path.exists(stale):
                os.remove(stale)
        if not traced:
            totals["probe"].append(probe())
        result = launch(op.argv(path), trace_path, f"{index}:{op.label}")
        problems = check_output(op, result["code"], path, rng)
        if problems:
            totals["failed"] += 1
            log(f"FAILED {op.label}: {problems}")
        totals["wall"] += result["wall"]
        totals["setup"] += result["setup"]
        totals["rss_mb"] = max(totals["rss_mb"], result["rss_mb"])
        if traced:
            read_back = [path] + ([op.input] if op.input else [])
            totals["report_bytes"] += sum(os.path.getsize(p) for p in read_back
                                          if os.path.exists(p))
            sized = op.input if op.input else path
            if os.path.exists(sized):
                with open(sized, encoding="utf-8") as handle:
                    terms, bits = check.coefficient_sizes(json.load(handle))
                totals["max_terms"] = max(totals["max_terms"], terms)
                totals["max_bits"] = max(totals["max_bits"], bits)
            if not os.path.exists(trace_path):
                continue  # the command died before its summary; counted as failed
            with open(trace_path, encoding="utf-8") as handle:
                summary = json.load(handle)
            for key, value in summary.items():
                totals["layers"][key] = totals["layers"].get(key, 0) + value
    if not traced:
        totals["probe"].append(probe())  # so that every command is bracketed
    return totals


def layer_metrics(totals: dict) -> dict:
    layers = totals["layers"]
    out = {}
    for name, (_unit, key) in PER_LAYER.items():
        if key is not None:
            out[name] = layers.get(key, 0)
    out["solver.self_s"] = (layers.get("solver.solve_self_s", 0.0)
                            + layers.get("solver.verify_self_s", 0.0))
    out["ring.max_coeff_terms"] = totals["max_terms"]
    out["ring.max_coeff_bits"] = totals["max_bits"]
    out["serialize.report_bytes"] = totals["report_bytes"]
    return out


def host_factor(rounds: list[dict]) -> float:
    """How much slower the host ran than the reference host, over the run.

    The host switches between a fast state and one about 1.5 times slower,
    each lasting from seconds to minutes, and CPU time moves with wall time.
    The probe runs before every command and at the end of every round, so
    the mean probe time over the run sees the same mix of states as the
    commands did."""
    return statistics.mean(t for r in rounds for t in r["probe"]) / PROBE_S


def run(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    rng = random.Random(seed)
    os.makedirs(WORK, exist_ok=True)
    if workload == "tail_solve":
        ops = TAIL_SOLVE
    elif workload == "rank_one":
        ops = RANK_ONE
    else:
        ops = reingest_ops(rng)
    launch([])  # warm the bytecode and file caches; not measured
    rounds = []
    start = time.monotonic()
    while not rounds or time.monotonic() - start < seconds:
        rounds.append(run_round(ops, rng, traced))
        log(f"round {len(rounds)}: wall {rounds[-1]['wall']:.3f} s, "
            f"setup {rounds[-1]['setup']:.3f} s, failed {rounds[-1]['failed']}")

    attempted = len(ops) * len(rounds)
    failed = sum(r["failed"] for r in rounds)
    if traced:
        per_round = [layer_metrics(r) for r in rounds]
        metrics = {name: {"value": statistics.median(m[name] for m in per_round),
                          "unit": unit}
                   for name, (unit, _) in PER_LAYER.items()}
    else:
        factor = host_factor(rounds)
        log(f"host factor {factor:.4f}")
        metrics = {
            "wall_s": {"value": statistics.mean(r["wall"] for r in rounds) / factor,
                       "unit": "s"},
            "setup_s": {"value": statistics.mean(r["setup"] for r in rounds) / factor,
                        "unit": "s"},
            "peak_rss_mb": {"value": max(r["rss_mb"] for r in rounds), "unit": "MB"},
        }
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


# ----- steadiness ---------------------------------------------------------------


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def steadiness(n: int, seconds: int, seed_base: int) -> int:
    """N seeds per workload in two interleaved sets; quartiles per set."""
    results = {(w, s): [] for w in WORKLOADS for s in "AB"}
    for i in range(n):
        for w in WORKLOADS:
            pair = [("A", seed_base + i), ("B", seed_base + 1000 + i)]
            if i % 2:
                pair.reverse()
            for s, seed in pair:
                cmd = [sys.executable, os.path.abspath(__file__), "--workload", w,
                       "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
                proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
                line = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "{}"
                doc = json.loads(line) if proc.returncode == 0 else {}
                results[(w, s)].append(doc)
                log(f"{w} set {s} seed {seed}: exit {proc.returncode} {line}")
    summary = {}
    for w in WORKLOADS:
        for s in "AB":
            runs = [d for d in results[(w, s)] if d]
            if not runs:
                continue
            row = {"runs": len(runs),
                   "failed_share": sorted({d["failed"] / d["attempted"] for d in runs})}
            for metric in END_TO_END:
                values = [d["metrics"][metric]["value"] for d in runs]
                q1, med, q3 = quartiles(values)
                row[metric] = {"median": med, "q1": q1, "q3": q3,
                               "min": min(values), "max": max(values),
                               "spread": (q3 - q1) / med}
            summary[f"{w}/{s}"] = row
    for w in WORKLOADS:
        if f"{w}/A" not in summary or f"{w}/B" not in summary:
            print(f"\n{w}: a set has no successful run")
            continue
        print(f"\n{w}")
        for metric in END_TO_END:
            a, b = summary[f"{w}/A"][metric], summary[f"{w}/B"][metric]
            for s, m in (("A", a), ("B", b)):
                print(f"  {metric:12} set {s}: median {m['median']:.4f}  "
                      f"q1 {m['q1']:.4f}  q3 {m['q3']:.4f}  min {m['min']:.4f}  "
                      f"max {m['max']:.4f}  spread {m['spread']:.3f}")
            print(f"  {metric:12} B/A - 1 = {b['median'] / a['median'] - 1:+.3f}")
        print(f"  failed share A {summary[f'{w}/A']['failed_share']} "
              f"B {summary[f'{w}/B']['failed_share']}")
    print(json.dumps(summary, sort_keys=True))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", type=int, metavar="N",
                        help="run N seeds of each workload in two interleaved sets")
    args = parser.parse_args()
    # SIGTERM unwinds like an exception, so a running command is killed and
    # waited for instead of left behind
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join(PACKAGE, "cli.py")):
        log(f"no package source under {SRC}; run from a checkout of the repository")
        return 2
    if args.steadiness:
        return steadiness(args.steadiness, args.seconds, args.seed)
    if args.workload is None:
        parser.error("--workload is required")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
