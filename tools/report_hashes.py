"""Fingerprint the JSON reports of a checkout: exit code, size, sha256, time.

    python tools/report_hashes.py [CHECKOUT]

CHECKOUT is the root of a source tree holding ``src/virasoro_irregular``
(default: the tree this script sits in).  Each command of a fixed list runs
as its own ``python -m virasoro_irregular.cli`` process, one at a time,
writing its report with ``--format json`` to a temporary file.  One line is
printed per command:

    exit  bytes  sha256  wall_s  peak_rss_mb  command

A command still running after ``TIMEOUT_S`` seconds is killed and shows
exit -9 with an empty report: older checkouts do not finish some of the
commands.

``peak_rss_mb`` is the child's ``ru_maxrss`` from ``wait4``; Linux carries
the RSS of this script (about 10 MB) into it at fork, so it is a lower bound
only there.  Two checkouts produce byte-identical reports exactly when their
sha256 columns agree.  Stdlib only.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
import threading
import time

TIMEOUT_S = 300

COMMANDS = [
    # the tail_solve and rank_one benchmark workloads
    "construct --rank 2 --order 4",
    "construct --rank 5/2 --order 3",
    "gauge --rank 2 --order 4",
    "gauge --rank 3/2 --order 4",
    "construct --rank 1 --order 4",
    "construct --rank 1 --order 4 --convention section2-display",
    # further sizes and commands
    "gram --rank 2 --order 4",
    "construct --rank 3 --order 3",
    "gauge --rank 3 --order 4",
    # the frame tables and the re-check's own rebuild of the canonical operator
    "frames --rank 4",
    "frames --rank 7/2",
    "verify --rank 3 --order 3",
    # the rank-one re-check's records
    "verify --rank 1 --order 4",
    "verify --rank 1 --order 4 --convention section2-display",
    # the reachable frontier
    "construct --rank 2 --order 5",
    "construct --rank 2 --order 6",
    "construct --rank 5/2 --order 4",
    "gauge --rank 5/2 --order 5",
    "construct --rank 1 --order 5",
    "construct --rank 1 --order 6",
    # the largest reports, where the JSON encoding does the most work
    "construct --rank 3 --order 6",
    "construct --rank 4 --order 5",
    # the window arithmetic of graded series: two error records whose named
    # order is computed from a window's top, and the largest clean gauge run
    "gauge --rank 3 --order 3",
    "gauge --rank 5/2 --order 4",
    "gauge --rank 4 --order 6",
    # the rank-7/2 scalar completion, a sparse system of about 1,000 rows,
    # ahead of the two window errors
    "gauge --rank 7/2 --order 3",
    "gauge --rank 7/2 --order 4",
]


def run(src: str, command: str, out_path: str) -> tuple[int, float, float]:
    """Run one command; return its exit code, wall seconds and peak RSS in MB."""
    env = dict(os.environ, PYTHONPATH=src)
    argv = [sys.executable, "-m", "virasoro_irregular.cli", *command.split(),
            "--format", "json", "--output", out_path]
    start = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL)
    timer = threading.Timer(TIMEOUT_S, proc.kill)
    timer.start()
    _, status, usage = os.wait4(proc.pid, 0)
    timer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024


def main() -> int:
    root = sys.argv[1] if len(sys.argv) > 1 else os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    src = os.path.join(os.path.abspath(root), "src")
    if not os.path.isdir(os.path.join(src, "virasoro_irregular")):
        print(f"no src/virasoro_irregular under {root}", file=sys.stderr)
        return 2
    print("exit  bytes  sha256  wall_s  peak_rss_mb  command")
    with tempfile.TemporaryDirectory() as tmp:
        out_path = os.path.join(tmp, "report.json")
        for command in COMMANDS:
            if os.path.exists(out_path):
                os.remove(out_path)
            code, wall, rss = run(src, command, out_path)
            data = b""
            if os.path.exists(out_path):
                with open(out_path, "rb") as handle:
                    data = handle.read()
            digest = hashlib.sha256(data).hexdigest()
            print(f"{code}  {len(data)}  {digest}  {wall:.2f}  {rss:.1f}  {command}",
                  flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
