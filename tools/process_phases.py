"""Split one CLI command's process time into set-up, run and exit.

    python tools/process_phases.py [--src DIR] [-n N] -- CLI ARGUMENTS...

The command runs N times (default 9), each in a fresh interpreter that
imports ``virasoro_irregular`` from DIR (default: this checkout's ``src``)
and calls ``cli.main`` with the given arguments, one process at a time.
Each process marks, on CLOCK_MONOTONIC, when the package is imported and
``main`` is entered, and when ``main`` returns; the launch and the reaped
exit are taken from outside.  One JSON line is printed with the median,
in milliseconds, of three phases:

* ``setup_ms``: launch until the package is imported;
* ``run_ms``: ``main`` entered until it returns;
* ``exit_ms``: ``main`` returned until the process is gone.

A run-and-exit total, as an outside timer from the end of import sees it,
lumps the last two together; this tool keeps them apart.  One import-only
launch comes first, unmeasured, to warm the file caches (and the bytecode
cache where the environment allows one).  The command's standard output is
discarded, so give it ``--output`` when the report should be kept.  Every
run must exit with the same code, which is printed too.  Stdlib only.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# the measured process: argv is READY_FD SRC [CLI ARGUMENTS...]
CHILD = """\
import os, sys, time
fd = int(sys.argv[1])
sys.path.insert(0, sys.argv[2])
from virasoro_irregular import cli
os.write(fd, f"{time.monotonic()!r}\\n".encode())
code = cli.main(sys.argv[3:]) if sys.argv[3:] else 0
os.write(fd, f"{time.monotonic()!r}\\n".encode())
sys.exit(code)
"""


def phases(src: str, argv: list[str]) -> tuple[int, float, float, float]:
    """Exit code, set-up, run and exit time (s) of one fresh process."""
    read_fd, write_fd = os.pipe()
    start = time.monotonic()
    proc = subprocess.Popen([sys.executable, "-c", CHILD, str(write_fd), src, *argv],
                            pass_fds=(write_fd,), stdin=subprocess.DEVNULL,
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    os.close(write_fd)
    stderr = proc.communicate()[1]
    end = time.monotonic()
    with os.fdopen(read_fd, "rb") as pipe:
        marks = [float(mark) for mark in pipe.read().split()]
    if len(marks) != 2:
        raise SystemExit(f"{' '.join(argv)}: exit {proc.returncode} before main returned\n"
                         f"{stderr.decode(errors='replace')[-2000:]}")
    entered, returned = marks
    return proc.returncode, entered - start, returned - entered, end - returned


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=os.path.join(ROOT, "src"),
                        help="directory holding the package (default: this checkout's src)")
    parser.add_argument("-n", type=int, default=9, help="fresh processes (default 9)")
    parser.add_argument("argv", nargs=argparse.REMAINDER,
                        help="the CLI arguments, after --")
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
    if not argv or args.n < 1:
        parser.error("give N >= 1 and the CLI arguments after --")
    src = os.path.abspath(args.src)
    phases(src, [])
    runs = [phases(src, argv) for _ in range(args.n)]
    codes = {code for code, *_ in runs}
    if len(codes) != 1:
        raise SystemExit(f"exit codes differ between runs: {sorted(codes)}")
    medians = [statistics.median(run[i] for run in runs) * 1000 for i in (1, 2, 3)]
    print(json.dumps({"command": " ".join(argv), "src": src, "n": args.n,
                      "exit_code": codes.pop(),
                      **{f"{name}_ms": round(value, 2) for name, value
                         in zip(("setup", "run", "exit"), medians)}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
