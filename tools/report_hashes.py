"""Fingerprint the JSON reports of a checkout: exit code, size, sha256, time.

    python tools/report_hashes.py [--check] [CHECKOUT]

CHECKOUT is the root of a source tree holding ``src/virasoro_irregular``
(default: the tree this script sits in).  Each command listed in
``report_hashes.txt`` beside this script runs as its own
``python -m virasoro_irregular.cli`` process, one at a time, writing its
report with ``--format json`` to a temporary file.  One line is printed per
command:

    exit  bytes  sha256  wall_s  peak_rss_mb  command

``report_hashes.txt`` also holds the expected exit code, size and sha256 of
each command.  With ``--check`` the script stops at the first command that
differs from them, names it on stderr and exits 1; it exits 0 when all
match.  A change that alters report bytes on purpose updates that file.

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

EXPECTED = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "report_hashes.txt")


def load_expected() -> list[tuple[int, int, str, str]]:
    """The (exit, bytes, sha256, command) lines of the expected-values file."""
    rows = []
    with open(EXPECTED, "r", encoding="utf-8") as handle:
        for line in handle:
            if line.strip() and not line.startswith("#"):
                code, size, digest, command = line.split(None, 3)
                rows.append((int(code), int(size), digest, command.strip()))
    return rows


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
    args = sys.argv[1:]
    check = "--check" in args
    args = [a for a in args if a != "--check"]
    root = args[0] if args else os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    src = os.path.join(os.path.abspath(root), "src")
    if len(args) > 1 or not os.path.isdir(os.path.join(src, "virasoro_irregular")):
        print(f"usage: report_hashes.py [--check] [CHECKOUT]; "
              f"no src/virasoro_irregular under {root}", file=sys.stderr)
        return 2
    print("exit  bytes  sha256  wall_s  peak_rss_mb  command")
    with tempfile.TemporaryDirectory() as tmp:
        out_path = os.path.join(tmp, "report.json")
        for expected in load_expected():
            command = expected[3]
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
            if check and (code, len(data), digest, command) != expected:
                print(f"MISMATCH {command}: expected exit {expected[0]}, "
                      f"{expected[1]} bytes, sha256 {expected[2]}", file=sys.stderr)
                return 1
    if check:
        print("all fingerprints match", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
