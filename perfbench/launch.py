"""Run one ``virasoro-irregular`` command the way its console script does.

    python3 launch.py SRC READY_FD TRACE_OUT [CLI ARGUMENTS...]

SRC is the directory holding the package.  Once the package is imported
and the command is about to run, the CLOCK_MONOTONIC time is written to the
inherited file descriptor READY_FD; the parent takes set-up time as launch
to that mark and run time as that mark to process exit.  When the command
returns, its peak resident set (VmHWM, in kB) follows on the same
descriptor.  The parent cannot take it from wait4: Linux carries the
parent's peak into ru_maxrss across fork and exec.  With TRACE_OUT
other than ``-``, the package's public functions are wrapped before the
command runs (see tracer.py) and a per-layer summary is written there.
With no CLI arguments the package is imported and nothing else runs, which
warms the bytecode and file caches.
"""

import os
import sys
import time


def main() -> int:
    src, ready_fd, trace_out = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    argv = sys.argv[4:]
    sys.path.insert(0, src)
    from virasoro_irregular import cli

    tracer = None
    if trace_out != "-":
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import tracer as tracing
        tracer = tracing.install()
    os.write(ready_fd, f"{time.monotonic()!r}\n".encode())
    code = cli.main(argv) if argv else 0
    os.write(ready_fd, f"{peak_rss_kb()}\n".encode())
    os.close(ready_fd)
    if tracer is not None:
        tracer.write_summary(trace_out)
    return code


def peak_rss_kb() -> int:
    """This process's peak resident set since exec, in kB."""
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


if __name__ == "__main__":
    sys.exit(main())
