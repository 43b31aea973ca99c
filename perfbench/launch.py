"""Start one command as a grandchild of the benchmark and report on it.

    python3 -S perfbench/launch.py REPORT_FD COMMAND ARG...

Linux copies the memory high-water mark of the process that forks a
child into the child's ru_maxrss, so a program forked straight from the
benchmark driver would report at least the driver's own size. This
launcher is a bare interpreter: it forks the command, waits for it, and
writes "start end wait-status maxrss-kb" to REPORT_FD. Start and end are
read just around the fork and the wait from the system-wide monotonic
clock, the same clock the driver stamps output lines with.
"""

import os
import sys
import time


def main() -> None:
    report, argv = int(sys.argv[1]), sys.argv[2:]
    start = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        try:
            os.execvp(argv[0], argv)
        finally:
            os._exit(127)
    # Only the command keeps stdout open, so the driver's read ends when it exits.
    os.close(1)
    _, status, usage = os.wait4(pid, 0)
    end = time.perf_counter()
    os.write(report, f"{start!r} {end!r} {status} {usage.ru_maxrss}".encode())


if __name__ == "__main__":
    main()
