"""Run a command as a child of a *small* process and report its rusage.

``wait4``'s ``ru_maxrss`` for a child is never lower than its parent's
resident size at spawn time: ``exec`` folds the old address space's
high-water mark into the new process's accounting.  The benchmark
driver imports all of ``repro`` (~150 MB resident), which is about what
the CLI under test peaks at, so measured directly every child "peaks"
at the driver's size.  This launcher is started with ``python -S -E``
(~10 MB), forks the real command, waits for it with ``wait4`` and
writes what the kernel reports::

    python3 -S -E launch.py REPORT.json COMMAND [ARG...]

``REPORT.json.pid`` holds the command's pid while it runs (for
``/proc``); ``REPORT.json`` appears once it has exited.  The launcher
exits with the command's exit code (128 + N for signal N).
"""

import json
import os
import signal
import sys


def main() -> int:
    report, command = sys.argv[1], sys.argv[2:]
    # The driver signals the whole process group to stop a server.  A
    # handler, unlike SIG_IGN, is reset to the default in the exec'd
    # command, so the command takes the signal and this process lives
    # on to report its usage.
    signal.signal(signal.SIGINT, lambda *_: None)
    pid = os.fork()
    if pid == 0:
        try:
            os.execvp(command[0], command)
        finally:
            os._exit(127)
    with open(report + ".pid", "w") as handle:
        handle.write(str(pid))
    _, status, usage = os.wait4(pid, 0)
    with open(report + ".tmp", "w") as handle:
        json.dump(
            {
                "cpu_s": usage.ru_utime + usage.ru_stime,
                "rss_mb": usage.ru_maxrss / 1024.0,
            },
            handle,
        )
    os.replace(report + ".tmp", report)
    code = os.waitstatus_to_exitcode(status)
    return code if code >= 0 else 128 - code


if __name__ == "__main__":
    sys.exit(main())
