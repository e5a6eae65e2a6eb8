"""The standard ``process_*`` families, read when ``/metrics`` is scraped.

Resident and virtual memory, CPU seconds, open descriptors and start
time under the names every Prometheus client library uses, so stock
dashboards and alert rules work against the observatory unchanged.
Nothing is sampled between scrapes and nothing here is read back:
:func:`process_families` costs two small ``/proc/self`` reads and one
``getrusage`` per scrape, and the request path never calls it.
"""

from __future__ import annotations

import os
import resource
from typing import List

from .metrics import ChildSnapshot, FamilySnapshot


def process_families() -> List[FamilySnapshot]:
    """Snapshot this process's footprint as unlabeled metric families.

    CPU time comes from ``getrusage`` and is always present; the
    memory, descriptor and start-time families need ``/proc`` and are
    left out on hosts without it (a scrape never fails over them).
    """
    usage = resource.getrusage(resource.RUSAGE_SELF)
    samples = [
        ("process_cpu_seconds_total", "counter",
         "Total user and system CPU time spent in seconds.",
         usage.ru_utime + usage.ru_stime),
    ]
    try:
        with open("/proc/self/stat", "rb") as handle:
            # Fields after the parenthesised command name, which may
            # itself hold spaces: state is field 3, so index = field - 3.
            fields = handle.read().rpartition(b")")[2].split()
        with open("/proc/stat", "rb") as handle:
            boot = next(
                int(line.split()[1])
                for line in handle
                if line.startswith(b"btime")
            )
        samples += [
            ("process_open_fds", "gauge",
             "Number of open file descriptors.",
             len(os.listdir("/proc/self/fd"))),
            ("process_resident_memory_bytes", "gauge",
             "Resident memory size in bytes.",
             int(fields[21]) * resource.getpagesize()),
            ("process_start_time_seconds", "gauge",
             "Start time of the process since unix epoch in seconds.",
             boot + int(fields[19]) / os.sysconf("SC_CLK_TCK")),
            ("process_virtual_memory_bytes", "gauge",
             "Virtual memory size in bytes.",
             int(fields[20])),
        ]
    except (OSError, StopIteration, IndexError, ValueError):
        pass
    return [
        FamilySnapshot(name, help, kind, (), (ChildSnapshot((), value),))
        for name, kind, help, value in samples
    ]
