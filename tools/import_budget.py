#!/usr/bin/env python3
"""What each CLI command loads: modules, import wall, peak RSS.

A CLI process should pay only for the subcommand it runs (``monitor``
needs neither networkx nor asyncio, ``serve`` no simulator or engine).
This tool runs each command as a real subprocess on a tiny generated
feed/store and reports

* the modules in ``sys.modules`` when the command returns,
* ``ru_maxrss`` of the process, and
* the ten most expensive imports (``-X importtime`` self time, summed
  per package; ``repro`` split by subpackage).

``tests/test_import_budget.py`` asserts on the module sets through
:func:`build_inputs`, :func:`command_argv` and :func:`run_command`, so
the test and this report cannot disagree about what a command is.

Usage::

    python tools/import_budget.py [COMMAND ...] [--keep DIR]

Run via ``make import-budget``.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import urllib.request
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, FrozenSet, List, Optional, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")])
    ),
}

#: Topology the tiny feed is generated on (and analyzed against).
SEED_FLAGS = ["--seed", "1", "--probes", "12"]

#: Runs ``repro.cli.main(argv)`` and, when it returns (or is
#: interrupted), records what the process had loaded by then.
_RUNNER = """\
import sys
from repro.cli import main
out, argv = sys.argv[1], sys.argv[2:]
code = 130
try:
    code = main(argv)
except KeyboardInterrupt:
    pass
finally:
    loaded = sorted(sys.modules)
    import json, resource
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(out, "w") as handle:
        json.dump({"modules": loaded, "maxrss_kb": peak}, handle)
sys.exit(code)
"""

_IMPORTTIME = re.compile(r"^import time:\s+(\d+) \|\s+\d+ \|\s+(\S+)$")


@dataclass(frozen=True)
class Loaded:
    """One command run: exit code, loaded modules, peak RSS, import cost."""

    returncode: int
    modules: FrozenSet[str]
    maxrss_mb: float
    #: (package, summed self import time in ms), most expensive first;
    #: empty unless the run asked for ``importtime``.
    import_ms: Tuple[Tuple[str, float], ...] = ()

    def loads(self, name: str) -> bool:
        """True when module *name* or any submodule of it is loaded."""
        prefix = name + "."
        return any(m == name or m.startswith(prefix) for m in self.modules)


def _cli(args: List[str]) -> None:
    subprocess.run(
        [sys.executable, "-m", "repro", *args],
        check=True, env=_ENV, stdout=subprocess.DEVNULL,
    )


def build_inputs(work: Path) -> None:
    """Generate the tiny feed and the store served/compacted in *work*."""
    feed = work / "feed.jsonl"
    _cli(["generate", "--hours", "3", *SEED_FLAGS, "--scenario", "ddos",
          "--out", str(feed)])
    _cli(["analyze", str(feed), *SEED_FLAGS,
          "--store", str(work / "alarms.store")])


def command_argv(work: Path, out: Path) -> Dict[str, List[str]]:
    """argv per command over *work*'s inputs, writing under a fresh *out*.

    A fresh *out* per run keeps runs alike: ``monitor`` finds no
    checkpoint to resume from, ``analyze`` no bin cache to map.
    """
    out.mkdir()
    feed = str(work / "feed.jsonl")
    store = str(work / "alarms.store")
    return {
        "monitor": [
            "monitor", feed, *SEED_FLAGS, "--json",
            "--store", str(out / "monitor.store"),
            "--checkpoint", str(out / "monitor.ckpt"),
        ],
        "analyze": [
            "analyze", feed, *SEED_FLAGS, "--json", "--shards", "2",
            "--bin-cache", str(out / "feed.binc"),
            "--store", str(out / "analyze.store"),
        ],
        "serve": ["serve", store, "--port", "0"],
        "compact": ["compact", store, "--max-segments", "1"],
    }


def _package_of(module: str) -> str:
    parts = module.split(".")
    return ".".join(parts[:2]) if parts[0] == "repro" else parts[0]


def _import_costs(stderr: str) -> Tuple[Tuple[str, float], ...]:
    """Sum ``-X importtime`` self times per package, in milliseconds."""
    costs: Counter = Counter()
    for line in stderr.splitlines():
        match = _IMPORTTIME.match(line)
        if match:
            costs[_package_of(match.group(2))] += int(match.group(1)) / 1e3
    return tuple(costs.most_common())


def run_command(
    argv: List[str], work: Path, importtime: bool = False
) -> Loaded:
    """Run ``repro ARGV`` in a fresh interpreter and report what it loaded.

    ``serve`` is started, asked one ``GET /statusz`` once its banner
    shows the bound port, then interrupted (SIGINT, which it treats as a
    clean shutdown); every other command runs to completion.
    """
    out = work / "loaded.json"
    flags = ["-X", "importtime"] if importtime else []
    child = subprocess.Popen(
        [sys.executable, "-u", *flags, "-c", _RUNNER, str(out), *argv],
        env=_ENV, text=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    try:
        if argv[0] == "serve":
            banner = child.stdout.readline()
            match = re.search(r"http://[^:]+:(\d+)", banner)
            if match is None:
                raise RuntimeError(
                    f"serve never came up: {banner!r} {child.stderr.read()}"
                )
            url = f"http://127.0.0.1:{match.group(1)}/statusz"
            with urllib.request.urlopen(url, timeout=10) as response:
                response.read()
            child.send_signal(signal.SIGINT)
        _stdout, stderr = child.communicate(timeout=120)
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
    record = json.loads(out.read_text())
    return Loaded(
        returncode=child.returncode,
        modules=frozenset(record["modules"]),
        maxrss_mb=record["maxrss_kb"] / 1024.0,
        import_ms=_import_costs(stderr) if importtime else (),
    )


def main(argv: Optional[List[str]] = None) -> int:
    """Print the per-command report; 0 unless a command fails."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "commands", nargs="*", metavar="COMMAND",
        help="monitor, analyze, serve, compact (default: all four)")
    parser.add_argument(
        "--keep", type=Path, default=None,
        help="build the feed/store here and keep it (default: tmpdir)")
    args = parser.parse_args(argv)
    status = 0
    with tempfile.TemporaryDirectory(prefix="import-budget-") as tmp:
        work = args.keep or Path(tmp)
        work.mkdir(parents=True, exist_ok=True)
        build_inputs(work)
        # Two runs: importtime tracing inflates wall and RSS, so the
        # module set and peak RSS come from the untraced one.
        plain = command_argv(work, work / "plain")
        traced_argv = command_argv(work, work / "traced")
        for name in args.commands or list(plain):
            loaded = run_command(plain[name], work)
            traced = run_command(traced_argv[name], work, importtime=True)
            status = status or loaded.returncode or traced.returncode
            repro_modules = sum(m.startswith("repro") for m in loaded.modules)
            print(
                f"{name}: exit {loaded.returncode}, "
                f"{len(loaded.modules)} modules ({repro_modules} repro), "
                f"import {sum(ms for _, ms in traced.import_ms):.0f} ms, "
                f"peak RSS {loaded.maxrss_mb:.1f} MB"
            )
            for package, ms in traced.import_ms[:10]:
                print(f"    {ms:7.1f} ms  {package}")
    return status


if __name__ == "__main__":
    sys.exit(main())
