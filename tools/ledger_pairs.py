#!/usr/bin/env python3
"""Paired parent/change runs of the perf ledger, judged like a gain claim.

A perf change is measured by running the ledger's one-workload form on
the parent commit and on the working tree, in pairs, alternating which
side runs first::

    python3 benchmarks/ledger/run.py --workload W --seed S --trace 0

This tool does that loop and reports it the way ``BENCHMARK.json`` and
the gain rule read it:

* every pair: seed, which side ran first, each end-to-end metric on
  both sides (and every other metric a traced run reports, with
  ``--trace 1``);
* per end-to-end metric: each side's median and quartiles, the change
  at the median, and how many pairs the change won (ties count for
  neither side);
* the gain verdict: at least ten pairs, the change won at least nine
  tenths of them *and* the medians differ by more than the parent's
  interquartile range;
* the bound check: the change's median may be worse than the parent's
  by at most the metric's ``bound``; where the parent's own spread
  (IQR over median) exceeds the bound the result is "unresolved", not
  "unchanged", unless every change run beats every parent run.

The parent is checked out with ``git worktree add --detach`` into a
temporary directory that is removed afterwards.  Standard library only.

Usage::

    python3 tools/ledger_pairs.py --parent HEAD~1 --workload serve_hot \\
        --seeds 101-110 [--pairs N] [--trace 0|1]

Run via ``make ledger-pairs PARENT=... WORKLOAD=... SEEDS=...``.
Exit status 1 when a run failed or a metric is out of bounds.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[1]

#: Fewest pairs a gain may be claimed on.
MIN_PAIRS = 10

#: One run's result: {"correct", "attempted", "failed", "metrics"}.
Result = Dict[str, object]


def parse_seeds(text: str) -> List[int]:
    """``"A-B"`` (inclusive) or ``"A"`` as a list of seeds."""
    first, _, last = text.partition("-")
    seeds = list(range(int(first), int(last or first) + 1))
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed range: {text!r}")
    return seeds


@contextlib.contextmanager
def parent_checkout(rev: str) -> Iterator[Path]:
    """A detached worktree of *rev*, removed on exit."""
    with tempfile.TemporaryDirectory(prefix="ledger-parent-") as tmp:
        path = Path(tmp) / "parent"
        subprocess.run(
            ["git", "-C", str(ROOT), "worktree", "add", "--detach", "--quiet",
             str(path), rev],
            check=True,
        )
        try:
            yield path
        finally:
            subprocess.run(
                ["git", "-C", str(ROOT), "worktree", "remove", "--force",
                 str(path)],
                check=False,
            )


def run_once(tree: Path, workload: str, seed: int, trace: int) -> Result:
    """One ledger measurement in *tree*; its last stdout line, parsed."""
    proc = subprocess.run(
        [sys.executable, "benchmarks/ledger/run.py", "--workload", workload,
         "--seed", str(seed), "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        tail = proc.stderr.strip().splitlines()[-5:]
        return {"correct": False, "failed": None, "metrics": {},
                "error": f"exit {proc.returncode}: " + " | ".join(tail)}


def value(result: Result, name: str) -> Optional[float]:
    metric = result.get("metrics", {}).get(name)
    return None if metric is None else float(metric["value"])


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3); a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def judge(
    name: str, better: str, bound: float,
    parent: Sequence[float], change: Sequence[float],
) -> Tuple[str, bool]:
    """One metric's report line and whether it is out of bounds."""
    sign = 1.0 if better == "higher" else -1.0
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    pairs = len(parent)
    delta = (cm - pm) / pm if pm else 0.0
    spread = (p3 - p1) / pm if pm else 0.0
    worse = -sign * delta  # > 0: the change is worse at the median
    gain = wins * 10 >= pairs * 9 and sign * (cm - pm) > p3 - p1
    if gain and pairs >= MIN_PAIRS:
        verdict = "GAIN (wins >= 9/10, median gap > parent IQR)"
    elif worse > bound:
        verdict = f"WORSE than the {bound:.0%} bound"
    elif spread > bound and min(sign * c for c in change) > max(
        sign * p for p in parent
    ):
        verdict = "better on every run (parent spread wider than the bound)"
    elif spread > bound:
        verdict = f"unresolved (parent spread {spread:.1%} > {bound:.0%} bound)"
    else:
        verdict = f"within the {bound:.0%} bound"
        if gain:
            verdict += f" (better, but a gain needs {MIN_PAIRS} pairs)"
    line = (
        f"{name:<13} parent {pm:.6g} [{p1:.6g}, {p3:.6g}]  "
        f"change {cm:.6g} [{c1:.6g}, {c3:.6g}]  {delta:+.1%}  "
        f"change better {wins}/{pairs}  parent IQR {p3 - p1:.4g} "
        f"({spread:.1%})  -> {verdict}"
    )
    return line, verdict.startswith("WORSE")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="parent git rev")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=parse_seeds,
                        help="seed range A-B; pair i runs seed A+i")
    parser.add_argument("--pairs", type=int, default=None,
                        help="pairs to run (default: one per seed; the "
                             "range repeats when N exceeds it)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = spec["end_to_end"]
    pairs = args.pairs or len(args.seeds)

    with parent_checkout(args.parent) as parent_dir:
        trees = {"parent": parent_dir, "change": ROOT}
        runs: List[Dict[str, Result]] = []
        for index in range(pairs):
            seed = args.seeds[index % len(args.seeds)]
            order = ("parent", "change") if index % 2 == 0 else (
                "change", "parent")
            pair = {side: run_once(trees[side], args.workload, seed,
                                   args.trace) for side in order}
            runs.append(pair)
            cells = []
            for metric in end_to_end:
                before, after = (value(pair[s], metric["name"])
                                 for s in ("parent", "change"))
                cells.append(f"{metric['name']} {before} -> {after}")
            failed = [f"{s} failed={pair[s].get('failed')} "
                      f"correct={pair[s].get('correct')} "
                      f"{pair[s].get('error', '')}".rstrip()
                      for s in ("parent", "change")]
            print(f"pair {index + 1}/{pairs} seed {seed} "
                  f"{order[0]} first: " + "; ".join(cells)
                  + "; " + "; ".join(failed), flush=True)
            if args.trace:
                names = sorted(set(pair["parent"].get("metrics", {}))
                               | set(pair["change"].get("metrics", {})))
                for name in names:
                    print(f"    {name}: {value(pair['parent'], name)} -> "
                          f"{value(pair['change'], name)}")

    print(f"\n{args.workload}: {pairs} pairs, parent {args.parent}")
    bad = any(
        pair[side].get("failed") != 0 or not pair[side].get("correct")
        for pair in runs for side in pair
    )
    for metric in end_to_end:
        name = metric["name"]
        values = [(value(p["parent"], name), value(p["change"], name))
                  for p in runs]
        values = [(a, b) for a, b in values if a is not None and b is not None]
        if not values:
            print(f"{name:<13} no values")
            continue
        line, out_of_bounds = judge(
            name, metric["better"], metric["bound"],
            [a for a, _ in values], [b for _, b in values],
        )
        print(line)
        bad = bad or out_of_bounds
    if bad:
        print("FAILED: a run failed or a metric is out of bounds")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
