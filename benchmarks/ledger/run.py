"""Perf ledger: the repo's one benchmark (see README.md beside this file).

Three ways to run it, all from the repository root::

    # one workload, one measurement: the form the benchmark driver uses;
    # the last stdout line is one JSON object
    python3 benchmarks/ledger/run.py --workload replay_warm --seed 3 \\
        --seconds 10 --trace 0

    # the whole ledger: every workload untraced (--reps times,
    # interleaved), then traced; prints "workload metric value unit"
    python3 benchmarks/ledger/run.py --out ledger.json

    # judge two ledgers by the bounds in BENCHMARK.json
    python3 benchmarks/ledger/run.py --compare before.json after.json

Inputs come from ``--seed`` alone; everything is written under a fresh
directory in ``benchmarks/ledger/.work/`` that is removed on exit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parents[1] / "src")]

import spec  # noqa: E402
import traced  # noqa: E402
import workloads  # noqa: E402
from workloads import Outcome  # noqa: E402

WORK_ROOT = HERE / ".work"

#: A driver-style invocation must end well inside the driver's 180 s.
DEADLINE_S = 170

#: Values of the result file's ``host`` block that identify the machine
#: (the two calibration times are readings, not identity).
HOST_IDENTITY = ("cpu_count", "python", "numpy", "orjson", "kernel", "machine")


def run_once(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    scale: workloads.Scale,
    work: Path,
    trace_out: Optional[Path] = None,
) -> Outcome:
    """One measurement of one workload: set-up, run, checks."""
    prepare, measure = workloads.WORKLOADS[name]
    passes = 1 if trace else scale.setup_passes
    setup = []
    prepared = None
    try:
        for index in range(passes):
            if prepared is not None:
                prepared.close()
            start = perf_counter()
            prepared = prepare(work / f"{name}-{index}", seed, scale)
            setup.append(perf_counter() - start)
        if not trace:
            outcome = measure(prepared, seconds)
            outcome.metrics["setup_s"] = statistics.median(setup)
            return outcome
        spans = traced.Spans(f"{name}-seed{seed}")
        before = traced.calibrate()
        outcome = traced.TRACERS[name](prepared, spans)
        outcome.metrics["host.calib_s_before"] = before
        outcome.metrics["host.calib_s_after"] = traced.calibrate()
        if trace_out is not None:
            spans.write_chrome(trace_out)
        return outcome
    finally:
        if prepared is not None:
            prepared.close()
        workloads.kill_children()


def contract_line(outcome: Outcome, trace: bool) -> str:
    """The driver's result object: exactly the declared metric names."""
    declared = spec.PER_LAYER if trace else spec.END_TO_END
    missing = sorted(set(declared) - set(outcome.metrics))
    if missing:
        raise RuntimeError(f"metrics declared but not measured: {missing}")
    return json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            metric: {"value": outcome.metrics[metric],
                     "unit": declared[metric]["unit"]}
            for metric in declared
        },
    })


def host_block() -> Dict[str, object]:
    import numpy

    try:
        import orjson  # noqa: F401
        has_orjson = "present"
    except ImportError:
        has_orjson = "absent"
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "orjson": has_orjson,
        "kernel": platform.release(),
        "machine": platform.machine(),
    }


def _report(name: str, outcome: Outcome, declared: Dict[str, dict]) -> None:
    for metric in declared:
        print(f"{name} {metric} {outcome.metrics[metric]:.6g} "
              f"{declared[metric]['unit']}")
    print(f"{name} error_rate "
          f"{outcome.failed / max(1, outcome.attempted):.6g} ratio "
          f"({outcome.failed}/{outcome.attempted} ops)")
    for error in outcome.errors:
        print(f"{name} FAILED: {error}", file=sys.stderr)


def run_ledger(args, scale: workloads.Scale, work: Path) -> int:
    """Every selected workload: untraced reps interleaved, then traced."""
    names = [args.workload] if args.workload else spec.WORKLOADS
    host = host_block()
    host["calib_s_before"] = traced.calibrate()
    result = {
        "schema": "ledger/v1", "seed": args.seed, "seconds": args.seconds,
        "reps": args.reps, "quick": args.quick, "host": host,
        "workloads": {name: {"end_to_end": {}, "per_layer": {}, "counts": {},
                             "samples": {}, "attempted": 0, "failed": 0}
                      for name in names},
    }
    failed = 0
    # Rep 1 of every workload, then rep 2, ...: host speed drifts over
    # minutes, and interleaving spreads that drift over all workloads.
    for rep in range(args.reps):
        for name in names:
            outcome = run_once(
                name, args.seed, args.seconds, False, scale, work
            )
            _report(name, outcome, spec.END_TO_END)
            entry = result["workloads"][name]
            for metric in spec.END_TO_END:
                entry["end_to_end"].setdefault(metric, []).append(
                    outcome.metrics[metric]
                )
            if rep and entry["counts"] != outcome.counts:
                outcome.fail(1, f"{name}: counts differ between reps")
            entry["counts"] = outcome.counts
            entry["samples"] = outcome.samples
            entry["attempted"] += outcome.attempted
            entry["failed"] += outcome.failed
            failed += outcome.failed
    for name in names:
        trace_out = None
        if args.out:
            trace_out = Path(f"{args.out}.{name}.trace.json")
        outcome = run_once(
            name, args.seed, args.seconds, True, scale, work, trace_out
        )
        _report(name, outcome, spec.PER_LAYER)
        entry = result["workloads"][name]
        entry["per_layer"] = {
            metric: outcome.metrics[metric] for metric in spec.PER_LAYER
        }
        entry["attempted"] += outcome.attempted
        entry["failed"] += outcome.failed
        failed += outcome.failed
    host["calib_s_after"] = traced.calibrate()
    for entry in result["workloads"].values():
        entry["end_to_end"] = {
            metric: {"unit": spec.END_TO_END[metric]["unit"],
                     "median": statistics.median(values), "reps": values}
            for metric, values in entry["end_to_end"].items()
        }
    if args.out:
        Path(args.out).write_text(json.dumps(result, indent=2) + "\n")
        print(f"wrote {args.out}")
    return 1 if failed else 0


def spread(values: List[float]) -> float:
    """Inter-quartile distance as a share of the median (0 for < 2)."""
    if len(values) < 2:
        return 0.0
    low, _mid, high = statistics.quantiles(values, n=4)
    return (high - low) / statistics.median(values)


def compare(path_a: str, path_b: str) -> int:
    """Judge ledger B against ledger A; 0 unless something regressed.

    A metric whose rep-to-rep spread (in either file) exceeds its bound
    is *unresolved*: the runs cannot tell a change that size from
    noise, so it is reported as neither regressed nor unchanged.
    """
    a = json.loads(Path(path_a).read_text())
    b = json.loads(Path(path_b).read_text())
    for key in ("schema", "seed", "seconds", "quick"):
        if a[key] != b[key]:
            print(f"refusing to compare: {key} differs "
                  f"({a[key]!r} vs {b[key]!r})", file=sys.stderr)
            return 2
    for key in HOST_IDENTITY:
        if a["host"][key] != b["host"][key]:
            print(f"refusing to compare across hosts: {key} differs "
                  f"({a['host'][key]!r} vs {b['host'][key]!r})",
                  file=sys.stderr)
            return 2
    regressed = 0
    for name in a["workloads"]:
        if name not in b["workloads"]:
            continue
        ours, theirs = a["workloads"][name], b["workloads"][name]
        if ours["counts"] != theirs["counts"]:
            print(f"{name} counts DIFFER: {ours['counts']} vs "
                  f"{theirs['counts']}")
            regressed += 1
        for metric, rule in spec.END_TO_END.items():
            before = ours["end_to_end"][metric]
            after = theirs["end_to_end"][metric]
            change = (after["median"] - before["median"]) / before["median"]
            worse = change if rule["better"] == "lower" else -change
            noise = max(spread(before["reps"]), spread(after["reps"]))
            if noise > rule["bound"]:
                verdict = "unresolved"
            elif worse > rule["bound"]:
                verdict = "REGRESSED"
                regressed += 1
            else:
                verdict = "ok"
            print(f"{name} {metric} {before['median']:.6g} -> "
                  f"{after['median']:.6g} {rule['unit']} "
                  f"({change:+.1%}, spread {noise:.1%}, "
                  f"bound {rule['bound']:.0%}) {verdict}")
    return 1 if regressed else 0


def _on_deadline(_signum, _frame):
    raise TimeoutError(f"benchmark exceeded {DEADLINE_S} s")


def _on_terminate(signum, _frame):
    # Unwind through main()'s ``finally`` so the children are stopped.
    raise SystemExit(128 + signum)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=spec.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS,
                        help="time budget of one untraced measurement")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="with --workload: one measurement, untraced "
                             "(0) or traced (1), result as one JSON line")
    parser.add_argument("--reps", type=int, default=3,
                        help="untraced measurements per workload (ledger)")
    parser.add_argument("--quick", action="store_true",
                        help="tiny inputs, one rep: correctness only")
    parser.add_argument("--out", metavar="PATH",
                        help="write the ledger (and PATH.<workload>.trace."
                             "json Chrome traces) here")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    scale = workloads.QUICK if args.quick else workloads.FULL
    if args.quick:
        args.seconds, args.reps = 0.0, 1
    contract = args.workload is not None and args.trace is not None
    if contract:
        signal.signal(signal.SIGALRM, _on_deadline)
        signal.alarm(DEADLINE_S)
    # Nothing this command starts, at any depth, may outlive it.
    signal.signal(signal.SIGTERM, _on_terminate)
    workloads.adopt_orphans()
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT))
    try:
        if not contract:
            return run_ledger(args, scale, work)
        outcome = run_once(
            args.workload, args.seed, args.seconds, bool(args.trace),
            scale, work,
        )
        for error in outcome.errors:
            print(f"{args.workload} FAILED: {error}", file=sys.stderr)
        print(f"{args.workload} rates_per_s "
              f"{json.dumps([round(rate, 1) for rate in outcome.rates])}")
        print(contract_line(outcome, bool(args.trace)))
        return 0
    finally:
        signal.alarm(0)
        workloads.reap_descendants()
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run's directory is still there


if __name__ == "__main__":
    sys.exit(main())
