"""The pipeline benchmark's one command.

    python benchmarks/pipeline/run.py [--workload W] [--seed S]
        [--seconds N] [--trace [0|1]] [--json OUT] [--selfcheck]

Drives the workloads of ``workloads.py`` through the real two-process
deployment (see ``harness.py``), prints every metric by name with its
unit, checks every delivered result against ``reference.py`` and exits
non-zero on a wrong, lost, duplicated or invalid run.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` — the end-to-end metrics of an untraced run
(``--trace 0``), the per-layer metrics of a traced one (``--trace 1``).

Every run appends one line to ``results/history.jsonl`` and updates
``results/latest.json``; a traced run also writes
``results/trace_<workload>.json``.  Without ``--workload`` each of the
five runs in a process of its own.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import subprocess
import sys
from typing import Dict, Optional, Sequence

from paths import (
    BENCHMARK_JSON,
    HERE,
    RESULTS,
    ROOT,
    WORK,
    ensure_src_on_path,
)

DEFAULT_SEED = 12


def load_contract() -> Dict[str, object]:
    return json.loads(BENCHMARK_JSON.read_text())


# -- printing -------------------------------------------------------------------------


def print_result(result, names: Sequence[str]) -> None:
    kind = "traced" if result.traced else "untraced"
    print(
        f"== {result.workload}  seed {result.seed}  {kind}  "
        f"({result.wall_s:.1f} s, {result.attempted} deliveries, "
        f"{result.failed} failed)"
    )
    for name, (value, unit) in result.metrics.items():
        mark = "" if name in names else "  ·"
        print(f"  {name:42s} {value:14.4f} {unit}{mark}")


def metrics_dict(result) -> Dict[str, Dict[str, object]]:
    return {
        name: {"value": value, "unit": unit}
        for name, (value, unit) in result.metrics.items()
    }


def result_line(result, names: Sequence[str]) -> Dict[str, object]:
    """The contract's JSON object for one run."""
    every = metrics_dict(result)
    return {
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: every[name] for name in names},
    }


# -- trajectory -------------------------------------------------------------------------


def current_commit() -> str:
    """HEAD of the checkout, when the checkout is a git repository."""
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def record(result, seconds: float) -> None:
    """Append the run to the history and refresh ``latest.json``."""
    RESULTS.mkdir(parents=True, exist_ok=True)
    stamp = {
        "commit": current_commit(),
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        ),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "seconds": seconds,
        "seed": result.seed,
    }
    if not result.traced:
        line = dict(stamp)
        line["workloads"] = {
            result.workload: {n: result.metrics[n][0] for n in END_TO_END}
        }
        with open(RESULTS / "history.jsonl", "a") as handle:
            handle.write(json.dumps(line, sort_keys=True) + "\n")
    latest_path = RESULTS / "latest.json"
    latest = (
        json.loads(latest_path.read_text()) if latest_path.exists() else {}
    )
    entry = dict(stamp)
    entry["metrics"] = metrics_dict(result)
    latest.setdefault(result.workload, {})[
        "traced" if result.traced else "untraced"
    ] = entry
    latest_path.write_text(json.dumps(latest, indent=1, sort_keys=True) + "\n")


# -- running ------------------------------------------------------------------------------


def run_here(
    workload, seed: int, seconds: float, trace: bool,
    names: Sequence[str], json_out: Optional[str],
) -> int:
    """One run in this process: print, record, end with the JSON line."""
    import harness

    try:
        if trace:
            result, trace_file = harness.run_traced(workload, seed, seconds)
            RESULTS.mkdir(parents=True, exist_ok=True)
            path = RESULTS / f"trace_{workload.name}.json"
            path.write_text(json.dumps(trace_file))
        else:
            result = harness.run_untraced(workload, seed, seconds)
    except harness.RunFailed as exc:
        print(
            f"pipeline benchmark: {workload.name} is not a valid run: {exc}",
            file=sys.stderr,
        )
        return 1
    print_result(result, names)
    record(result, seconds)
    if json_out:
        with open(json_out, "w") as handle:
            json.dump(
                {
                    workload.name: {
                        "metrics": metrics_dict(result),
                        "detail": result.detail,
                    }
                },
                handle, indent=1,
            )
    print(json.dumps(result_line(result, names)))
    return 0


def run_isolated(
    name: str, seed: int, seconds: float, trace: bool
) -> Optional[Dict[str, object]]:
    """One run in a process of its own; None when it failed.

    A process per run keeps ``ru_maxrss`` (a high-water mark) and
    whatever else a run leaves behind from reaching the next one.
    Returns the run's JSON line plus ``all``: every metric and the
    per-segment detail.
    """
    WORK.mkdir(parents=True, exist_ok=True)
    out = WORK / f"{name}.{seed}.{int(trace)}.json"
    done = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"),
            "--workload", name, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(int(trace)),
            "--json", str(out),
        ],
        stdout=subprocess.PIPE, text=True,
    )
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.stdout.write(done.stdout)
        return None
    print("\n".join(lines[:-1]), flush=True)
    line = json.loads(lines[-1])
    line["all"] = json.loads(out.read_text())[name]
    out.unlink()
    return line


#: the nine end-to-end figures an untraced run prints; BENCHMARK.json
#: gates the ones steady enough on a shared host (see README)
END_TO_END = (
    "setup_s",
    "delivered_msgs_per_s",
    "publish_call_us_p50",
    "latency_p50_ms",
    "latency_p95_ms",
    "cpu_us_per_msg",
    "wire_bytes_per_msg",
    "peak_rss_mb",
    "failed_fraction",
)
#: runs per workload in each of the selfcheck's two sets
SELFCHECK_RUNS = 3


def selfcheck(contract, workloads, seed: int, seconds: float) -> int:
    """Two sets of runs of this checkout must agree within the bounds.

    A set is ``SELFCHECK_RUNS`` runs per workload on consecutive seeds;
    its figure for a metric is their median, as the driver's is.
    """
    import stats

    sets = []
    for number in (1, 2):
        figures = {}
        for workload in workloads:
            runs = []
            for offset in range(SELFCHECK_RUNS):
                print(
                    f"-- selfcheck: set {number}, {workload.name}, "
                    f"seed {seed + offset}",
                    file=sys.stderr, flush=True,
                )
                line = run_isolated(
                    workload.name, seed + offset, seconds, False
                )
                if line is None:
                    return 1
                runs.append(line["all"]["metrics"])
            figures[workload.name] = {
                name: stats.median([run[name]["value"] for run in runs])
                for name in END_TO_END
            }
        sets.append(figures)
    gated = {spec["name"]: spec for spec in contract["end_to_end"]}
    rows = [
        f"selfcheck: two sets of {SELFCHECK_RUNS} runs per workload (medians), "
        f"seeds {seed}..{seed + SELFCHECK_RUNS - 1}, {seconds:g} s each, "
        f"commit {current_commit()}",
        f"{'workload':16s} {'metric':22s} {'set 1':>13s} {'set 2':>13s} "
        f"{'worse by':>9s} {'bound':>6s}  verdict",
    ]
    disagreements = 0
    for workload in workloads:
        for name in END_TO_END:
            first = sets[0][workload.name][name]
            second = sets[1][workload.name][name]
            spec = gated.get(name)
            if spec is None:
                rows.append(
                    f"{workload.name:16s} {name:22s} {first:13.4f} "
                    f"{second:13.4f} {'':>9s} {'':>6s}  not gated"
                )
                continue
            change = (second - first) / first
            worse = change if spec["better"] == "lower" else -change
            agree = abs(worse) <= spec["bound"]
            disagreements += not agree
            rows.append(
                f"{workload.name:16s} {name:22s} {first:13.4f} "
                f"{second:13.4f} {worse:+9.2%} {spec['bound']:6.2f}  "
                f"{'agree' if agree else 'DISAGREE'}"
            )
    rows.append(
        f"{disagreements} disagreement(s) over "
        f"{len(workloads) * len(gated)} gated rows"
    )
    text = "\n".join(rows) + "\n"
    print(text, end="")
    RESULTS.mkdir(parents=True, exist_ok=True)
    (RESULTS / "selfcheck.txt").write_text(text)
    return 1 if disagreements else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", default=None,
                        help="one workload by name (default: all five)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="drives event content and order")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run (default: "
                        "BENCHMARK.json's run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1: the traced per-layer run")
    parser.add_argument("--json", default=None, metavar="OUT",
                        help="also write every metric of every run here")
    parser.add_argument("--selfcheck", action="store_true",
                        help="run every workload in two sets of three "
                        "and compare the sets within the bounds; writes "
                        "results/selfcheck.txt")
    args = parser.parse_args(argv)

    try:
        ensure_src_on_path()
        contract = load_contract()
    except (FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"pipeline benchmark: {exc}", file=sys.stderr)
        return 2
    from workloads import BY_NAME, WORKLOADS

    if args.workload is not None and args.workload not in BY_NAME:
        parser.error(
            f"unknown workload {args.workload!r}; one of {sorted(BY_NAME)}"
        )
    seconds = args.seconds or float(contract["run_seconds"])
    if seconds <= 0:
        parser.error("--seconds must be positive")
    if args.selfcheck:
        return selfcheck(contract, list(WORKLOADS), args.seed, seconds)
    trace = bool(args.trace)
    names = [
        spec["name"]
        for spec in contract["per_layer" if trace else "end_to_end"]
    ]
    if args.workload is not None:
        return run_here(
            BY_NAME[args.workload], args.seed, seconds, trace, names,
            args.json,
        )
    lines = {}
    for workload in WORKLOADS:
        line = run_isolated(workload.name, args.seed, seconds, trace)
        if line is None:
            return 1
        lines[workload.name] = line
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(
                {name: line.pop("all") for name, line in lines.items()},
                handle, indent=1,
            )
    for line in lines.values():
        line.pop("all", None)
    print(json.dumps({
        "correct": all(line["correct"] for line in lines.values()),
        "attempted": sum(line["attempted"] for line in lines.values()),
        "failed": sum(line["failed"] for line in lines.values()),
        "workloads": lines,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
