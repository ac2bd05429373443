"""Regenerate the paper's tables and figures from the command line.

Usage::

    python -m repro.tools.experiments table2
    python -m repro.tools.experiments table4 --quick
    python -m repro.tools.experiments all
    python -m repro.tools.experiments figure7 --quick --obs-report fig7.json

``--quick`` shrinks message counts and seed sets for a fast look; the
benchmark suite (``pytest benchmarks/ --benchmark-only``) runs the
full-size versions and asserts the paper's shapes.

``--backend {compiled,tree,codegen}`` selects the execution backend for
the adaptive (Method Partitioning) runs.  All three produce byte-identical
results; ``tree`` is the reference tree-walking interpreter, ``compiled``
(the default) is the closure-compiled fast path, ``codegen`` lowers each
handler to generated Python source once and runs the compiled module.

``--obs-report FILE`` attaches an :class:`repro.obs.Observability` to the
adaptive (Method Partitioning) runs, prints the instrumentation report
after the experiment output, and writes the raw dump as JSON to FILE
(render it again later with ``python -m repro.tools.obs report FILE``).

``--trace-export FILE`` additionally enables span tracing (sampling rate
1.0) on the attached observability, prints the trace summary, and writes
a Chrome-trace (``chrome://tracing`` / Perfetto) ``trace_events`` JSON
file.  Inspect the span trees with ``python -m repro.tools.obs trace``
and the plan decisions with ``python -m repro.tools.obs explain``
against the ``--obs-report`` dump.

A failing experiment does not abort the rest of an ``all`` run: its name
and error go to stderr, the remaining experiments still run, and the exit
status is nonzero.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import traceback

EXPERIMENTS = ("table2", "table3", "table4", "figure7", "figure8")


def run_table2(quick: bool, obs=None, backend: str = "compiled") -> str:
    from repro.apps.imagestream import (
        Table2Config,
        format_table2,
        run_table2 as run,
    )

    config = Table2Config(n_frames=100 if quick else 300, backend=backend)
    return format_table2(run(config))


def run_table3(quick: bool, obs=None, backend: str = "compiled") -> str:
    from repro.apps.sensor import format_table3, run_table3 as run

    return format_table3(
        run(n_messages=60 if quick else 200, obs=obs, backend=backend)
    )


def run_table4(quick: bool, obs=None, backend: str = "compiled") -> str:
    from repro.apps.sensor import format_table4, run_table4 as run

    seeds = (1, 2) if quick else (1, 2, 3, 4, 5)
    return format_table4(
        run(
            n_messages=60 if quick else 150,
            seeds=seeds,
            obs=obs,
            backend=backend,
        )
    )


def run_figure7(quick: bool, obs=None, backend: str = "compiled") -> str:
    from repro.apps.sensor import format_curves, run_figure7 as run
    from repro.tools.charts import render_chart

    seeds = (1,) if quick else (1, 2, 3)
    curves = run(
        n_messages=60 if quick else 150, seeds=seeds, obs=obs, backend=backend
    )
    return (
        format_curves(curves, "Consumer AProb")
        + "\n\n"
        + render_chart(curves, x_label="Consumer AProb")
    )


def run_figure8(quick: bool, obs=None, backend: str = "compiled") -> str:
    from repro.apps.sensor import format_curves, run_figure8 as run
    from repro.tools.charts import render_chart

    seeds = (1,) if quick else (1, 2, 3)
    curves = run(
        n_messages=150 if quick else 400, seeds=seeds, obs=obs, backend=backend
    )
    return (
        format_curves(curves, "Consumer PLen(s)")
        + "\n\n"
        + render_chart(curves, x_label="Consumer PLen (s)")
    )


_RUNNERS = {
    "table2": run_table2,
    "table3": run_table3,
    "table4": run_table4,
    "figure7": run_figure7,
    "figure8": run_figure8,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.tools.experiments", description=__doc__
    )
    parser.add_argument(
        "experiment", choices=EXPERIMENTS + ("all",)
    )
    parser.add_argument("--quick", action="store_true")
    parser.add_argument(
        "--backend",
        choices=("compiled", "tree", "codegen"),
        default="compiled",
        help="execution backend for the Method Partitioning version "
        "(default: compiled; 'tree' is the reference tree-walker, "
        "'codegen' lowers handlers to generated Python source)",
    )
    parser.add_argument(
        "--obs-report",
        metavar="FILE",
        default=None,
        help="collect observability from adaptive runs; print the report "
        "and write the JSON dump to FILE",
    )
    parser.add_argument(
        "--trace-export",
        metavar="FILE",
        default=None,
        help="enable span tracing on the adaptive runs and write a "
        "Chrome-trace (trace_events) JSON file to FILE",
    )
    parser.add_argument(
        "--quality-report",
        metavar="FILE",
        default=None,
        help="enable adaptation-quality accounting (counterfactual "
        "regret + cost-model drift) on the adaptive runs, print the "
        "regret table and write the quality report JSON to FILE",
    )
    parser.add_argument(
        "--expose",
        metavar="PORT",
        type=int,
        default=None,
        help="serve the collected observability on this port "
        "(OpenMetrics at /metrics; 0 binds an ephemeral port)",
    )
    parser.add_argument(
        "--expose-linger",
        metavar="SECONDS",
        type=float,
        default=0.0,
        help="keep the exposition endpoint up this long after the "
        "experiments finish (for interactive scraping)",
    )
    args = parser.parse_args(argv)

    obs = None
    if (
        args.obs_report is not None
        or args.trace_export is not None
        or args.quality_report is not None
        or args.expose is not None
    ):
        from repro.obs import Observability

        obs = Observability()
        if args.trace_export is not None:
            obs.enable_tracing(sampling_rate=1.0)
        if args.quality_report is not None:
            # A window shorter than the quick-mode runs (60 messages) so
            # at least one window closes entirely after a recompute.
            obs.enable_quality(regret_window=16)

    exposer = None
    if args.expose is not None:
        from repro.obs.exposition import start_http_exposer

        exposer = start_http_exposer(obs.to_dict, port=args.expose)
        print(f"EXPOSING {exposer.port}", flush=True)

    names = EXPERIMENTS if args.experiment == "all" else (args.experiment,)
    failures = []
    for name in names:
        started = time.perf_counter()
        try:
            text = _RUNNERS[name](args.quick, obs=obs, backend=args.backend)
        except Exception as exc:
            failures.append(name)
            print(
                f"experiment {name!r} failed: {type(exc).__name__}: {exc}",
                file=sys.stderr,
            )
            traceback.print_exc(file=sys.stderr)
            continue
        elapsed = time.perf_counter() - started
        print(f"=== {name} ({elapsed:.1f}s) ===")
        print(text)
        print()

    if obs is not None:
        from repro.tools.obs import render_report

        print("=== observability ===")
        print(render_report(obs.to_dict()))
        if args.obs_report is not None:
            try:
                with open(args.obs_report, "w", encoding="utf-8") as handle:
                    json.dump(obs.to_dict(), handle, indent=2)
            except OSError as exc:
                print(
                    f"cannot write obs report {args.obs_report}: {exc}",
                    file=sys.stderr,
                )
                failures.append("obs-report")
            else:
                print(f"\n(dump written to {args.obs_report})")

    if args.trace_export is not None and obs is not None:
        from repro.obs.export import chrome_trace, render_trace_summary

        tracing = obs.tracing.to_dict()
        print("=== tracing ===")
        print(render_trace_summary(tracing))
        try:
            with open(args.trace_export, "w", encoding="utf-8") as handle:
                json.dump(chrome_trace(tracing), handle, indent=2)
        except OSError as exc:
            print(
                f"cannot write trace export {args.trace_export}: {exc}",
                file=sys.stderr,
            )
            failures.append("trace-export")
        else:
            print(f"\n(chrome trace written to {args.trace_export})")

    if args.quality_report is not None and obs is not None:
        from repro.tools.obs import build_quality_report, render_quality

        report = build_quality_report(obs)
        print("=== adaptation quality ===")
        print(render_quality(report))
        try:
            with open(args.quality_report, "w", encoding="utf-8") as handle:
                json.dump(report, handle, indent=2)
        except OSError as exc:
            print(
                f"cannot write quality report {args.quality_report}: {exc}",
                file=sys.stderr,
            )
            failures.append("quality-report")
        else:
            print(f"\n(quality report written to {args.quality_report})")

    if exposer is not None:
        if args.expose_linger > 0:
            print(
                f"exposition lingering {args.expose_linger:.0f}s at "
                f"{exposer.url}",
                flush=True,
            )
            time.sleep(args.expose_linger)
        exposer.close()

    if failures:
        print(
            "failed experiments: " + ", ".join(failures), file=sys.stderr
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
