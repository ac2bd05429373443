"""One CLI over every observability dump: ``python -m repro.tools.obs``.

Views::

    python -m repro.tools.obs report  DUMP [--limit N] [--json]
    python -m repro.tools.obs trace   DUMP [--limit N] [--chrome FILE] [--json]
    python -m repro.tools.obs explain DUMP [--json]
    python -m repro.tools.obs prof    DUMP [--limit N] [--speedscope FILE]
                                           [--collapsed FILE] [--json]
    python -m repro.tools.obs watch   SOURCE... [--interval S] [--once]
                                      [--iterations N] [--json] [--no-clear]
                                      [--alert-drop-rate R] [--backoff-cap S]

``report`` prints every section of a dump: metrics, the event ring
(decisions and incidents, with per-kind totals), the span summary,
adaptation quality, the profile, what observability itself cost and
fleet health.  ``trace`` renders span trees and re-exports them as
Chrome-trace JSON.  ``explain`` joins each ``PlanRecomputed`` decision in
the ring with the trigger that fired it and the per-candidate cost table
behind the min cut — on a merged flight dump, for every host of a fleet.
``prof`` renders the sampled component table, the exact publish-phase
timers and the top stacks, and exports speedscope / collapsed stacks.
``watch`` polls sources and redraws: the per-peer fleet table when a
dump has a ``fleet`` section, the adaptation sections (regret, drift,
counter rates, per-PSE quantiles) when it has quality or tracing.  An
unreachable source keeps its last good frame under a STALE banner while
it is retried with exponential backoff; ``--once`` prints one frame and
exits 1 when any source is unreachable or any peer is unhealthy,
breaker-open or shed-alerting.

A DUMP or SOURCE is any of: an exposer URL (``http://host:port``, whose
``/metrics.json`` is fetched); a bare ``Observability.to_dict()`` dump; a
live result file (``publisher.json``, ``receiver0.json``) wrapping the dump
under ``obs``, whose post-drain top-level ``fleet`` wins over the
dump-time one; or a merged dump written by ``liveexp``
(``merged_flight.json``, ``merged_trace.json``, ``merged_profile.json``).
``--json`` replaces the text of any view with one JSON object whose
``schema`` is ``mp.<view>.v1``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro.obs.metrics import bucket_quantile, snapshot_delta

__all__ = [
    "build_quality_report",
    "explain_decisions",
    "fleet_view",
    "fmt",
    "load",
    "main",
    "render_quality",
    "render_report",
    "unwrap",
]

_CLEAR = "\x1b[2J\x1b[H"
#: the ring's stamp on every event; views show the payload fields
_STAMP_KEYS = ("t", "mono", "host", "kind")
_DEFAULT_LIMITS = {"report": 20, "trace": 10, "prof": 10}


# -- loading -------------------------------------------------------------------


def unwrap(data: Mapping) -> Dict[str, object]:
    """Bring any supported dump shape to the ``Observability.to_dict()`` shape."""
    if "metrics" not in data and "obs" in data:
        dump = dict(data["obs"])
        if "fleet" in data:
            dump["fleet"] = data["fleet"]
        return dump
    if "metrics" not in data:
        if "events" in data:
            return {"flight": dict(data)}
        if "spans" in data:
            return {"tracing": dict(data)}
        if "stacks" in data or "components" in data:
            return {"profile": dict(data)}
    return dict(data)


def load(source: str, timeout: float = 2.0) -> Dict[str, object]:
    """One dump from an exposer URL or a JSON file, unwrapped."""
    if source.startswith(("http://", "https://")):
        import urllib.request

        url = source.rstrip("/")
        if url.endswith("/metrics"):
            url += ".json"
        elif not url.endswith("/metrics.json"):
            url += "/metrics.json"
        with urllib.request.urlopen(url, timeout=timeout) as response:
            return unwrap(json.loads(response.read().decode()))
    with open(source, "r", encoding="utf-8") as handle:
        return unwrap(json.load(handle))


# -- formatting ----------------------------------------------------------------


def fmt(value: object, unit: str = "") -> str:
    """The one number formatter every view uses.

    ``None`` is ``-``; integral floats print as integers, other floats
    to six significant digits; sequences as ``(a,b)``.  ``unit="s"``
    scales seconds to s / ms / us, ``unit="%"`` prints a fraction as a
    percentage.
    """
    if value is None:
        return "-"
    if unit == "s":
        seconds = float(value)
        if abs(seconds) >= 1.0:
            return f"{seconds:.2f}s"
        if abs(seconds) >= 1e-3:
            return f"{seconds * 1e3:.2f}ms"
        return f"{seconds * 1e6:.1f}us"
    if unit == "%":
        return f"{float(value):.2%}"
    if isinstance(value, (list, tuple)):
        return "(" + ",".join(fmt(v) for v in value) + ")"
    if isinstance(value, float):
        return str(int(value)) if value.is_integer() else f"{value:.6g}"
    return str(value)


def _fields(event: Mapping) -> Dict[str, object]:
    return {k: v for k, v in event.items() if k not in _STAMP_KEYS}


def _render_event(event: Mapping) -> str:
    """One ring event on one line; tables (a breakdown) show their size."""
    fields = ", ".join(
        f"{key}=<{len(value)} rows>"
        if isinstance(value, (list, tuple)) and value
        and isinstance(value[0], Mapping)
        else f"{key}={fmt(value)}"
        for key, value in _fields(event).items()
        if value is not None
    )
    return f"  [{event.get('host', '?')}] {event.get('kind', '?')}({fields})"


def _quantiles(hist: Mapping) -> Dict[str, float]:
    bounds = list(hist.get("bounds", ()))
    counts = list(hist.get("counts", ()))
    if not (bounds and hist.get("count")):
        return {"p50": 0.0, "p95": 0.0, "p99": 0.0}
    return {
        f"p{q}": bucket_quantile(bounds, counts, q / 100)
        for q in (50, 95, 99)
    }


# -- report --------------------------------------------------------------------


def _overhead_rows(dump: Mapping) -> List[Tuple[str, float]]:
    """(label, seconds) rows: what observability itself cost."""
    gauges = (dump.get("metrics") or {}).get("gauges") or {}
    return sorted(
        (name[len("obs.overhead."):], float(value))
        for name, value in gauges.items()
        if name.startswith("obs.overhead.")
    )


def render_report(dump: Mapping, limit: Optional[int] = None) -> str:
    """Text report of every section an obs dump carries."""
    limit = _DEFAULT_LIMITS["report"] if limit is None else limit
    lines: List[str] = []
    metrics = dump.get("metrics") or {}
    counters = metrics.get("counters") or {}
    lines.append(f"== counters ({len(counters)}) ==")
    lines.extend(f"  {n}: {fmt(counters[n])}" for n in sorted(counters))
    gauges = metrics.get("gauges") or {}
    if gauges:
        lines += ["", f"== gauges ({len(gauges)}) =="]
        lines.extend(f"  {n}: {fmt(gauges[n])}" for n in sorted(gauges))
    histograms = metrics.get("histograms") or {}
    lines += ["", f"== histograms ({len(histograms)}) =="]
    for name in sorted(histograms):
        h = histograms[name]
        count = h.get("count", 0)
        total = h.get("total", 0.0)
        lines.append(
            f"  {name}: count={count} total={fmt(total)} "
            f"mean={fmt(total / count if count else 0.0)}"
        )
        if count:
            q = _quantiles(h)
            lines.append(
                f"    p50={fmt(q['p50'])} p95={fmt(q['p95'])} "
                f"p99={fmt(q['p99'])}"
            )

    flight = dump.get("flight")
    if flight:
        events = flight.get("events") or []
        counts = flight.get("counts") or {}
        lines += [
            "",
            f"== events ({len(events)} kept of {flight.get('recorded', 0)} "
            f"recorded, {flight.get('dropped', 0)} dropped) ==",
        ]
        lines.extend(f"  {k}: {counts[k]}" for k in sorted(counts))
        shown = events[-limit:] if limit > 0 else []
        lines.append(f"  -- last {len(shown)}:")
        lines.extend(_render_event(e) for e in shown)

    tracing = dump.get("tracing")
    if tracing:
        from repro.obs.export import render_trace_summary

        lines += ["", "== tracing =="]
        lines.extend(
            f"  {line}" for line in render_trace_summary(tracing).splitlines()
        )

    quality = dump.get("quality")
    if quality:
        lines += ["", "== adaptation quality =="]
        lines.extend(
            f"  {line}" for line in render_quality(quality).splitlines()
        )

    profile = dump.get("profile")
    if profile:
        lines += [""] + _render_components(profile)

    overhead = _overhead_rows(dump)
    if overhead:
        lines += ["", "== observability cost =="]
        lines.extend(f"  {name}: {fmt(s, 's')}" for name, s in overhead)

    fleet = dump.get("fleet")
    if fleet:
        lines += ["", "== fleet health =="] + _fleet_lines(fleet_view(dump))
        for name, ph in sorted((fleet.get("peers") or {}).items()):
            lines.extend(
                f"  {name}: {t.get('from')} -> {t.get('to')}: {t.get('reason')}"
                for t in (ph.get("transitions") or [])[-5:]
            )
    return "\n".join(lines)


def report_json(dump: Mapping, limit: Optional[int] = None) -> dict:
    """Machine-readable summary of every section of a dump."""
    metrics = dump.get("metrics") or {}
    histograms = {}
    for name, h in sorted((metrics.get("histograms") or {}).items()):
        count = int(h.get("count", 0))
        total = float(h.get("total", 0.0))
        histograms[name] = {
            "count": count,
            "total": total,
            "mean": total / count if count else 0.0,
            **_quantiles(h),
        }
    flight = dump.get("flight")
    tracing = dump.get("tracing")
    profile = dump.get("profile")
    return {
        "counters": dict(sorted((metrics.get("counters") or {}).items())),
        "gauges": dict(sorted((metrics.get("gauges") or {}).items())),
        "histograms": histograms,
        "events": {
            "counts": flight.get("counts") or {},
            "recorded": flight.get("recorded", 0),
            "dropped": flight.get("dropped", 0),
            "kept": len(flight.get("events") or []),
        } if flight else None,
        "tracing": {
            "recorded": tracing.get("recorded", 0),
            "dropped": tracing.get("dropped", 0),
            "spans": len(tracing.get("spans") or []),
        } if tracing else None,
        "quality": dump.get("quality") or None,
        "profile": {
            "samples": profile.get("samples", 0),
            "interval": profile.get("interval"),
            "components": dict(
                sorted((profile.get("components") or {}).items())
            ),
        } if profile else None,
        "fleet": dump.get("fleet") or None,
        "obs_overhead": dict(_overhead_rows(dump)),
    }


# -- adaptation quality --------------------------------------------------------


def render_quality(quality: Mapping) -> str:
    """Regret table and drift summary of a quality report.

    Accepts one handler's ``AdaptationQuality.report()`` or the
    cross-run report of :func:`build_quality_report`.
    """
    lines: List[str] = []
    active = quality.get("active_pses") or []
    if active:
        lines.append(f"active PSEs: {', '.join(str(p) for p in active)}")
    transitions = quality.get("transitions") or []
    if transitions:
        lines.append(f"plan transitions: {len(transitions)}")
    regret = quality.get("regret") or {}
    windows = regret.get("windows") or quality.get("regret_windows") or []
    if regret.get("sampled") is not None:
        lines.append(
            f"regret: {regret['sampled']} sampled of "
            f"{regret.get('messages', 0)} messages "
            f"({regret.get('unpriced', 0)} unpriced)"
        )
    if windows:
        lines.append(
            f"{'window':>7} {'msgs':>11} {'mean':>12} {'rel':>8} "
            f"{'after-plan@':>11}  per-PSE"
        )
        for w in windows[-10:]:
            span = f"{w['start_message']}-{w['end_message']}"
            per_pse = ", ".join(
                f"{pid}={fmt(v)}" for pid, v in (w.get("per_pse") or {}).items()
            )
            lines.append(
                f"{w['index']:>7} {span:>11} {fmt(w['mean_regret']):>12} "
                f"{fmt(w['rel_mean_regret'], '%'):>8} "
                f"{fmt(w.get('transition')):>11}  {per_pse}"
            )
    else:
        lines.append("no closed regret window")
    drift = quality.get("drift") or {}
    residuals = drift.get("residuals") or quality.get("drift_residuals") or []
    events = drift.get("events") or quality.get("drift_events") or []
    if residuals:
        lines.append(f"drift residuals ({len(residuals)}):")
        for row in residuals:
            flag = "  FLAGGED" if row.get("flagged") else ""
            lines.append(
                f"  {row['pse_id']:<8} {row['channel']:<8} "
                f"{row['residual']:+.3f} (n={row['count']}){flag}"
            )
    lines.append(f"drift events: {len(events)}")
    for e in events[-5:]:
        lines.append(
            f"  {e['pse_id']}/{e['channel']} residual {e['residual']:+.3f} "
            f"at msg {e['at_message']} (predicted {fmt(e['predicted'])}, "
            f"observed {fmt(e['observed'])})"
        )
    return "\n".join(lines)


def build_quality_report(obs) -> dict:
    """Cross-run quality report (``mp.quality.v1``) from a live Observability.

    An experiment sweep builds one adaptive harness per configuration,
    each with its own :class:`~repro.obs.quality.AdaptationQuality`; the
    shared event ring is the record that spans all of them.  This
    collects every ``RegretWindow`` / ``DriftDetected`` /
    ``PlanRecomputed`` event plus the ``quality.*`` instruments, and the
    last handler's own report.
    """
    metrics = obs.metrics.to_dict()
    last = obs.quality.report() if obs.quality is not None else None
    return {
        "schema": "mp.quality.v1",
        "config": last["config"] if last is not None else None,
        "counters": {
            n: v for n, v in metrics["counters"].items()
            if n.startswith("quality.")
        },
        "gauges": {
            n: v for n, v in metrics["gauges"].items()
            if n.startswith("quality.")
        },
        "transitions": [
            {"at_message": e["at_message"], "pse_ids": list(e["pse_ids"])}
            for e in obs.flight.of_kind("PlanRecomputed")
        ],
        "regret_windows": [
            _fields(e) for e in obs.flight.of_kind("RegretWindow")
        ],
        "drift_events": [
            _fields(e) for e in obs.flight.of_kind("DriftDetected")
        ],
        "last_handler": last,
    }


# -- trace ---------------------------------------------------------------------


def _by_trace(spans: List[Mapping]) -> List[Tuple[object, List[Mapping]]]:
    """Spans grouped per trace id, traces ordered by first span start."""
    groups: Dict[object, List[Mapping]] = {}
    for span in spans:
        groups.setdefault(span["trace"], []).append(span)
    return sorted(
        groups.items(), key=lambda kv: min(float(s["start"]) for s in kv[1])
    )


def _span_line(span: Mapping, depth: int) -> str:
    start = float(span["start"])
    end = span.get("end")
    window = (
        f"{start:.6f}–{float(end):.6f} ({fmt(float(end) - start, 's')})"
        if end is not None
        else f"{start:.6f}– (open)"
    )
    host = f" [{span['host']}]" if span.get("host") else ""
    attrs = "".join(
        f" {k}={fmt(v)}" for k, v in sorted((span.get("attrs") or {}).items())
    )
    return f"{'  ' * depth}{span['name']}{host} {window}{attrs}"


def render_trace_trees(tracing: Mapping, limit: Optional[int] = None) -> str:
    """Indented span trees, one per trace id, ordered by first span start.

    A span whose parent fell out of the ring (or was never recorded)
    becomes a root of its trace's tree, so partially dropped traces
    still render.  A negative or missing ``limit`` shows every trace.
    """
    ordered = _by_trace(list(tracing.get("spans") or []))
    shown = ordered if limit is None or limit < 0 else ordered[:limit]
    lines: List[str] = []
    for trace_id, members in shown:
        members.sort(key=lambda s: (float(s["start"]), s["span"]))
        ids = {s["span"] for s in members}
        children: Dict[object, List[Mapping]] = {}
        roots: List[Mapping] = []
        for span in members:
            if span.get("parent") in ids:
                children.setdefault(span["parent"], []).append(span)
            else:
                roots.append(span)
        lines.append(f"trace {trace_id} ({len(members)} spans)")
        stack = [(root, 1) for root in reversed(roots)]
        while stack:
            span, depth = stack.pop()
            lines.append(_span_line(span, depth))
            stack.extend(
                (child, depth + 1)
                for child in reversed(children.get(span["span"], ()))
            )
    if len(shown) < len(ordered):
        lines.append(f"... ({len(ordered) - len(shown)} more traces not shown)")
    return "\n".join(lines)


def render_trace(dump: Mapping, limit: Optional[int] = None) -> str:
    from repro.obs.export import render_trace_summary

    limit = _DEFAULT_LIMITS["trace"] if limit is None else limit
    tracing = dump["tracing"]
    text = render_trace_summary(tracing)
    trees = render_trace_trees(tracing, limit) if limit else ""
    return f"{text}\n\n{trees}" if trees else text


def trace_json(dump: Mapping, limit: Optional[int] = None) -> dict:
    tracing = dump["tracing"]
    traces = []
    for trace_id, members in _by_trace(list(tracing.get("spans") or [])):
        starts = [float(s["start"]) for s in members]
        ends = [float(s["end"]) for s in members if s.get("end") is not None]
        traces.append({
            "trace": trace_id,
            "spans": len(members),
            "open_spans": len(members) - len(ends),
            "names": sorted({s["name"] for s in members}),
            "start": min(starts),
            "duration_seconds": max(ends) - min(starts) if ends else None,
            "hosts": sorted({s["host"] for s in members if s.get("host")}),
        })
    return {
        "summary": {
            "recorded": tracing.get("recorded", 0),
            "dropped": tracing.get("dropped", 0),
            "overhead_seconds": tracing.get("overhead_seconds", 0.0),
        },
        "traces": traces,
    }


# -- explain -------------------------------------------------------------------


def explain_decisions(dump: Mapping) -> List[dict]:
    """Every ``PlanRecomputed`` in the ring, joined with its trigger.

    The trigger is the nearest preceding ``TriggerFired`` *of the same
    host*, so a merged fleet dump pairs each receiver's recomputes with
    its own triggers.
    """
    last_trigger: Dict[object, Mapping] = {}
    decisions = []
    for event in (dump.get("flight") or {}).get("events") or []:
        host = event.get("host")
        if event.get("kind") == "TriggerFired":
            last_trigger[host] = event
        elif event.get("kind") == "PlanRecomputed":
            trigger = last_trigger.get(host)
            decisions.append({
                "host": host,
                "at_message": event.get("at_message"),
                "cut_value": event.get("cut_value"),
                "pse_ids": list(event.get("pse_ids") or ()),
                "trigger": {
                    "name": trigger.get("trigger"),
                    "reason": trigger.get("reason"),
                } if trigger is not None else None,
                "breakdown": list(event.get("breakdown") or ()),
            })
    return decisions


_PROFILE_KEYS = (
    "data_size", "t_mod", "t_demod", "work_before", "work_after",
    "path_probability", "observed_executions",
)


def render_explain(dump: Mapping, limit: Optional[int] = None) -> str:
    lines: List[str] = []
    for d in explain_decisions(dump):
        lines.append(
            f"[{d['host']}] plan recomputation @ message "
            f"{fmt(d['at_message'])} (cut value {fmt(d['cut_value'])})"
        )
        trigger = d["trigger"]
        if trigger is not None:
            reason = trigger["reason"] or {}
            lines.append(
                f"  trigger: {trigger['name']}"
                + "".join(f" {k}={fmt(v)}" for k, v in sorted(reason.items()))
            )
        lines.append("  chosen PSEs: " + (", ".join(d["pse_ids"]) or "(none)"))
        if not d["breakdown"]:
            lines += ["  (no cost breakdown recorded)", ""]
            continue
        lines.append("  candidate costs:")
        for row in d["breakdown"]:
            mark = " <- chosen" if row.get("chosen") else ""
            lines.append(
                f"    {row.get('pse_id', '?')} "
                f"edge={fmt(tuple(row.get('edge', ())))} "
                f"cost={fmt(row.get('cost'))} "
                f"[{row.get('source', '?')}]{mark}"
            )
            profile = row.get("profile") or {}
            parts = [
                f"{key}={fmt(profile[key])}"
                for key in _PROFILE_KEYS
                if profile.get(key) is not None
            ]
            if parts:
                lines.append("      profile: " + " ".join(parts))
        lines.append("")
    if not lines:
        return "no PlanRecomputed events in the event ring"
    return "\n".join(lines).rstrip()


def explain_json(dump: Mapping, limit: Optional[int] = None) -> dict:
    return {"decisions": explain_decisions(dump)}


# -- prof ----------------------------------------------------------------------

_PHASE_METRIC = "net.publish.phase_seconds"


def _phase_table(dump: Mapping) -> List[dict]:
    """Exact publish-path phase timings from the metric registry."""
    from repro.obs.exposition import _split_labels

    rows = []
    histograms = (dump.get("metrics") or {}).get("histograms") or {}
    for name, h in histograms.items():
        base, labels = _split_labels(name)
        if base != _PHASE_METRIC:
            continue
        count = int(h.get("count", 0))
        total = float(h.get("total", 0.0))
        rows.append({
            "phase": labels.split('="')[-1].rstrip('"') if labels else "?",
            "count": count,
            "total_seconds": total,
            "mean_seconds": total / count if count else 0.0,
        })
    rows.sort(key=lambda row: -row["total_seconds"])
    return rows


def _render_components(profile: Mapping) -> List[str]:
    from repro.obs.prof import component_table

    hosts = profile.get("hosts") or (
        [profile["host"]] if profile.get("host") else []
    )
    header = f"== profile: {profile.get('samples', 0)} samples"
    if profile.get("interval"):
        header += f" @ {1.0 / profile['interval']:.0f} Hz"
    if hosts:
        header += f" across {', '.join(str(h) for h in hosts)}"
    lines = [header + " =="]
    for row in component_table(profile):
        bar = "#" * int(round(row["share"] * 40))
        lines.append(
            f"  {row['component']:<14} {row['samples']:>8} "
            f"{fmt(row['share'], '%'):>8}  {bar}"
        )
    if profile.get("truncated"):
        lines.append(
            f"  {profile['truncated']} sample(s) in the overflow bucket "
            "(max_stacks reached)"
        )
    return lines


def render_prof(dump: Mapping, limit: Optional[int] = None) -> str:
    limit = _DEFAULT_LIMITS["prof"] if limit is None else limit
    profile = dump["profile"]
    lines = _render_components(profile)
    self_seconds = float(profile.get("self_seconds", 0.0))
    wall = profile.get("wall_seconds")
    cost = f"  sampler self-time: {fmt(self_seconds, 's')}"
    if wall:
        cost += f" ({fmt(self_seconds / float(wall), '%')} of profiled wall)"
    lines.append(cost)
    phases = _phase_table(dump)
    if phases:
        lines += ["", f"== exact phase timers ({_PHASE_METRIC}) =="]
        lines.extend(
            f"  {row['phase']:<14} n={row['count']:<8} "
            f"total={fmt(row['total_seconds'], 's')} "
            f"mean={fmt(row['mean_seconds'], 's')}"
            for row in phases
        )
    stacks = list(profile.get("stacks") or [])[:limit]
    if stacks:
        lines += ["", f"== top {len(stacks)} stacks =="]
        for stack in stacks:
            lines.append(
                f"  {stack['count']:>8}  [{stack.get('component', '?')}]"
            )
            lines.extend(f"            {frame}" for frame in stack["frames"][-8:])
    return "\n".join(lines)


def prof_json(dump: Mapping, limit: Optional[int] = None) -> dict:
    from repro.obs.prof import component_table

    limit = _DEFAULT_LIMITS["prof"] if limit is None else limit
    profile = dump["profile"]
    components = component_table(profile)
    return {
        "host": profile.get("host"),
        "hosts": profile.get("hosts"),
        "interval": profile.get("interval"),
        "samples": profile.get("samples", 0),
        "self_seconds": profile.get("self_seconds", 0.0),
        "wall_seconds": profile.get("wall_seconds"),
        "truncated": profile.get("truncated", 0),
        "components": components,
        "attributed_share": sum(
            row["share"] for row in components if row["component"] != "other"
        ),
        "top_stacks": list(profile.get("stacks") or [])[:limit],
        "phases": _phase_table(dump),
    }


# -- watch ---------------------------------------------------------------------


def _labeled_gauge(dump: Mapping, base: str, peer: str) -> Optional[float]:
    gauges = (dump.get("metrics") or {}).get("gauges") or {}
    value = gauges.get(f'{base}{{peer="{peer}"}}')
    return float(value) if value is not None else None


def fleet_view(
    dump: Mapping,
    prev: Optional[Mapping] = None,
    seconds: float = 0.0,
    *,
    alert_drop_rate: float = 10.0,
) -> Dict[str, object]:
    """Distill one dump's ``fleet`` section into the per-peer table.

    With the previous poll's dump and a positive ``seconds`` the per-peer
    dropped-frame delta becomes a burn rate.
    """
    fleet = dump.get("fleet") or {}
    resilience = dump.get("resilience") or {}
    res_peers = resilience.get("peers") or {}
    peers = []
    for name, ph in sorted((fleet.get("peers") or {}).items()):
        dropped = _labeled_gauge(dump, "broker.dropped_frames", name)
        if dropped is None:
            dropped = float(ph.get("sheds_total") or 0)
        before = (
            _labeled_gauge(prev, "broker.dropped_frames", name)
            if prev is not None
            else None
        )
        burn = (
            max(0.0, dropped - before) / seconds
            if before is not None and seconds > 0
            else None
        )
        res = res_peers.get(name) or {}
        peers.append({
            "peer": name,
            "state": ph.get("state"),
            "breaker": (res.get("breaker") or {}).get("state"),
            "retracted": bool(res.get("retracted") or res.get("retracting")),
            "connected": ph.get("connected"),
            "rtt_ewma": ph.get("rtt_ewma"),
            "queue": _labeled_gauge(dump, "broker.queue_depth", name),
            "dropped": dropped,
            "drop_rate": burn,
            "alert": burn is not None and burn >= alert_drop_rate,
            "telemetry_frames": ph.get("telemetry_frames"),
            "staleness": ph.get("staleness"),
            "duplicates": ph.get("duplicates_total"),
            "drift": ph.get("drift_total"),
            "transitions": ph.get("transitions_total", 0),
        })
    return {
        "overall": fleet.get("overall", "?"),
        "retractions": resilience.get("retractions"),
        "peers": peers,
        "unhealthy": [
            p["peer"] for p in peers if p["state"] not in ("healthy", None)
        ],
        "open_breakers": [
            p["peer"] for p in peers if p["breaker"] not in ("closed", None)
        ],
        "alerts": [p["peer"] for p in peers if p["alert"]],
    }


def _fleet_lines(view: Mapping) -> List[str]:
    header = f"  fleet: {view['overall']}"
    if view["unhealthy"]:
        header += f"   not healthy: {', '.join(view['unhealthy'])}"
    if view["open_breakers"]:
        header += f"   BREAKER: {', '.join(view['open_breakers'])}"
    if view["alerts"]:
        header += f"   SHED ALERT: {', '.join(view['alerts'])}"
    if not view["peers"]:
        return [header, "  (no peers yet)"]
    lines = [
        header,
        f"  {'peer':<14} {'state':<11} {'brk':<10} {'rtt':>8} "
        f"{'queue':>6} {'dropped':>8} {'drop/s':>7} {'telem':>6} "
        f"{'stale':>7} {'dup':>5} {'drift':>5}",
    ]
    for p in view["peers"]:
        state = str(p["state"] or "?")
        if p["state"] not in ("healthy", None):
            state = state.upper()
        if p["alert"]:
            state += "!"
        brk = str(p["breaker"] or "-")
        if p["breaker"] not in ("closed", None):
            brk = brk.upper()
        if p["retracted"]:
            brk += "*"
        lines.append(
            f"  {p['peer']:<14} {state:<11} {brk:<10} "
            f"{fmt(p['rtt_ewma'], 's'):>8} {fmt(p['queue']):>6} "
            f"{fmt(p['dropped']):>8} {fmt(p['drop_rate']):>7} "
            f"{p['telemetry_frames'] or 0:>6} "
            f"{fmt(p['staleness'], 's'):>7} "
            f"{p['duplicates'] or 0:>5} {p['drift'] or 0:>5}"
        )
    return lines


def _rates(
    dump: Optional[Mapping], prev: Optional[Mapping], seconds: float
) -> Dict[str, float]:
    """Per-second rates of the counters that moved since the last poll."""
    if dump is None or prev is None or seconds <= 0:
        return {}
    delta = snapshot_delta(prev.get("metrics") or {}, dump.get("metrics") or {})
    return {
        name: d / seconds for name, d in delta["counters"].items() if d > 0
    }


def _adaptation_lines(
    dump: Mapping, rates: Dict[str, float], seconds: float, top: int = 10
) -> List[str]:
    from repro.obs.export import pse_quantiles

    quality = dump.get("quality")
    lines = (
        [f"  {line}" for line in render_quality(quality).splitlines()]
        if quality
        else []
    )
    if rates:
        lines.append(f"  rates over the last {seconds:.1f}s (/s):")
        for name, rate in sorted(rates.items(), key=lambda kv: -kv[1])[:top]:
            lines.append(f"    {name:<40} {fmt(rate)}")
    else:
        counters = (dump.get("metrics") or {}).get("counters") or {}
        busiest = sorted(counters.items(), key=lambda kv: -float(kv[1]))[:top]
        if busiest:
            lines.append("  counters (totals; rates need a second poll):")
            lines.extend(f"    {n:<40} {fmt(v)}" for n, v in busiest)
    pse = (dump.get("tracing") or {}).get("pse") or {}
    rows = []
    for pid in sorted(pse):
        latency = pse_quantiles(pse[pid].get("latency")) or {}
        size = pse_quantiles(pse[pid].get("bytes"))
        if latency or size:
            size_text = f"{fmt(round(size['p50']))}B" if size else "-"
            rows.append(
                f"    {pid:<10} {fmt(latency.get('p50'), 's'):>10} "
                f"{fmt(latency.get('p95'), 's'):>10} {size_text:>10}"
            )
    if rows:
        lines.append("  per-PSE (latency p50/p95, bytes p50):")
        lines.extend(rows)
    return lines


class _Poll:
    """One source's poll state: last good dump, backoff, staleness."""

    def __init__(self, source: str) -> None:
        self.source = source
        self.dump: Optional[Dict[str, object]] = None
        self.good_at: Optional[float] = None
        self.prev: Optional[Dict[str, object]] = None
        self.prev_at: Optional[float] = None
        self.failures = 0
        self.next_try = 0.0

    def poll(self, now: float, interval: float, backoff_cap: float) -> None:
        if self.failures and now < self.next_try:
            return  # still backing off
        try:
            dump = load(self.source)
        except Exception:  # noqa: BLE001 - a dead source must not kill the dashboard
            self.failures += 1
            self.next_try = now + min(interval * 2 ** self.failures, backoff_cap)
            return
        self.prev, self.prev_at = self.dump, self.good_at
        self.dump, self.good_at = dump, now
        self.failures = 0

    @property
    def seconds(self) -> float:
        if self.prev_at is None or self.good_at is None:
            return 0.0
        return self.good_at - self.prev_at

    def stale_seconds(self, now: float) -> Optional[float]:
        if self.failures and self.good_at is not None:
            return now - self.good_at
        return None

    def fleet(self, alert_drop_rate: float) -> Optional[dict]:
        if self.dump is None or not self.dump.get("fleet"):
            return None
        return fleet_view(
            self.dump, self.prev, self.seconds, alert_drop_rate=alert_drop_rate
        )

    def frame(self, now: float, alert_drop_rate: float) -> str:
        title = f"== {self.source}"
        stale = self.stale_seconds(now)
        if stale is not None:
            title += (
                f"   [STALE {stale:.1f}s, {self.failures} failed poll(s), "
                "retrying]"
            )
        if self.dump is None:
            return f"{title}\n  (unreachable, no data yet — retrying)"
        lines = [title]
        view = self.fleet(alert_drop_rate)
        if view is not None:
            lines.extend(_fleet_lines(view))
        if view is None or self.dump.get("quality") or self.dump.get("tracing"):
            lines.extend(
                _adaptation_lines(
                    self.dump,
                    _rates(self.dump, self.prev, self.seconds),
                    self.seconds,
                )
            )
        return "\n".join(lines)

    def needs_attention(self, alert_drop_rate: float) -> bool:
        if self.dump is None or self.failures:
            return True
        view = self.fleet(alert_drop_rate)
        return view is not None and bool(
            view["unhealthy"] or view["open_breakers"] or view["alerts"]
        )


def watch(args: argparse.Namespace) -> int:
    """The poll loop: redraw every ``--interval`` until stopped."""
    polls = [_Poll(source) for source in args.sources]
    iterations = 1 if args.once else args.iterations
    frames = 0
    try:
        while True:
            now = time.time()
            for p in polls:
                p.poll(now, args.interval, args.backoff_cap)
            if args.json:
                frame = {
                    "schema": "mp.watch.v1",
                    "at": now,
                    "sources": {
                        p.source: {
                            "fleet": p.fleet(args.alert_drop_rate),
                            "rates": _rates(p.dump, p.prev, p.seconds),
                            "stale_seconds": p.stale_seconds(now),
                            "failed_polls": p.failures,
                        }
                        for p in polls
                    },
                }
                print(json.dumps(frame, default=str), flush=True)
            else:
                if not (args.once or args.no_clear) and sys.stdout.isatty():
                    sys.stdout.write(_CLEAR)
                print(f"-- repro obs watch @ {time.strftime('%H:%M:%S')} --")
                for p in polls:
                    print(p.frame(now, args.alert_drop_rate), flush=True)
            frames += 1
            if iterations and frames >= iterations:
                if not args.once:
                    return 0
                # Single-shot gate: cron and CI alert on the status
                # without parsing the frame.
                return int(
                    any(p.needs_attention(args.alert_drop_rate) for p in polls)
                )
            time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0


# -- entry point ---------------------------------------------------------------

#: view -> (text renderer, JSON summary, required section, hint)
_VIEWS: Dict[str, Tuple[Callable, Callable, Optional[str], str]] = {
    "report": (render_report, report_json, None, ""),
    "trace": (render_trace, trace_json, "tracing", "was tracing enabled?"),
    "explain": (render_explain, explain_json, None, ""),
    "prof": (
        render_prof, prof_json, "profile",
        "was the run profiled? liveexp needs --profile",
    ),
}


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.obs",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("view", choices=sorted([*_VIEWS, "watch"]))
    parser.add_argument(
        "sources", nargs="+", metavar="SOURCE",
        help="dump file or exposer URL (watch takes several)",
    )
    parser.add_argument(
        "--limit", type=int, default=None,
        help="rows to show: events (report, default 20), trace trees "
        "(trace, default 10), stacks (prof, default 10); 0 for none",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="emit one JSON object (schema mp.<view>.v1) instead of text",
    )
    parser.add_argument(
        "--chrome", metavar="FILE",
        help="trace: also write the spans as Chrome-trace JSON",
    )
    parser.add_argument(
        "--speedscope", metavar="FILE",
        help="prof: also write a speedscope JSON profile",
    )
    parser.add_argument(
        "--collapsed", metavar="FILE",
        help="prof: also write collapsed-stack text (flamegraph input)",
    )
    parser.add_argument(
        "--interval", type=float, default=1.0,
        help="watch: seconds between polls",
    )
    parser.add_argument(
        "--iterations", type=int, default=0,
        help="watch: stop after N frames (0 = until Ctrl-C)",
    )
    parser.add_argument(
        "--once", action="store_true",
        help="watch: print one frame; exit 1 when any source is "
        "unreachable or any peer is unhealthy, breaker-open or shedding",
    )
    parser.add_argument(
        "--alert-drop-rate", type=float, default=10.0,
        help="watch: frames shed per second that flags a peer",
    )
    parser.add_argument(
        "--backoff-cap", type=float, default=30.0,
        help="watch: max seconds between retries of an unreachable source",
    )
    parser.add_argument(
        "--no-clear", action="store_true",
        help="watch: append frames instead of redrawing the screen",
    )
    return parser


def _exports(args: argparse.Namespace, dump: Mapping):
    """(path, text thunk) for each file the flags ask to be written."""
    if args.chrome:
        from repro.obs.export import chrome_trace

        yield args.chrome, lambda: json.dumps(
            chrome_trace(dump["tracing"]), indent=2
        )
    if args.speedscope:
        from repro.obs.prof import speedscope_from_dump

        yield args.speedscope, lambda: json.dumps(
            speedscope_from_dump(dump["profile"]), indent=2
        ) + "\n"
    if args.collapsed:
        from repro.obs.prof import collapsed_from_dump

        yield args.collapsed, lambda: collapsed_from_dump(dump["profile"])


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if args.view == "watch":
        return watch(args)
    if len(args.sources) != 1:
        parser.error(f"{args.view} takes exactly one dump")
    source = args.sources[0]
    name = f"obs {args.view}"
    try:
        dump = load(source)
    except (OSError, ValueError) as exc:
        print(f"{name}: cannot read {source}: {exc}", file=sys.stderr)
        return 1
    render, summarize, needs, hint = _VIEWS[args.view]
    if needs is not None and not dump.get(needs):
        print(
            f"{name}: {source} has no {needs} section ({hint})",
            file=sys.stderr,
        )
        return 1
    if args.json:
        out = {"schema": f"mp.{args.view}.v1", "source": source}
        out.update(summarize(dump, args.limit))
        json.dump(out, sys.stdout, indent=2, default=str)
        print()
    else:
        print(render(dump, args.limit))
    for path, text in _exports(args, dump):
        try:
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text())
        except (OSError, KeyError) as exc:
            print(f"{name}: cannot write {path}: {exc}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
