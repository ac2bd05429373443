"""Live metrics exposition in OpenMetrics text format.

Turns a :meth:`MetricsRegistry.to_dict` snapshot into the
Prometheus/OpenMetrics text format and serves it from a tiny threaded
HTTP endpoint, so long-lived two-process deployments (the TCP
transport's sender/receiver) can be scraped instead of dumped post hoc:

* :func:`render_openmetrics` — counters become ``_total`` samples,
  gauges plain samples, fixed-bucket histograms cumulative
  ``_bucket{le=...}`` series plus ``_sum``/``_count``;
* :func:`parse_openmetrics` — a strict parser for the subset we emit,
  used by the live harness, the tests and CI to *validate* scraped text
  without depending on a Prometheus client library;
* :func:`start_http_exposer` — ``/metrics`` (OpenMetrics text) and
  ``/metrics.json`` (the full observability dump, which
  ``python -m repro.tools.obs`` loads for every view).

Instrument names are dotted paths; exposition maps them to OpenMetrics
families by replacing forbidden characters with ``_``.  Labeled series
use the name convention ``base{key="value"}`` — the registry treats the
whole string as one instrument name, exposition splits it back into
family + labels (this is how the per-PSE regret and drift-residual
gauges of :mod:`repro.obs.quality` become ``quality_regret{pse="s3"}``).
"""

from __future__ import annotations

import json
import re
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Dict, List, Mapping, Optional, Tuple

__all__ = [
    "render_openmetrics",
    "parse_openmetrics",
    "MetricsExposer",
    "start_http_exposer",
]

_NAME_SANITIZE = re.compile(r"[^a-zA-Z0-9_:]")
_LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')
_SAMPLE_RE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})?\s+(\S+)$"
)


def _split_labels(name: str) -> Tuple[str, str]:
    """Split ``base{key="v"}`` into (base, label body) — '' when unlabeled."""
    brace = name.find("{")
    if brace < 0:
        return name, ""
    if not name.endswith("}"):
        raise ValueError(f"malformed labeled metric name: {name!r}")
    return name[:brace], name[brace + 1 : -1]


def _family(name: str) -> str:
    base, _labels = _split_labels(name)
    family = _NAME_SANITIZE.sub("_", base)
    if not family or family[0].isdigit():
        family = "_" + family
    return family


def _fmt(value: float) -> str:
    value = float(value)
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _sample(family: str, labels: str, value: float,
            extra: Optional[str] = None) -> str:
    parts = [labels] if labels else []
    if extra:
        parts.append(extra)
    label_body = ",".join(parts)
    suffix = "{" + label_body + "}" if label_body else ""
    return f"{family}{suffix} {_fmt(value)}"


def render_openmetrics(metrics: Mapping[str, object]) -> str:
    """Render a ``MetricsRegistry.to_dict()`` snapshot as OpenMetrics text.

    Accepts either the bare metrics snapshot or a full observability
    dump (in which case its ``"metrics"`` section is used).  Instruments
    sharing a family (same base name, different labels) group under one
    ``# TYPE`` line; a family claimed by two different instrument kinds
    is a naming bug and raises.
    """
    if "metrics" in metrics and "counters" not in metrics:
        metrics = metrics["metrics"]  # full obs dump

    families: Dict[str, Tuple[str, List[str]]] = {}

    def claim(family: str, kind: str) -> List[str]:
        existing = families.get(family)
        if existing is None:
            samples: List[str] = []
            families[family] = (kind, samples)
            return samples
        if existing[0] != kind:
            raise ValueError(
                f"metric family {family!r} used as both "
                f"{existing[0]} and {kind}"
            )
        return existing[1]

    for name, value in sorted(metrics.get("counters", {}).items()):
        base, labels = _split_labels(name)
        family = _family(base)
        if family.endswith("_total"):
            family = family[: -len("_total")]
        claim(family, "counter").append(
            _sample(f"{family}_total", labels, value)
        )
    for name, value in sorted(metrics.get("gauges", {}).items()):
        base, labels = _split_labels(name)
        claim(_family(base), "gauge").append(
            _sample(_family(base), labels, value)
        )
    for name, hist in sorted(metrics.get("histograms", {}).items()):
        base, labels = _split_labels(name)
        family = _family(base)
        samples = claim(family, "histogram")
        cumulative = 0
        bounds = list(hist["bounds"])
        counts = list(hist["counts"])
        for bound, count in zip(bounds, counts[:-1]):
            cumulative += int(count)
            samples.append(
                _sample(f"{family}_bucket", labels, cumulative,
                        extra=f'le="{_fmt(bound)}"')
            )
        cumulative += int(counts[-1])
        samples.append(
            _sample(f"{family}_bucket", labels, cumulative, extra='le="+Inf"')
        )
        samples.append(_sample(f"{family}_sum", labels, hist["total"]))
        samples.append(_sample(f"{family}_count", labels, hist["count"]))

    lines: List[str] = []
    for family in sorted(families):
        kind, samples = families[family]
        lines.append(f"# TYPE {family} {kind}")
        lines.extend(samples)
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


def parse_openmetrics(text: str) -> Dict[str, Dict[str, object]]:
    """Parse (and validate) the OpenMetrics subset we emit.

    Returns ``{family: {"type": kind, "samples": [{"name", "labels",
    "value"}, ...]}}``.  Raises :class:`ValueError` on malformed lines,
    samples without a ``# TYPE`` declaration, sample names that do not
    belong to their family's kind (e.g. a counter sample missing the
    ``_total`` suffix), a missing ``# EOF`` terminator, or content after
    it — strict enough that passing it is a meaningful CI check.
    """
    families: Dict[str, Dict[str, object]] = {}
    saw_eof = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip()
        if not line:
            continue
        if saw_eof:
            raise ValueError(f"line {lineno}: content after # EOF")
        if line == "# EOF":
            saw_eof = True
            continue
        if line.startswith("# TYPE "):
            parts = line.split()
            if len(parts) != 4:
                raise ValueError(f"line {lineno}: malformed TYPE: {line!r}")
            _hash, _type, family, kind = parts
            if kind not in ("counter", "gauge", "histogram", "summary",
                            "unknown"):
                raise ValueError(f"line {lineno}: unknown kind {kind!r}")
            if family in families:
                raise ValueError(
                    f"line {lineno}: duplicate TYPE for {family!r}"
                )
            families[family] = {"type": kind, "samples": []}
            continue
        if line.startswith("# HELP ") or line.startswith("# UNIT "):
            continue
        if line.startswith("#"):
            raise ValueError(f"line {lineno}: unexpected comment: {line!r}")
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ValueError(f"line {lineno}: malformed sample: {line!r}")
        name, label_body, value_text = match.groups()
        try:
            value = float(value_text)
        except ValueError:
            raise ValueError(
                f"line {lineno}: non-numeric value {value_text!r}"
            ) from None
        labels: Dict[str, str] = {}
        if label_body:
            body = label_body[1:-1]
            consumed = 0
            for m in _LABEL_RE.finditer(body):
                labels[m.group(1)] = m.group(2)
                consumed = m.end()
            rest = body[consumed:].strip(", ")
            if rest:
                raise ValueError(
                    f"line {lineno}: malformed labels: {label_body!r}"
                )
        family, suffix = _family_of_sample(name, families)
        if family is None:
            raise ValueError(
                f"line {lineno}: sample {name!r} has no # TYPE declaration"
            )
        kind = families[family]["type"]
        if kind == "counter" and suffix != "_total":
            raise ValueError(
                f"line {lineno}: counter sample {name!r} must end in _total"
            )
        if kind == "histogram" and suffix not in (
            "_bucket", "_sum", "_count"
        ):
            raise ValueError(
                f"line {lineno}: histogram sample {name!r} has "
                f"invalid suffix"
            )
        if kind == "gauge" and suffix != "":
            raise ValueError(
                f"line {lineno}: gauge sample {name!r} has a suffix"
            )
        if suffix == "_bucket" and "le" not in labels:
            raise ValueError(
                f"line {lineno}: histogram bucket without le label"
            )
        families[family]["samples"].append(
            {"name": name, "labels": labels, "value": value}
        )
    if not saw_eof:
        raise ValueError("missing # EOF terminator")
    return families


def _family_of_sample(
    name: str, families: Mapping[str, object]
) -> Tuple[Optional[str], str]:
    """Resolve a sample name to its declared family + suffix."""
    if name in families:
        return name, ""
    for suffix in ("_total", "_bucket", "_sum", "_count"):
        if name.endswith(suffix) and name[: -len(suffix)] in families:
            return name[: -len(suffix)], suffix
    return None, ""


class MetricsExposer:
    """A running exposition endpoint; ``close()`` releases the port."""

    def __init__(self, server: ThreadingHTTPServer,
                 thread: threading.Thread) -> None:
        self._server = server
        self._thread = thread
        self.host, self.port = server.server_address[:2]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}/metrics"

    def close(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=5.0)


def start_http_exposer(
    source: Callable[[], Mapping[str, object]],
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    health_source: Optional[Callable[[], object]] = None,
) -> MetricsExposer:
    """Serve *source*'s dump over HTTP; port 0 binds an ephemeral port.

    ``source`` is called per request (no caching — scrapes see live
    state) and should return either a full observability dump
    (``Observability.to_dict()``) or a bare metrics snapshot.  The
    server runs daemon-threaded so a forgotten exposer never blocks
    process exit.

    With ``health_source``, the exposer also serves ``/healthz``: the
    callable returns either a state string or a mapping with a
    ``"state"``/``"overall"`` key (e.g. ``HealthMonitor.to_dict``), and
    the route answers 200 for any state except ``wedged``, which gets
    503 — so a plain HTTP liveness probe needs no JSON parsing.  Like
    every other route it is silenced from per-request logging.
    """

    class Handler(BaseHTTPRequestHandler):
        def do_GET(self) -> None:  # noqa: N802 - http.server API
            path = self.path.split("?", 1)[0]
            status = 200
            try:
                if path == "/healthz":
                    if health_source is None:
                        self.send_error(404, "no health source")
                        return
                    health = health_source()
                    if isinstance(health, Mapping):
                        state = str(
                            health.get("state")
                            or health.get("overall")
                            or "unknown"
                        )
                        payload = dict(health)
                    else:
                        state = str(health)
                        payload = {"state": state}
                    payload.setdefault("state", state)
                    if state == "wedged":
                        status = 503
                    body = json.dumps(payload, default=str).encode()
                    ctype = "application/json"
                else:
                    # The source snapshots live registries that another
                    # thread may be extending; retry the rare mid-insert
                    # iteration race instead of failing the scrape.
                    for attempt in range(3):
                        try:
                            data = source()
                            break
                        except RuntimeError:
                            if attempt == 2:
                                raise
                    if path in ("/metrics", "/"):
                        body = render_openmetrics(data).encode()
                        ctype = (
                            "application/openmetrics-text; version=1.0.0"
                        )
                    elif path == "/metrics.json":
                        body = json.dumps(data, default=str).encode()
                        ctype = "application/json"
                    else:
                        self.send_error(404, "unknown path")
                        return
            except Exception as exc:  # scrape must not kill the server
                self.send_error(500, str(exc))
                return
            self.send_response(status)
            self.send_header("Content-Type", ctype)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *args) -> None:  # silence per-request noise
            pass

    server = ThreadingHTTPServer((host, port), Handler)
    server.daemon_threads = True
    thread = threading.Thread(
        target=server.serve_forever, name="metrics-exposer", daemon=True
    )
    thread.start()
    return MetricsExposer(server, thread)
