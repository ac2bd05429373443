"""Lightweight metrics primitives for the runtime units.

No external dependencies, no background threads, no locks: every runtime
unit in this reproduction is single-threaded per (sender, subscription)
pair, so plain attribute updates are sufficient.  The design goal is the
paper's own constraint on profiling ("if profiling is expensive, such
costs can be reduced"): when no registry is attached (the default),
instrumented code paths cost one ``is None`` check.  A count an object
already keeps as a plain int is not mirrored into an instrument: the
object registers a *reader* (:meth:`MetricsRegistry.add_reader`) and the
registry reads the int when it is dumped, so counting costs the int add
alone, attached or not, and the series can never disagree with the
attribute it reports.

Three instrument kinds, for values nothing else keeps:

* :class:`Counter` — monotonically increasing total (messages, bytes,
  instructions executed);
* :class:`Gauge` — last-written value (current plan size, pending buffer
  depth);
* :class:`Histogram` — fixed-bucket distribution (message sizes, virtual
  times).  Buckets are upper bounds; values above the last bound land in
  the overflow bucket.  Fixed buckets keep ``observe`` O(#buckets) with
  zero allocation.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
    "bucket_quantile",
    "snapshot_delta",
    "counts",
    "zero_counts",
]

#: returns ``{"counters": {name: value}, "gauges": {name: value}}``
#: (either key optional), read off its owner's counts at dump time
Reader = Callable[[], Mapping[str, Mapping[str, float]]]

#: default geometric bucket ladder — wide enough for bytes and seconds
DEFAULT_BUCKETS: Tuple[float, ...] = (
    1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1,
    1.0, 10.0, 100.0, 1e3, 1e4, 1e5, 1e6,
)


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counter increments must be non-negative")
        self.value += amount

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Counter {self.name}={self.value}>"


class Gauge:
    """A last-written value."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Gauge {self.name}={self.value}>"


class Histogram:
    """A fixed-bucket distribution with sum and count.

    ``bounds`` are inclusive upper bounds in increasing order; a value
    above the last bound is counted in the overflow bucket
    (``counts[-1]``, bound ``inf``).
    """

    __slots__ = ("name", "bounds", "counts", "total", "count")

    def __init__(
        self, name: str, bounds: Sequence[float] = DEFAULT_BUCKETS
    ) -> None:
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        ordered = tuple(float(b) for b in bounds)
        if any(b >= c for b, c in zip(ordered, ordered[1:])):
            raise ValueError("histogram bounds must be strictly increasing")
        self.name = name
        self.bounds = ordered
        self.counts = [0] * (len(ordered) + 1)
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.total += value
        self.count += 1
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self.counts[i] += 1
                return
        self.counts[-1] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Bucket-interpolated quantile estimate (see :func:`bucket_quantile`)."""
        return bucket_quantile(self.bounds, self.counts, q)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Histogram {self.name} n={self.count} mean={self.mean:.3g}>"


def bucket_quantile(
    bounds: Sequence[float], counts: Sequence[int], q: float
) -> float:
    """Estimate the *q*-quantile of a fixed-bucket histogram.

    Linear interpolation within the bucket holding the target rank: the
    first bucket spans ``[0, bounds[0]]``, bucket *i* spans
    ``(bounds[i-1], bounds[i]]``.  The overflow bucket has no upper
    bound, so any rank landing there reports the last finite bound — a
    deliberate underestimate rather than a fabricated tail.  Returns 0.0
    for an empty histogram.
    """
    if not (0.0 <= q <= 1.0):
        raise ValueError("quantile must be in [0, 1]")
    if not bounds:
        raise ValueError("bucket_quantile needs at least one bound")
    total = sum(counts)
    if total == 0:
        return 0.0
    target = q * total
    cumulative = 0
    for i, c in enumerate(counts):
        cumulative += c
        if cumulative >= target and c > 0:
            if i >= len(bounds):  # overflow bucket: unbounded above
                return float(bounds[-1])
            lo = 0.0 if i == 0 else float(bounds[i - 1])
            hi = float(bounds[i])
            fraction = (target - (cumulative - c)) / c
            return lo + fraction * (hi - lo)
    return float(bounds[-1])


def snapshot_delta(
    prev: Dict[str, object], curr: Dict[str, object]
) -> Dict[str, object]:
    """Counter/histogram deltas between two ``to_dict()`` snapshots.

    Returns ``{"counters": {name: delta}, "histograms": {name: {...}}}``
    where a histogram delta carries ``count``, ``total`` and per-bucket
    ``counts`` differences (plus the current ``bounds`` so quantiles of
    the *interval* can be computed with :func:`bucket_quantile`).
    Instruments absent from ``prev`` use an implicit zero baseline; a
    value that went *backwards* (the source process restarted and its
    counters reset) is treated the way Prometheus ``rate()`` treats a
    reset: the delta is the current value.  Gauges are not differenced —
    they are last-written values, not accumulations.
    """
    prev_counters = prev.get("counters", {}) if prev else {}
    curr_counters = curr.get("counters", {}) if curr else {}
    counters: Dict[str, float] = {}
    for name, value in curr_counters.items():
        before = float(prev_counters.get(name, 0.0))
        value = float(value)
        counters[name] = value - before if value >= before else value

    prev_hists = prev.get("histograms", {}) if prev else {}
    curr_hists = curr.get("histograms", {}) if curr else {}
    histograms: Dict[str, Dict[str, object]] = {}
    for name, h in curr_hists.items():
        p = prev_hists.get(name)
        reset = p is None or int(p["count"]) > int(h["count"]) or list(
            p["bounds"]
        ) != list(h["bounds"])
        if reset:
            p = {"count": 0, "total": 0.0, "counts": [0] * len(h["counts"])}
        histograms[name] = {
            "bounds": list(h["bounds"]),
            "count": int(h["count"]) - int(p["count"]),
            "total": float(h["total"]) - float(p["total"]),
            "counts": [
                int(c) - int(b) for c, b in zip(h["counts"], p["counts"])
            ],
        }
    return {"counters": counters, "histograms": histograms}


def zero_counts(owner: object) -> None:
    """Start every count in ``owner.COUNTS`` at 0 (call from ``__init__``)."""
    owner.__dict__.update(dict.fromkeys(owner.COUNTS, 0))


def counts(owner: object, names: Sequence[str] = ()) -> Dict[str, float]:
    """``{name: value}`` of ``names``, by default of ``owner.COUNTS``.

    An object declares its counted fields once, as ``COUNTS``; its dumps
    and its metric reader read them through here, never a hand list.
    """
    return {name: getattr(owner, name) for name in names or owner.COUNTS}


class MetricsRegistry:
    """Get-or-create registry of named instruments, plus readers.

    Names are dotted paths (``"transport.bytes"``); the registry keeps
    one instrument per name and kind.  Asking for an existing name with a
    different kind is an error — it almost always means two subsystems
    chose colliding names.  The same holds for the names readers return:
    a counter read twice adds up, as two handles of one counter did; any
    other collision raises on the dump.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        #: reader → its counter values when added, the zero they count from
        self._readers: Dict[Reader, Dict[str, float]] = {}

    def _check_free(self, name: str, want: Dict) -> None:
        for kind, table in (
            ("counter", self._counters),
            ("gauge", self._gauges),
            ("histogram", self._histograms),
        ):
            if table is not want and name in table:
                raise ValueError(
                    f"metric {name!r} already registered as a {kind}"
                )

    def counter(self, name: str) -> Counter:
        counter = self._counters.get(name)
        if counter is None:
            self._check_free(name, self._counters)
            counter = self._counters[name] = Counter(name)
        return counter

    def gauge(self, name: str) -> Gauge:
        gauge = self._gauges.get(name)
        if gauge is None:
            self._check_free(name, self._gauges)
            gauge = self._gauges[name] = Gauge(name)
        return gauge

    def histogram(
        self, name: str, bounds: Sequence[float] = DEFAULT_BUCKETS
    ) -> Histogram:
        histogram = self._histograms.get(name)
        if histogram is None:
            self._check_free(name, self._histograms)
            histogram = self._histograms[name] = Histogram(name, bounds)
        return histogram

    # -- readers --------------------------------------------------------------

    def add_reader(self, read: Reader) -> None:
        """Merge ``read()``'s counters and gauges into every dump.

        Its counters count from their values now, as fresh instruments
        would; adding the same bound method again changes nothing.
        """
        if read not in self._readers:
            self._readers[read] = dict(read().get("counters", {}))

    def remove_reader(self, read: Reader) -> None:
        """Stop calling ``read``; its last values stay as instruments."""
        counters, gauges = self._read(read)
        del self._readers[read]
        for name, value in counters.items():
            self.counter(name).inc(value)
        for name, value in gauges.items():
            self.gauge(name).set(value)

    def _read(
        self, read: Reader
    ) -> Tuple[Dict[str, float], Dict[str, float]]:
        zero, values = self._readers[read], read()
        return (
            {
                name: float(value - zero.get(name, 0))
                for name, value in values.get("counters", {}).items()
            },
            {n: float(v) for n, v in values.get("gauges", {}).items()},
        )

    def _values(self) -> Tuple[Dict[str, float], Dict[str, float]]:
        """Every counter and gauge value, instruments and readers merged."""
        counters = {name: c.value for name, c in self._counters.items()}
        gauges = {name: g.value for name, g in self._gauges.items()}
        for read in list(self._readers):
            read_counters, read_gauges = self._read(read)
            for name, value in read_counters.items():
                if name in gauges or name in self._histograms:
                    raise ValueError(f"metric {name!r} read under two kinds")
                counters[name] = counters.get(name, 0.0) + value
            for name in read_gauges.keys() & (
                gauges.keys() | counters.keys() | self._histograms.keys()
            ):
                raise ValueError(f"gauge {name!r} collides with a metric")
            gauges.update(read_gauges)
        return counters, gauges

    # -- export ---------------------------------------------------------------

    def counters(self) -> List[Counter]:
        """Every counter as of now, readers' included, sorted by name."""
        out = []
        for name, value in sorted(self._values()[0].items()):
            out.append(Counter(name))
            out[-1].value = value
        return out

    def histograms(self) -> List[Histogram]:
        return [self._histograms[k] for k in sorted(self._histograms)]

    def snapshot_delta(self, prev: Dict[str, object]) -> Dict[str, object]:
        """Deltas of this registry's live state against a prior snapshot.

        ``prev`` is an earlier ``to_dict()`` result (possibly from a
        JSON round-trip); see :func:`snapshot_delta` for the contract.
        """
        return snapshot_delta(prev, self.to_dict())

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable snapshot of every instrument and reader."""
        counters, gauges = self._values()
        return {
            "counters": dict(sorted(counters.items())),
            "gauges": dict(sorted(gauges.items())),
            "histograms": {
                h.name: {
                    "bounds": list(h.bounds),
                    "counts": list(h.counts),
                    "total": h.total,
                    "count": h.count,
                }
                for h in self.histograms()
            },
        }
