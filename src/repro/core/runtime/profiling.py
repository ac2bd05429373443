"""Runtime Profiling Unit (paper section 2.5).

Profiling code inserted along each PSE measures what the cost model cannot
know statically.  Crucially, the unit "collects feedback containing
profiling information from **both the modulator and demodulator sides**":
a PSE that the current plan does not split at is still *traversed* — by the
modulator when it lies before the active split, by the demodulator when it
lies after — so its hypothetical cost can be profiled without ever
splitting there.  Per traversed PSE edge we record:

* ``data_size`` — serialized size of the edge's INTER set (the data-size
  model's cost), measured by the size-calculation tool on the live
  environment;
* ``work_before`` / ``work_after`` — abstract cycles of handler work on
  either side of the edge (machine-independent);
* traversal counts, giving each edge's path probability.

Separately, each *side* profiles its effective seconds-per-cycle rate from
actual service times, which is where host speed and perturbation load show
up.  The execution-time model's per-unit times are then derived as

    ``T_mod(e) = work_before(e) × sender_rate``
    ``T_demod(e) = work_after(e) × receiver_rate``

Profiling is conditional: each PSE has a dedicated profiling flag, and a
sampling period can skip the expensive size measurements ("if profiling is
expensive, such costs can be reduced by periodic sampling, at the expense
of having less timely statistics").
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.core.convexcut import ConvexCutResult
from repro.ir.interpreter import Edge

#: the per-PSE running statistics; a feedback entry's stat tag indexes it
STAT_NAMES = ("data_size", "work_before", "work_after")
#: added to the tag of a stat updated on every traversal (as ``work_before``
#: is on the sender): its ``k`` is the entry's ``traversals``, not sent twice
K_IS_TRAVERSALS = 4


@dataclass
class RunningStat:
    """Exponentially weighted running statistic with an update count.

    EWMA tracks drifting costs (the point of runtime reconfiguration) while
    ``count`` distinguishes "never measured" from "measured zero".
    """

    alpha: float = 0.3
    mean: float = 0.0
    count: int = 0
    #: first value since the last reset: with ``count`` and ``mean`` it
    #: makes a stat that started empty a *fold* another stat can merge
    first: float = 0.0

    def update(self, value: float) -> None:
        if self.count == 0:
            self.mean = self.first = value
        else:
            self.mean += self.alpha * (value - self.mean)
        self.count += 1

    def merge(self, k: int, first: float, mean: float) -> None:
        """Apply the ``k`` ordered updates that took an empty stat from
        ``first`` to ``mean`` — to rounding, what :meth:`update` with the
        same k values yields.  An empty stat adopts the fold (the
        first-sample rule); otherwise k updates decay the prior around the
        fold's first value: ``m ← mean + (1−α)^k · (m − first)``.
        """
        if k == 0:
            return
        if self.count == 0:
            self.mean, self.first = mean, first
        else:
            self.mean = mean + (1.0 - self.alpha) ** k * (self.mean - first)
        self.count += k

    def reset(self) -> None:
        self.mean = self.first = 0.0
        self.count = 0


class FeedbackSummary(NamedTuple):
    """What a proxy recorded between two flushes, folded (see
    :mod:`repro.core.runtime.feedback`), name-free and sparse; its
    FEEDBACK wire form is :func:`~repro.core.runtime.feedback.pack_summary`'s
    fixed layout, which carries it bit for bit.

    An entry is flat, ``(src, dst, traversals, splits, group...)``, one
    per PSE edge traversed, with a group per stat that has ``k > 0``:
    ``(tag, k, first, mean)``, or ``(tag + K_IS_TRAVERSALS, first, mean)``
    when ``k == traversals``; ``tag`` indexes :data:`STAT_NAMES`.
    """

    alpha: float
    #: edge observations folded into ``entries``
    observations: int
    messages: int
    local_completions: int
    #: the sender-rate fold ``(k, first, mean)``
    sender_rate: Tuple[int, float, float]
    #: modulator cycles of each shipped continuation, in ship order — per
    #: message, because the unit pairs them FIFO with the demodulator's
    mod_totals: List[float]
    entries: Tuple[tuple, ...]

    @property
    def records(self) -> int:
        """Recording calls folded in (a replay log's length)."""
        return (
            self.observations
            + self.messages
            + self.local_completions
            + self.sender_rate[0]
            + len(self.mod_totals)
        )


def _natural(value: object) -> int:
    if type(value) is not int or value < 0:
        raise ValueError(f"feedback count {value!r} is not a natural number")
    return value


@dataclass
class PSEStats:
    """Raw profiled observations of one PSE."""

    edge: Edge
    static_lower_bound: float
    data_size: RunningStat = field(default_factory=RunningStat)
    work_before: RunningStat = field(default_factory=RunningStat)
    work_after: RunningStat = field(default_factory=RunningStat)
    #: messages whose execution traversed this edge (either side)
    traversals: int = 0
    #: messages that actually split here
    splits: int = 0

    def take_entry(self) -> Optional[tuple]:
        """Move what was observed here into one flat feedback entry (see
        :class:`FeedbackSummary`); None when nothing was."""
        entry = [*self.edge, self.traversals, self.splits]
        for tag, name in enumerate(STAT_NAMES):
            stat = getattr(self, name)
            if stat.count == 0:
                continue
            if stat.count == self.traversals:
                entry += (tag + K_IS_TRAVERSALS, stat.first, stat.mean)
            else:
                entry += (tag, stat.count, stat.first, stat.mean)
            stat.reset()
        if len(entry) == 4 and not (self.traversals or self.splits):
            return None
        self.traversals = self.splits = 0
        return tuple(entry)


@dataclass(frozen=True)
class PSESnapshot:
    """Resolved per-PSE numbers handed to the cost model / reconfigurator."""

    edge: Edge
    static_lower_bound: float
    #: mean INTER-set wire size; None when never measured
    data_size: Optional[float]
    data_size_count: int
    #: mean handler cycles before/after this edge; None when never observed
    work_before: Optional[float]
    work_after: Optional[float]
    #: derived per-message modulator/demodulator times; None when unknown
    t_mod: Optional[float]
    t_demod: Optional[float]
    #: fraction of messages whose execution passes this edge
    path_probability: float
    splits: int
    #: completed executions backing ``path_probability`` — 0 means the
    #: unit has observed nothing yet, so a probability of 0.0 is "no
    #: data", not "this path never executes"
    observed_executions: int = 0

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable form for plan-decision breakdowns."""
        return {
            "edge": list(self.edge),
            "static_lower_bound": self.static_lower_bound,
            "data_size": self.data_size,
            "data_size_count": self.data_size_count,
            "work_before": self.work_before,
            "work_after": self.work_after,
            "t_mod": self.t_mod,
            "t_demod": self.t_demod,
            "path_probability": self.path_probability,
            "splits": self.splits,
            "observed_executions": self.observed_executions,
        }


class ProfilingUnit:
    """Collects per-PSE measurements from modulator and demodulator sides."""

    def __init__(
        self,
        cut: ConvexCutResult,
        *,
        ewma_alpha: float = 0.3,
        sample_period: int = 1,
        obs=None,
    ) -> None:
        if sample_period < 1:
            raise ValueError("sample_period must be >= 1")
        if not 0.0 < ewma_alpha <= 1.0:
            raise ValueError("ewma_alpha must be in (0, 1]")
        self.cut = cut
        self.sample_period = sample_period
        self.ewma_alpha = ewma_alpha
        self.stats: Dict[Edge, PSEStats] = {}
        self.profile_flags: Dict[Edge, bool] = {}
        for edge, pse in cut.pses.items():
            stats = PSEStats(
                edge=edge,
                static_lower_bound=(
                    pse.static_cost.lower_bound
                    if not pse.static_cost.infinite
                    else 0.0
                ),
            )
            for name in STAT_NAMES:
                getattr(stats, name).alpha = ewma_alpha
            self.stats[edge] = stats
            self.profile_flags[edge] = cut.cost_model.needs_profiling(
                pse.static_cost
            )
        self._order = {edge: index for index, edge in enumerate(self.stats)}
        #: the PSEs recorded since the last :meth:`take_entries`
        self._touched: Dict[Edge, PSEStats] = {}
        #: effective seconds per abstract cycle on each side
        self.sender_rate = RunningStat(alpha=ewma_alpha)
        self.receiver_rate = RunningStat(alpha=ewma_alpha)
        #: total handler cycles per message (modulator + demodulator),
        #: paired FIFO across the split (see record_mod_total /
        #: record_demod_total)
        self.total_work = RunningStat(alpha=ewma_alpha)
        self._pending_mod_totals: deque = deque(maxlen=1024)
        self._pending_demod_totals: deque = deque(maxlen=1024)
        self.messages_seen = 0
        #: executions whose observations are complete on both sides — the
        #: denominator for path probabilities.  Using messages_seen instead
        #: would systematically underestimate demodulator-observed edges:
        #: their traversal reports lag the sender by the in-flight window.
        self.executions_completed = 0
        self.observations_taken = 0
        self.measurements_taken = 0
        self.obs = obs
        if obs is not None:
            self._c_observations = obs.metrics.counter("profiling.observations")
            self._c_measurements = obs.metrics.counter("profiling.measurements")
        else:
            self._c_observations = None
            self._c_measurements = None

    # -- flag control --------------------------------------------------------

    def enable_profiling(self, edge: Edge, on: bool = True) -> None:
        if edge not in self.profile_flags:
            raise KeyError(f"edge {edge} is not a PSE")
        self.profile_flags[edge] = on

    def enable_all(self, on: bool = True) -> None:
        for edge in self.profile_flags:
            self.profile_flags[edge] = on

    def should_measure(self, edge: Edge) -> bool:
        """Whether the expensive profiling code along *edge* runs now."""
        if not self.profile_flags.get(edge, False):
            return False
        return self.messages_seen % self.sample_period == 0

    # -- recording -------------------------------------------------------------

    def record_message(self) -> None:
        """Count one message entering the modulator."""
        self.messages_seen += 1

    def record_edge_observation(
        self,
        edge: Edge,
        *,
        data_size: Optional[float] = None,
        work_before: Optional[float] = None,
        work_after: Optional[float] = None,
        is_split: bool = False,
        count_traversal: bool = True,
    ) -> None:
        """Record one traversal of a PSE edge (either side).

        ``count_traversal=False`` lets the demodulator attach its
        ``work_after`` to the split edge without double-counting the
        traversal the modulator already recorded.
        """
        stats = self.stats.get(edge)
        if stats is None:
            return
        self._touched[edge] = stats
        self.observations_taken += 1
        if self._c_observations is not None:
            self._c_observations.inc()
        if count_traversal:
            stats.traversals += 1
        if is_split:
            stats.splits += 1
        if data_size is not None:
            stats.data_size.update(data_size)
            self.measurements_taken += 1
            if self._c_measurements is not None:
                self._c_measurements.inc()
        if work_before is not None:
            stats.work_before.update(work_before)
        if work_after is not None:
            stats.work_after.update(work_after)

    def record_sender_rate(self, seconds: float, cycles: float) -> None:
        """One modulator run's service time over its cycle count."""
        if cycles > 0:
            self.sender_rate.update(seconds / cycles)

    def record_receiver_rate(self, seconds: float, cycles: float) -> None:
        """One demodulator run's service time over its cycle count."""
        if cycles > 0:
            self.receiver_rate.update(seconds / cycles)

    def record_mod_total(self, cycles: float) -> None:
        """Modulator cycles of a message whose continuation was shipped.

        Paired head-to-head with :meth:`record_demod_total` — each side
        reports its messages in order, so matching the oldest unpaired
        report from each side yields the per-message total even when one
        side's reports arrive late (batched feedback).  The totals let
        :meth:`snapshot` reconstruct the missing side of any edge that
        only one side traversed — the combination of "profiling
        information from both the modulator and demodulator sides".
        """
        self._pending_mod_totals.append(cycles)
        self._pair_totals()

    def record_demod_total(self, cycles: float) -> None:
        """Demodulator cycles of one message, in receive order."""
        self.executions_completed += 1
        self._pending_demod_totals.append(cycles)
        self._pair_totals()

    def _pair_totals(self) -> None:
        while self._pending_mod_totals and self._pending_demod_totals:
            self.total_work.update(
                self._pending_mod_totals.popleft()
                + self._pending_demod_totals.popleft()
            )

    def record_local_completion(self) -> None:
        """An execution that never reached the demodulator (elided or
        completed inside the modulator)."""
        self.executions_completed += 1

    def take_entries(self) -> List[tuple]:
        """Move what was recorded since the last call into flat feedback
        entries (see :meth:`PSEStats.take_entry`), in stats order.  Only
        the PSEs recorded since are visited."""
        touched, self._touched = self._touched, {}
        entries = []
        for edge in sorted(touched, key=self._order.__getitem__):
            entry = touched[edge].take_entry()
            if entry is not None:
                entries.append(entry)
        return entries

    def merge(self, summary: FeedbackSummary) -> None:
        """Apply a proxy's flushed summary at once.

        Leaves the unit (to rounding) where replaying the folded recording
        calls one by one would: counts add, folds merge, mod totals join
        the FIFO in ship order.  Raises ValueError or TypeError — before
        changing anything — when the summary is malformed, was folded
        with another α, or names an edge that is not a PSE here.
        """
        if summary.alpha != self.ewma_alpha:
            raise ValueError(
                f"feedback folded with alpha={summary.alpha!r}, "
                f"this unit runs alpha={self.ewma_alpha}"
            )
        observations = _natural(summary.observations)
        messages = _natural(summary.messages)
        completions = _natural(summary.local_completions)
        mod_totals = [float(cycles) for cycles in summary.mod_totals]
        measurements = 0
        edges, folds = [], []

        def fold(stat, k, first, mean):
            folds.append((stat, _natural(k), float(first), float(mean)))

        fold(self.sender_rate, *summary.sender_rate)
        for entry in summary.entries:
            src, dst, traversals, splits = map(_natural, entry[:4])
            stats = self.stats.get((src, dst))
            if stats is None:
                raise ValueError(f"feedback for non-PSE edge {(src, dst)}")
            edges.append((stats, traversals, splits))
            at = 4
            while at < len(entry):
                implied, tag = divmod(_natural(entry[at]), K_IS_TRAVERSALS)
                if implied > 1 or tag >= len(STAT_NAMES):
                    raise ValueError(f"bad feedback stat tag {entry[at]}")
                end = at + 4 - implied
                first, mean = entry[end - 2 : end]  # ValueError: truncated
                k = traversals if implied else entry[at + 1]
                name = STAT_NAMES[tag]
                fold(getattr(stats, name), k, first, mean)
                if name == "data_size":
                    measurements += k
                at = end
        # Everything is checked; from here on nothing can raise.
        self.messages_seen += messages
        self.executions_completed += completions
        self.observations_taken += observations
        self.measurements_taken += measurements
        if self._c_observations is not None:
            self._c_observations.inc(observations)
            self._c_measurements.inc(measurements)
        for stats, traversals, splits in edges:
            stats.traversals += traversals
            stats.splits += splits
        for stat, k, first, mean in folds:
            stat.merge(k, first, mean)
        self._pending_mod_totals.extend(mod_totals)
        self._pair_totals()

    # -- feedback -----------------------------------------------------------------

    def snapshot(self) -> Dict[Edge, PSESnapshot]:
        """Resolve observations into the feedback payload."""
        out: Dict[Edge, PSESnapshot] = {}
        messages = max(self.executions_completed, 1)
        s_rate = self.sender_rate.mean if self.sender_rate.count else None
        r_rate = self.receiver_rate.mean if self.receiver_rate.count else None
        total = self.total_work.mean if self.total_work.count else None
        for edge, stats in self.stats.items():
            work_before = (
                stats.work_before.mean if stats.work_before.count else None
            )
            work_after = (
                stats.work_after.mean if stats.work_after.count else None
            )
            # Reconstruct the side the edge's traverser could not see from
            # the message's total work (two-sided feedback combination).
            if work_before is None and work_after is not None and total:
                work_before = max(total - work_after, 0.0)
            elif work_after is None and work_before is not None and total:
                work_after = max(total - work_before, 0.0)
            t_mod = None
            if work_before is not None and s_rate is not None:
                t_mod = work_before * s_rate
            t_demod = None
            if work_after is not None and r_rate is not None:
                t_demod = work_after * r_rate
            out[edge] = PSESnapshot(
                edge=edge,
                static_lower_bound=stats.static_lower_bound,
                data_size=(
                    stats.data_size.mean if stats.data_size.count else None
                ),
                data_size_count=stats.data_size.count,
                work_before=work_before,
                work_after=work_after,
                t_mod=t_mod,
                t_demod=t_demod,
                path_probability=min(stats.traversals / messages, 1.0),
                splits=stats.splits,
                observed_executions=self.executions_completed,
            )
        return out

    def reset_counters(self) -> None:
        self.messages_seen = 0
        self.measurements_taken = 0
        for stats in self.stats.values():
            stats.traversals = 0
            stats.splits = 0
