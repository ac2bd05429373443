"""Figure 7: impact of consumer-side active-period probability changes.

Four versions on the Intel pair, consumer AProb swept 0 → 1 with
PLen = 1000 ms, LIndex = 0.8, producer load-free; metric = average
message processing time (ms).

Expected shape: "the consumer side load change almost has no effect on the
Producer Version, and it has very little effect on the Method Partitioning
version.  On the other hand, performance [of] the other two versions
severely degrades when consumer side load increases."
"""

from __future__ import annotations

import pytest

from repro.apps.sensor import FIGURE7_APROBS, format_curves, run_figure7

_KWARGS = dict(n_messages=150, seeds=(1, 2, 3), lindex=0.8)


def test_figure7(benchmark, record_result, obs):
    curves = benchmark.pedantic(
        run_figure7, kwargs=dict(_KWARGS, obs=obs), rounds=1, iterations=1
    )
    record_result(
        "figure7", format_curves(curves, "Consumer AProb")
    )

    if obs is not None:  # REPRO_OBS=1: the adaptation loop left events
        assert obs.flight.count("TriggerFired") >= 1
        assert obs.flight.count("SplitSwitched") >= 1
        switch = obs.flight.of_kind("SplitSwitched")[0]
        assert switch["old_pse_ids"] != switch["new_pse_ids"]
        from repro.tools.obs import render_report

        record_result("figure7_obs", render_report(obs.to_dict()))

    producer = [y for _, y in curves["Producer Version"]]
    consumer = [y for _, y in curves["Consumer Version"]]
    divided = [y for _, y in curves["Divided Version"]]
    mp = [y for _, y in curves["Method Partitioning"]]

    # Producer Version: flat (within 10%)
    assert max(producer) <= min(producer) * 1.1
    # Consumer and Divided versions degrade severely
    assert consumer[-1] > consumer[0] * 2.0
    assert divided[-1] > divided[0] * 1.5
    # MP: "very little effect" — bounded degradation, and always the best
    # or near-best at high load
    assert mp[-1] < consumer[-1] * 0.55
    assert mp[-1] < divided[-1] * 0.85
    assert mp[-1] <= producer[-1] * 1.05
    # monotone-ish rise for the consumer version
    assert consumer == sorted(consumer) or all(
        b >= a * 0.95 for a, b in zip(consumer, consumer[1:])
    )
