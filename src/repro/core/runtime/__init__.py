"""Runtime Profiling and Reconfiguration Units (paper section 2.5)."""

from repro.core.runtime.feedback import (
    FeedbackSummary,
    RemoteProfilingProxy,
    ingest,
)
from repro.core.runtime.maxflow import INF, FlowNetwork
from repro.core.runtime.plancost import (
    enumerate_plans,
    exhaustive_best_plan,
    expected_plan_cost,
    first_split_on_path,
)
from repro.core.runtime.profiling import ProfilingUnit, PSEStats, RunningStat
from repro.core.runtime.reconfig import (
    ReconfigurationRecord,
    ReconfigurationUnit,
)
from repro.core.runtime.triggers import (
    CompositeTrigger,
    ValueDiffTrigger,
    DiffTrigger,
    FeedbackTrigger,
    NeverTrigger,
    RateTrigger,
)

__all__ = [
    "ProfilingUnit",
    "PSEStats",
    "RunningStat",
    "ReconfigurationUnit",
    "ReconfigurationRecord",
    "FeedbackTrigger",
    "RateTrigger",
    "DiffTrigger",
    "CompositeTrigger",
    "ValueDiffTrigger",
    "NeverTrigger",
    "FlowNetwork",
    "INF",
    "expected_plan_cost",
    "enumerate_plans",
    "exhaustive_best_plan",
    "first_split_on_path",
    "RemoteProfilingProxy",
    "FeedbackSummary",
    "ingest",
]
