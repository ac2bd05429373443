"""Tables 3-4 and Figures 7-8: the compute-bound evaluation.

* Table 3 — four versions on heterogeneous platforms (PC→Sun, Sun→PC),
  no perturbation; average per-message processing time (ms).
* Table 4 — four versions on the homogeneous Intel pair under producer /
  consumer load indices {0/0, 0/0.6, 0/1.0, 0.6/0.6, 0.6/0, 1.0/0};
  expected PLen 1000 ms, AProb 0.5; averages of several seeded runs.
* Figure 7 — average time vs consumer-side AProb (PLen 1000 ms,
  LIndex 0.8, producer load-free).
* Figure 8 — Method Partitioning's stability vs consumer-side expected
  PLen.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.apps.harness import PipelineResult, Version, run_pipeline
from repro.apps.sensor.data import DEFAULT_SAMPLES, reading_stream
from repro.apps.sensor.versions import (
    ConsumerVersion,
    DividedVersion,
    ProducerVersion,
    make_mp_sensor_version,
)
from repro.simnet.cluster import Testbed, heterogeneous_pair, intel_pair
from repro.simnet.perturbation import PerturbationSpec
from repro.simnet.simulator import Simulator

VERSION_NAMES = (
    "Consumer Version",
    "Producer Version",
    "Divided Version",
    "Method Partitioning",
)

#: the paper's expected active-period length: 1000 ms (uniform on [0, 2] s)
PAPER_PLEN = (0.0, 2.0)
#: the paper's default active probability
PAPER_APROB = 0.5


def _make_version(name: str, obs=None) -> Version:
    if name == "Consumer Version":
        return ConsumerVersion()
    if name == "Producer Version":
        return ProducerVersion()
    if name == "Divided Version":
        return DividedVersion()
    if name == "Method Partitioning":
        return make_mp_sensor_version(obs=obs)
    raise ValueError(f"unknown version {name!r}")


def _run_one(
    make_testbed: Callable[[Simulator], Testbed],
    version_name: str,
    n_messages: int,
    obs=None,
) -> PipelineResult:
    sim = Simulator()
    testbed = make_testbed(sim)
    # Observability attaches to the adaptive version only: the manual
    # versions have no decision loop to trace.
    version = _make_version(version_name, obs=obs)
    events = reading_stream(n_messages)
    return run_pipeline(testbed, version, events)


def _avg_ms(results: Sequence[PipelineResult]) -> float:
    return 1000.0 * sum(r.avg_processing_time for r in results) / len(results)


# -- Table 3 -----------------------------------------------------------------


def run_table3(
    *, n_messages: int = 150, obs=None
) -> Dict[str, Dict[str, float]]:
    """version → direction → avg processing time (ms)."""
    table: Dict[str, Dict[str, float]] = {}
    for name in VERSION_NAMES:
        row = {}
        for direction, producer in (("PC->Sun", "pc"), ("Sun->PC", "sun")):
            result = _run_one(
                lambda sim, p=producer: heterogeneous_pair(sim, producer=p),
                name,
                n_messages,
                obs=obs,
            )
            row[direction] = 1000.0 * result.avg_processing_time
        table[name] = row
    return table


def format_table3(table: Dict[str, Dict[str, float]]) -> str:
    lines = [f"{'Implementation Versions':<22} {'PC->Sun':>10} {'Sun->PC':>10}"]
    for name in VERSION_NAMES:
        row = table[name]
        lines.append(
            f"{name:<22} {row['PC->Sun']:>10.2f} {row['Sun->PC']:>10.2f}"
        )
    return "\n".join(lines)


# -- Table 4 -----------------------------------------------------------------

#: the paper's (producer LIndex, consumer LIndex) rows
TABLE4_LOADS: Tuple[Tuple[float, float], ...] = (
    (0.0, 0.0),
    (0.0, 0.6),
    (0.0, 1.0),
    (0.6, 0.6),
    (0.6, 0.0),
    (1.0, 0.0),
)


def _load_spec(lindex: float, aprob: float, plen) -> Optional[PerturbationSpec]:
    if lindex == 0.0:
        return None
    return PerturbationSpec(plen=plen, aprob=aprob, lindex=lindex)


def run_table4(
    *,
    n_messages: int = 150,
    seeds: Sequence[int] = (1, 2, 3, 4, 5),
    aprob: float = PAPER_APROB,
    plen=PAPER_PLEN,
    obs=None,
) -> Dict[Tuple[float, float], Dict[str, float]]:
    """(producer LIndex, consumer LIndex) → version → avg ms.

    Averaged over *seeds*; every version in a cell shares each seed's
    perturbation timeline (the paper's pre-generated random arrays).
    """
    table: Dict[Tuple[float, float], Dict[str, float]] = {}
    for p_lindex, c_lindex in TABLE4_LOADS:
        row: Dict[str, float] = {}
        for name in VERSION_NAMES:
            results = []
            for seed in seeds:
                results.append(
                    _run_one(
                        lambda sim, s=seed: intel_pair(
                            sim,
                            producer_load=_load_spec(p_lindex, aprob, plen),
                            consumer_load=_load_spec(c_lindex, aprob, plen),
                            seed=s,
                        ),
                        name,
                        n_messages,
                        obs=obs,
                    )
                )
            row[name] = _avg_ms(results)
        table[(p_lindex, c_lindex)] = row
    return table


def format_table4(table: Dict[Tuple[float, float], Dict[str, float]]) -> str:
    header = f"{'(P-LIdx)/(C-LIdx)':<18}" + "".join(
        f"{name:>22}" for name in VERSION_NAMES
    )
    lines = [header]
    for loads, row in table.items():
        label = f"{loads[0]:g}/{loads[1]:g}"
        lines.append(
            f"{label:<18}"
            + "".join(f"{row[name]:>22.2f}" for name in VERSION_NAMES)
        )
    return "\n".join(lines)


# -- Figures 7 and 8 -----------------------------------------------------------

FIGURE7_APROBS: Tuple[float, ...] = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)
FIGURE8_PLENS: Tuple[float, ...] = (0.25, 0.5, 1.0, 2.0, 4.0)


def run_figure7(
    *,
    n_messages: int = 150,
    seeds: Sequence[int] = (1, 2, 3),
    lindex: float = 0.8,
    obs=None,
) -> Dict[str, List[Tuple[float, float]]]:
    """version → [(consumer AProb, avg ms)] with producer load-free."""
    curves: Dict[str, List[Tuple[float, float]]] = {
        name: [] for name in VERSION_NAMES
    }
    for aprob in FIGURE7_APROBS:
        for name in VERSION_NAMES:
            results = []
            for seed in seeds:
                load = (
                    None
                    if aprob == 0.0
                    else PerturbationSpec(
                        plen=PAPER_PLEN, aprob=aprob, lindex=lindex
                    )
                )
                results.append(
                    _run_one(
                        lambda sim, s=seed, l=load: intel_pair(
                            sim, consumer_load=l, seed=s
                        ),
                        name,
                        n_messages,
                        obs=obs,
                    )
                )
            curves[name].append((aprob, _avg_ms(results)))
    return curves


def run_figure8(
    *,
    n_messages: int = 150,
    seeds: Sequence[int] = (1, 2, 3),
    lindex: float = 0.8,
    aprob: float = PAPER_APROB,
    versions: Sequence[str] = VERSION_NAMES,
    obs=None,
) -> Dict[str, List[Tuple[float, float]]]:
    """version → [(expected consumer PLen seconds, avg ms)]."""
    curves: Dict[str, List[Tuple[float, float]]] = {
        name: [] for name in versions
    }
    for plen_expected in FIGURE8_PLENS:
        plen = (0.0, 2.0 * plen_expected)
        for name in versions:
            results = []
            for seed in seeds:
                load = PerturbationSpec(
                    plen=plen, aprob=aprob, lindex=lindex
                )
                results.append(
                    _run_one(
                        lambda sim, s=seed, l=load: intel_pair(
                            sim, consumer_load=l, seed=s
                        ),
                        name,
                        n_messages,
                        obs=obs,
                    )
                )
            curves[name].append((plen_expected, _avg_ms(results)))
    return curves


def format_curves(
    curves: Dict[str, List[Tuple[float, float]]], x_label: str
) -> str:
    names = list(curves)
    xs = [x for x, _ in curves[names[0]]]
    lines = [f"{x_label:<12}" + "".join(f"{name:>22}" for name in names)]
    for i, x in enumerate(xs):
        lines.append(
            f"{x:<12g}"
            + "".join(f"{curves[name][i][1]:>22.2f}" for name in names)
        )
    return "\n".join(lines)
