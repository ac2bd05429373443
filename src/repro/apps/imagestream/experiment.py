"""Table 2: effects of runtime adaptation with Method Partitioning.

Reproduces the paper's first experiment: three implementations × three
scenarios (small 80×80, large 200×200, mixed) streaming to a handheld over
a wireless link; the reported metric is average frames per second.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List

from repro.apps.harness import PipelineResult, Version, run_pipeline
from repro.apps.imagestream.data import (
    DISPLAY_SIZE,
    LARGE_SIZE,
    SMALL_SIZE,
    scenario_stream,
)
from repro.apps.imagestream.versions import (
    ClientTransformVersion,
    ServerTransformVersion,
    make_mp_image_version,
)
from repro.simnet.cluster import wireless_testbed
from repro.simnet.simulator import Simulator

SCENARIOS = ("small", "large", "mixed")
VERSION_NAMES = ("Image<Display", "Image>Display", "Method Partitioning")


@dataclass
class Table2Config:
    n_frames: int = 300
    seed: int = 7
    display_size: int = DISPLAY_SIZE
    small_size: int = SMALL_SIZE
    large_size: int = LARGE_SIZE


def _version_factories(config: Table2Config) -> Dict[str, Callable[[], Version]]:
    return {
        "Image<Display": lambda: ClientTransformVersion(
            display_size=config.display_size
        ),
        "Image>Display": lambda: ServerTransformVersion(
            display_size=config.display_size
        ),
        "Method Partitioning": lambda: make_mp_image_version(
            display_size=config.display_size
        ),
    }


def run_cell(
    version_name: str, scenario: str, config: Table2Config = None
) -> PipelineResult:
    """Run one (version, scenario) cell of Table 2 on a fresh testbed."""
    config = config or Table2Config()
    factory = _version_factories(config)[version_name]
    frames = scenario_stream(
        scenario,
        config.n_frames,
        seed=config.seed,
        small=config.small_size,
        large=config.large_size,
    )
    sim = Simulator()
    testbed = wireless_testbed(sim)
    return run_pipeline(testbed, factory(), frames)


def run_table2(config: Table2Config = None) -> Dict[str, Dict[str, float]]:
    """The full table: version → scenario → frames/sec."""
    config = config or Table2Config()
    table: Dict[str, Dict[str, float]] = {}
    for version_name in VERSION_NAMES:
        row: Dict[str, float] = {}
        for scenario in SCENARIOS:
            result = run_cell(version_name, scenario, config)
            row[scenario] = result.throughput
        table[version_name] = row
    return table


def format_table2(table: Dict[str, Dict[str, float]]) -> str:
    """Render like the paper's Table 2 (values are frames per second)."""
    lines = [
        f"{'Implementation':<22} {'Small Image':>12} {'Large Image':>12} "
        f"{'Mixed':>8}",
        f"{'':<22} {'(80*80)':>12} {'(200*200)':>12} {'':>8}",
    ]
    for version_name in VERSION_NAMES:
        row = table[version_name]
        lines.append(
            f"{version_name:<22} {row['small']:>12.2f} "
            f"{row['large']:>12.2f} {row['mixed']:>8.2f}"
        )
    return "\n".join(lines)
