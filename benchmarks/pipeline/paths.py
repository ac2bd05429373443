"""Where the benchmark lives and where it may write.

Everything the benchmark reads or writes is inside the checkout: the
program under ``src/``, ``BENCHMARK.json`` at the root, committed
results under ``results/`` and per-run scratch under ``work/``.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
RESULTS = HERE / "results"
#: per-run scratch (control files, child results); git-ignored
WORK = HERE / "work"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"


def ensure_src_on_path() -> None:
    """Make ``import repro`` resolve to this checkout's ``src/``.

    Raises when the checkout has no program to measure, so a run in a
    directory holding only the benchmark fails before printing a result.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise FileNotFoundError(
            f"no program to benchmark: {SRC / 'repro'} is missing"
        )
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    if str(HERE) not in sys.path:
        sys.path.insert(0, str(HERE))
