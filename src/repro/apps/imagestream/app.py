"""The image-streaming handler: natives, registries, and partitioning.

The message handler mirrors the paper's ``push()`` (Appendix A / Figure 4):
check the event type, resample the frame to the display window, hand it to
the (receiver-pinned) display routine.  Under the data-size cost model the
interesting PSEs are *before* the resample (ship the raw frame) and *after*
it (ship the display-sized frame) — which one is cheaper depends on whether
the incoming frame is smaller or larger than the display window, exactly
the adaptation Table 2 exercises.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, List, Optional, Tuple

from repro.apps.imagestream.data import DISPLAY_SIZE, ImageFrame
from repro.core.api import MethodPartitioner
from repro.core.costmodels import DataSizeCostModel
from repro.core.partitioned import PartitionedMethod
from repro.ir.interpreter import DEFAULT_BACKEND
from repro.ir.registry import FunctionRegistry, default_registry
from repro.serialization import SerializerRegistry

#: abstract cycles per *output* pixel of a nearest-neighbour resample
RESAMPLE_CYCLES_PER_PIXEL = 0.12
#: abstract cycles per pixel pushed to the display
DISPLAY_CYCLES_PER_PIXEL = 0.03

#: the handler compiled against the registries below
IMAGE_HANDLER_SOURCE = """
def push(event):
    if isinstance(event, ImageFrame):
        out = resample(event, DISPLAY_W, DISPLAY_H)
        display(out)
"""


@lru_cache(maxsize=64)
def _column_map(src_w: int, dst_w: int) -> Tuple[int, ...]:
    return tuple(j * src_w // dst_w for j in range(dst_w))


def resample(frame: ImageFrame, width: int, height: int) -> ImageFrame:
    """Nearest-neighbour resample of *frame* to width × height."""
    if frame.width == width and frame.height == height:
        return frame
    cols = _column_map(frame.width, width)
    src = frame.pixels
    rows: List[bytes] = []
    for i in range(height):
        base = (i * frame.height // height) * frame.width
        row = src[base : base + frame.width]
        rows.append(bytes(map(row.__getitem__, cols)))
    return ImageFrame(width, height, b"".join(rows))


def resample_cycles(frame: ImageFrame, width: int, height: int) -> float:
    """Cycle cost of :func:`resample` (per output pixel)."""
    return width * height * RESAMPLE_CYCLES_PER_PIXEL


def display_cycles(frame: ImageFrame) -> float:
    """Cycle cost of pushing *frame* to the display."""
    return frame.pixel_count * DISPLAY_CYCLES_PER_PIXEL


class DisplaySink:
    """The client's display: a receiver-pinned native with a frame log."""

    def __init__(self) -> None:
        self.frames: List[ImageFrame] = []

    def __call__(self, frame: ImageFrame) -> None:
        self.frames.append(frame)

    def clear(self) -> None:
        self.frames.clear()


def build_image_registries(
    display: Optional[DisplaySink] = None,
) -> Tuple[FunctionRegistry, SerializerRegistry, DisplaySink]:
    """Registries for the image application (IR + serializer)."""
    display = display or DisplaySink()
    registry = default_registry()
    registry.register_class(ImageFrame)
    registry.register_function(
        "resample", resample, pure=True, cycle_cost=resample_cycles
    )
    registry.register_function(
        "display",
        display,
        receiver_only=True,
        pure=False,
        cycle_cost=display_cycles,
    )
    serializer_registry = SerializerRegistry()
    serializer_registry.register(
        ImageFrame, fields=("width", "height", "pixels")
    )
    return registry, serializer_registry, display


def build_partitioned_push(
    *,
    display_size: int = DISPLAY_SIZE,
    display: Optional[DisplaySink] = None,
    backend: str = DEFAULT_BACKEND,
) -> Tuple[PartitionedMethod, DisplaySink]:
    """Partition the image handler under the data-size cost model."""
    registry, serializer_registry, sink = build_image_registries(display)
    partitioner = MethodPartitioner(
        registry, serializer_registry, backend=backend
    )
    partitioned = partitioner.partition(
        IMAGE_HANDLER_SOURCE,
        DataSizeCostModel(),
        constants={"DISPLAY_W": display_size, "DISPLAY_H": display_size},
    )
    return partitioned, sink
