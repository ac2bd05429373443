"""The three Table 2 implementations of the image application.

* :class:`ClientTransformVersion` — the paper's "Image<Display" row: a
  manual implementation optimized for frames *smaller* than the display;
  it always ships the raw frame and resamples at the client.
* :class:`ServerTransformVersion` — the "Image>Display" row: optimized for
  frames *larger* than the display; it always resamples at the server and
  ships the display-sized frame.
* :func:`make_mp_image_version` — the Method Partitioning row: the
  partitioned ``push()`` with diff-triggered runtime re-selection between
  the two split points.

The manual versions perform the same real pixel work and pay cycle costs
from the same cost functions as the partitioned handler, so the comparison
isolates *where* the work happens — the paper's variable.
"""

from __future__ import annotations

from typing import Optional

from repro.apps.harness import ReceiverShare, SenderShare, Version
from repro.apps.imagestream.app import (
    DisplaySink,
    build_partitioned_push,
    display_cycles,
    resample,
    resample_cycles,
)
from repro.apps.imagestream.data import DISPLAY_SIZE, ImageFrame
from repro.apps.mp_version import MethodPartitioningVersion
from repro.core.runtime.triggers import CompositeTrigger, DiffTrigger, RateTrigger
from repro.ir.interpreter import DEFAULT_BACKEND
from repro.serialization import SerializerRegistry, measure_size

#: sender-side cycles for type checking / dispatch in the manual versions
_DISPATCH_CYCLES = 5.0


def _frame_registry() -> SerializerRegistry:
    registry = SerializerRegistry()
    registry.register(ImageFrame, fields=("width", "height", "pixels"))
    return registry


class ClientTransformVersion(Version):
    """Ship the raw frame; resample and display at the client."""

    name = "Image<Display"

    def __init__(
        self,
        *,
        display_size: int = DISPLAY_SIZE,
        display: Optional[DisplaySink] = None,
    ) -> None:
        self.display_size = display_size
        self.display = display or DisplaySink()
        self._sreg = _frame_registry()

    def sender_share(self, event: object) -> SenderShare:
        if not isinstance(event, ImageFrame):
            return SenderShare(payload=None, size=0.0, cycles=_DISPATCH_CYCLES)
        size = float(measure_size(event, self._sreg))
        return SenderShare(payload=event, size=size, cycles=_DISPATCH_CYCLES)

    def receiver_share(self, payload: object) -> ReceiverShare:
        out = resample(payload, self.display_size, self.display_size)
        cycles = resample_cycles(
            payload, self.display_size, self.display_size
        ) + display_cycles(out)
        self.display(out)
        return ReceiverShare(cycles=cycles)


class ServerTransformVersion(Version):
    """Resample at the server; ship the display-sized frame."""

    name = "Image>Display"

    def __init__(
        self,
        *,
        display_size: int = DISPLAY_SIZE,
        display: Optional[DisplaySink] = None,
    ) -> None:
        self.display_size = display_size
        self.display = display or DisplaySink()
        self._sreg = _frame_registry()

    def sender_share(self, event: object) -> SenderShare:
        if not isinstance(event, ImageFrame):
            return SenderShare(payload=None, size=0.0, cycles=_DISPATCH_CYCLES)
        out = resample(event, self.display_size, self.display_size)
        cycles = _DISPATCH_CYCLES + resample_cycles(
            event, self.display_size, self.display_size
        )
        size = float(measure_size(out, self._sreg))
        return SenderShare(payload=out, size=size, cycles=cycles)

    def receiver_share(self, payload: object) -> ReceiverShare:
        self.display(payload)
        return ReceiverShare(cycles=display_cycles(payload))


def make_mp_image_version(
    *,
    display_size: int = DISPLAY_SIZE,
    display: Optional[DisplaySink] = None,
    sample_period: int = 1,
    adaptive: bool = True,
    backend: str = DEFAULT_BACKEND,
) -> MethodPartitioningVersion:
    """The Method Partitioning implementation for Table 2.

    Uses a diff trigger (data sizes changing signal a scenario switch) OR'd
    with a coarse rate trigger as a safety net.
    """
    partitioned, sink = build_partitioned_push(
        display_size=display_size, display=display, backend=backend
    )
    trigger = CompositeTrigger(
        DiffTrigger(threshold=0.2, min_interval=1), RateTrigger(period=50)
    )
    version = MethodPartitioningVersion(
        partitioned,
        trigger=trigger,
        sample_period=sample_period,
        ewma_alpha=0.6,
        adaptive=adaptive,
        # The data-size model's dominant measurement (the raw frame size)
        # is taken by the modulator itself, so a sender-located
        # Reconfiguration Unit adapts with minimal lag (paper section 2.5:
        # "the location of the reconfiguration unit is variable").
        location="sender",
    )
    version.display = sink
    return version
