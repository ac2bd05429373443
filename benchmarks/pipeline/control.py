"""The control block two benchmark processes share.

A 64-byte file under ``work/``, memory-mapped by both processes:

====== ==== ==========================================================
offset type field
====== ==== ==========================================================
0      u64  deliveries so far, summed over the child's sinks
8      u64  request number (parent writes)
16     u64  last request the child acted on (child writes)
24     u64  mode bits the parent asks for (``MODE_*``)
32     f64  child ``time.process_time()``, refreshed every few
            deliveries and at every request
====== ==== ==========================================================

The delivery counter is what bounds the closed loop (published −
delivered ≤ W).  A request is how the parent takes a CPU mark or
switches the child's mode (span wrappers on, rate shifts on) between
phases: it bumps the request number and waits for the child to echo it.

One writer per field and no lock: every access is one aligned 8-byte
load or store through a ``memoryview`` cast to the native type.
``struct.pack_into("<Q")`` is not — it stores byte by byte, and a
reader in the other process saw a counter 65 536 short at a carry
(30 000 torn reads in 5 million when raced).
"""

from __future__ import annotations

import mmap
import time
from pathlib import Path

SIZE = 64

OFF_DELIVERED = 0
OFF_REQUEST = 8
OFF_ACK = 16
OFF_MODE = 24
OFF_CPU = 32

#: child installs its span wrappers while set
MODE_TRACE = 1
#: child toggles the receiver's rate_scale every SHIFT_EVERY messages
MODE_SHIFT = 2


class ControlBlock:
    """One process's view of the shared block."""

    def __init__(self, path: Path, create: bool = False) -> None:
        self.path = Path(path)
        if create:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self.path.write_bytes(bytes(SIZE))
        self._file = open(self.path, "r+b")
        self._map = mmap.mmap(self._file.fileno(), SIZE)
        self._u64 = memoryview(self._map).cast("Q")
        self._f64 = memoryview(self._map).cast("d")

    def close(self) -> None:
        self._u64.release()
        self._f64.release()
        self._map.close()
        self._file.close()

    def read_u64(self, offset: int) -> int:
        return self._u64[offset >> 3]

    def write_u64(self, offset: int, value: int) -> None:
        self._u64[offset >> 3] = value

    def read_f64(self, offset: int) -> float:
        return self._f64[offset >> 3]

    def write_f64(self, offset: int, value: float) -> None:
        self._f64[offset >> 3] = value

    # -- parent side -----------------------------------------------------------

    def delivered(self) -> int:
        return self._u64[OFF_DELIVERED >> 3]

    def request(self, mode: int, timeout: float = 5.0) -> float:
        """Set *mode*, wait for the child to act; returns its CPU seconds."""
        number = self.read_u64(OFF_REQUEST) + 1
        self.write_u64(OFF_MODE, mode)
        self.write_u64(OFF_REQUEST, number)
        deadline = time.monotonic() + timeout
        while self.read_u64(OFF_ACK) != number:
            if time.monotonic() > deadline:
                raise TimeoutError(
                    "receiver process did not answer a control request"
                )
            time.sleep(0.002)
        return self.read_f64(OFF_CPU)
