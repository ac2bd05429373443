"""Independent reference for the three benchmark handlers.

Plain-Python re-implementations of what the sensor chain, the
arithmetic loop and the image push deliver, plus the digest that turns
one delivered result into one 64-bit number.  Nothing here imports
``repro.ir`` or ``repro.core``: the program under test and its oracle
share no code, so a bug in lowering, cutting, continuation capture or
the wire cannot cancel itself out.

Sinks keep digests, never results: a delivered 512x512 frame is 262 KB,
its digest 8 bytes.
"""

from __future__ import annotations

import zlib
from typing import List, Sequence

_MASK = (1 << 64) - 1

#: every Nth delivered frame is checksummed in full; the others by a
#: strided sample (a full CRC of 262 KB costs as much as the handler)
FULL_FRAME_CHECK_EVERY = 32
#: stride of the sampled pixel check (prime, so it walks every column)
_PIXEL_STRIDE = 4099


# -- handlers ---------------------------------------------------------------


def sensor_reference(samples: Sequence[float], n_stages: int = 20) -> List[float]:
    """The sensor chain: ``n_stages`` affine passes, then [min, max, mean]."""
    data = list(samples)
    for k in range(n_stages):
        g = 0.98 - 0.0005 * k
        b = 0.001 * (k + 1)
        data = [g * x + b for x in data]
    return [min(data), max(data), sum(data) / len(data)]


def arith_reference(x: int, n_iters: int) -> int:
    """The dispatch loop of ``BENCH_dispatch`` for ``n_iters`` iterations."""
    acc = 0
    i = 0
    while i < n_iters:
        a = i * 3 + x
        b = a % 7
        acc = acc + a - b
        i = i + 1
    return acc


def image_reference(
    width: int, height: int, pixels: bytes, display: int
) -> "tuple[int, int, bytes]":
    """Nearest-neighbour resample to ``display`` x ``display``."""
    if width == display and height == display:
        return width, height, pixels
    cols = [j * width // display for j in range(display)]
    rows = []
    for i in range(display):
        base = (i * height // display) * width
        row = pixels[base : base + width]
        rows.append(bytes(row[c] for c in cols))
    return display, display, b"".join(rows)


# -- digests ------------------------------------------------------------------


def digest_floats(values: Sequence[float]) -> int:
    """Digest of a float list (``hash`` of floats is not salted)."""
    return hash(tuple(values)) & _MASK


def digest_int(value: int) -> int:
    return hash(value) & _MASK


def digest_frame(width: int, height: int, pixels: bytes, full: bool) -> int:
    """Digest of a frame: dimensions plus a sampled or a full pixel CRC."""
    body = pixels if full else pixels[::_PIXEL_STRIDE] + pixels[-16:]
    crc = zlib.crc32(body)
    return ((width << 48) ^ (height << 32) ^ crc ^ (int(full) << 63)) & _MASK


def frame_check_is_full(ordinal: int) -> bool:
    """Whether the ``ordinal``-th delivery (0-based) gets the full CRC."""
    return ordinal % FULL_FRAME_CHECK_EVERY == 0
