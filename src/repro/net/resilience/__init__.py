"""Resilience control plane: circuit breakers and bulkheads.

The actuator layer on top of the fleet telemetry — per-peer circuit
breakers and bulkheads (:mod:`.breaker`) that the broker uses to
retract/re-split live partitions.  No receiver coordinates with
another: each subscription's receiver owns that subscription's plan,
and the broker applies a PLAN to the subscriber whose connection
carried it.  The chaos suite driving the plane lives in
:mod:`repro.tools.chaos`.
"""

from .breaker import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    BREAKER_STATE_CODES,
    BreakerConfig,
    Bulkhead,
    CircuitBreaker,
)

__all__ = [
    "BREAKER_CLOSED",
    "BREAKER_HALF_OPEN",
    "BREAKER_OPEN",
    "BREAKER_STATE_CODES",
    "BreakerConfig",
    "Bulkhead",
    "CircuitBreaker",
]
