"""Fault injection, resilient transport, and graceful degradation.

The robustness layer of the reproduction: everything that keeps a private
inference *correct or loudly failed* when the world misbehaves.

* :mod:`repro.faults.channel` -- CRC32-framed transport with a seedable
  adversarial channel (drops, bit-flips, truncations, duplicates, latency).
* :mod:`repro.faults.session` -- bounded retry with exponential backoff +
  jitter, per-delivery timeouts and dead-letter records.
* :mod:`repro.faults.guard` -- noise-budget watchdog degrading approximate
  FFT layers to the exact NTT path before they silently corrupt.
* :mod:`repro.faults.chaos` -- randomized fault campaign behind
  ``python -m repro chaos``.
"""

from repro.faults.channel import (
    Channel,
    ChecksumError,
    DeadLetter,
    FaultProfile,
    FaultyChannel,
    PerfectChannel,
    TransportError,
    TransportStats,
    decode_frame,
    encode_frame,
)
from repro.faults.chaos import ChaosIteration, ChaosReport, run_campaign
from repro.faults.guard import BudgetGuard, DegradationEvent
from repro.faults.session import ResilientSession, RetryPolicy
from repro.he.noise import NoiseBudgetError

__all__ = [
    "BudgetGuard",
    "Channel",
    "ChaosIteration",
    "ChaosReport",
    "ChecksumError",
    "DeadLetter",
    "DegradationEvent",
    "FaultProfile",
    "FaultyChannel",
    "NoiseBudgetError",
    "PerfectChannel",
    "ResilientSession",
    "RetryPolicy",
    "TransportError",
    "TransportStats",
    "decode_frame",
    "encode_frame",
    "run_campaign",
]
