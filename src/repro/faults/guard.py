"""Graceful approx->exact degradation when the noise budget runs out.

Section III-A's correctness argument holds only while total noise stays
below ``q/(2t)``.  The approximate-FFT path silently corrupts convolutions
once its per-layer error crosses that ceiling -- the classifier keeps
producing numbers, just wrong ones.  :class:`BudgetGuard` closes the gap
with two detectors:

* **predicted** -- :func:`repro.he.noise.conv_budget_margin_bits` bounds a
  layer's noise growth *before* any cryptography runs; too little margin
  means the approximate path cannot be trusted for this layer;
* **observed** -- the protocol's reconstructed-vs-expected error after a
  layer; any error beyond the tolerance means the budget was in fact
  exceeded (unmodeled FFT error, e.g. an aggressive DSE configuration).

Either trigger applies the configured policy: ``"fallback"`` reruns the
layer on the exact NTT backend (bit-exact result, degradation recorded),
``"raise"`` aborts with :class:`repro.he.noise.NoiseBudgetError`, and
``"warn"`` emits a warning but keeps the approximate result.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import List

from repro.he.noise import NoiseBudgetError, conv_budget_margin_bits
from repro.he.params import BfvParameters


@dataclass
class DegradationEvent:
    """One guard trigger: which layer degraded, why, and what was done."""

    layer: str
    reason: str  # "predicted" | "observed"
    action: str  # "fallback" | "raise" | "warn"
    margin_bits: float
    observed_error: int = 0

    def describe(self) -> str:
        detail = (
            f"margin {self.margin_bits:+.2f} bits"
            if self.reason == "predicted"
            else f"observed error {self.observed_error}"
        )
        return f"{self.layer}: {self.reason} exhaustion ({detail}) -> {self.action}"


@dataclass
class BudgetGuard:
    """Noise-budget watchdog for the approximate HConv path.

    Args:
        params: BFV parameters the margins are computed against.
        policy: ``"fallback"`` (rerun the layer exactly), ``"raise"``
            (abort with :class:`NoiseBudgetError`) or ``"warn"`` (record
            and continue with the approximate result).
        min_margin_bits: smallest predicted margin accepted on the
            approximate path; layers below it degrade pre-flight.
        error_tolerance: largest observed reconstruction error treated as
            benign (0 = any plaintext error degrades).
    """

    POLICIES = ("fallback", "raise", "warn")

    params: BfvParameters
    policy: str = "fallback"
    min_margin_bits: float = 1.0
    error_tolerance: int = 0
    events: List[DegradationEvent] = field(default_factory=list)

    def __post_init__(self):
        if self.policy not in self.POLICIES:
            raise ValueError(
                f"policy must be one of {self.POLICIES}, got {self.policy!r}"
            )
        if self.error_tolerance < 0:
            raise ValueError("error_tolerance must be >= 0")

    @property
    def degraded_layers(self) -> List[str]:
        """Names of layers that fell back to the exact NTT path."""
        return [e.layer for e in self.events if e.action == "fallback"]

    def fallback_backend(self):
        """The exact backend degraded layers rerun on."""
        from repro.runtime.engine import BatchedNttBackend

        return BatchedNttBackend()

    # -- detectors -------------------------------------------------------

    def preflight(
        self, weights, num_accumulated: int = 1, layer: str = "layer"
    ) -> bool:
        """Pre-flight check; ``True`` means: run this layer exactly.

        Args:
            weights: the layer's integer weight tensor (out channels first).
            num_accumulated: upper bound on ciphertext partial sums per
                output (channel tiling).
            layer: label recorded in the degradation event.
        """
        margin = conv_budget_margin_bits(self.params, weights, num_accumulated)
        if margin >= self.min_margin_bits:
            return False
        return self._trigger(layer, "predicted", margin)

    def observe(self, max_error: int, layer: str = "layer") -> bool:
        """Post-run check; ``True`` means: rerun this layer exactly.

        Args:
            max_error: worst reconstructed-vs-expected deviation the
                protocol measured for this layer.
            layer: label recorded in the degradation event.
        """
        if max_error <= self.error_tolerance:
            return False
        return self._trigger(layer, "observed", 0.0, observed_error=max_error)

    def _trigger(
        self, layer: str, reason: str, margin: float, observed_error: int = 0
    ) -> bool:
        event = DegradationEvent(
            layer=layer,
            reason=reason,
            action=self.policy,
            margin_bits=margin,
            observed_error=observed_error,
        )
        self.events.append(event)
        if self.policy == "raise":
            raise NoiseBudgetError(event.describe())
        if self.policy == "warn":
            warnings.warn(event.describe(), RuntimeWarning, stacklevel=3)
            return False
        return True

    def describe(self) -> str:
        if not self.events:
            return "budget guard: no degradations"
        lines = [f"budget guard ({self.policy}): {len(self.events)} event(s)"]
        lines.extend(f"  {e.describe()}" for e in self.events)
        return "\n".join(lines)
