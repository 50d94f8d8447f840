"""Top-level FLASH configuration: HE parameters + datapath settings."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.fftcore.fixed_point import ApproxFftConfig
from repro.he.params import BfvParameters, cheetah_preset
from repro.hw.accelerator import FlashDesign
from repro.hw.calibration import FLASH_DEFAULT_DW, FLASH_DEFAULT_K
from repro.runtime import (
    BatchedFftBackend,
    BatchedNttBackend,
    PlanCache,
    SparseBatchedFftBackend,
)


@dataclass
class FlashConfig:
    """One coherent FLASH deployment configuration.

    Bundles the HE parameter set, the approximate-FFT datapath settings
    (per-stage widths + twiddle quantization, typically a DSE result), and
    the accelerator architecture parameters.

    Args:
        params: BFV parameters (ring degree, plaintext / ciphertext moduli).
        data_width: uniform datapath width when ``stage_widths`` is unset.
        twiddle_k: twiddle quantization level.
        stage_widths: optional per-stage widths from the DSE.
        design: accelerator architecture parameters; regenerated from the
            datapath settings when omitted.
    """

    params: BfvParameters = field(default_factory=cheetah_preset)
    data_width: int = FLASH_DEFAULT_DW
    twiddle_k: int = FLASH_DEFAULT_K
    twiddle_max_shift: int = 16
    stage_widths: Optional[List[int]] = None
    design: Optional[FlashDesign] = None

    def __post_init__(self):
        if self.design is None:
            self.design = FlashDesign(
                n=self.params.n,
                data_width=self.data_width,
                twiddle_k=self.twiddle_k,
                stage_widths=self.stage_widths,
            )

    @property
    def n(self) -> int:
        return self.params.n

    def weight_fft_config(self) -> ApproxFftConfig:
        """Fixed-point configuration of the weight-transform path."""
        widths = (
            self.stage_widths if self.stage_widths is not None else self.data_width
        )
        return ApproxFftConfig(
            n=self.n // 2,
            stage_widths=widths,
            twiddle_k=self.twiddle_k,
            twiddle_max_shift=self.twiddle_max_shift,
        )

    def exact_backend(self, cluster=None) -> BatchedNttBackend:
        """The exact NTT backend (baseline accelerators)."""
        return BatchedNttBackend(cluster=cluster)

    def flash_backend(
        self,
        cluster=None,
        plan_cache: Optional[PlanCache] = None,
    ) -> BatchedFftBackend:
        """The approximate polynomial-multiplication backend.

        ``plan_cache`` is the backend's shared transform-pipeline cache.
        """
        return BatchedFftBackend(
            weight_config=self.weight_fft_config(),
            cluster=cluster,
            plan_cache=plan_cache,
        )

    def sparse_backend(
        self,
        pattern: Optional[List[int]] = None,
        cluster=None,
        plan_cache: Optional[PlanCache] = None,
    ) -> SparseBatchedFftBackend:
        """Approximate backend running compiled sparse weight plans.

        Per-weight structural patterns are inferred from each weight's
        support unless a fixed layer ``pattern`` is given; ``plan_cache``
        is as on :meth:`flash_backend`.
        """
        return SparseBatchedFftBackend(
            weight_config=self.weight_fft_config(),
            pattern=pattern,
            cluster=cluster,
            plan_cache=plan_cache,
        )

    def describe(self) -> str:
        widths = self.stage_widths or [self.data_width]
        return (
            f"FlashConfig({self.params.describe()}, "
            f"dw={min(widths)}..{max(widths)}, k={self.twiddle_k}, "
            f"{self.design.approx_pes}x{self.design.bus_per_pe} approx BUs)"
        )
