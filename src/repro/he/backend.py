"""Pluggable polynomial-multiplication backends for plaintext-ciphertext
products.

The backend is where FLASH differs from NTT-based accelerators: the same
BFV/Cheetah protocol runs either on the exact negacyclic NTT (F1, CHAM,
HEAX, ...) or on the approximate folded FFT with fixed-point weight
transforms (FLASH).  Both consume ciphertext-ring polynomials and signed
small-coefficient weight vectors.

Every backend is a batched backend: :meth:`PolyMulBackend.multiply_many`
is the one product entry point, and a single product is a batch of one.
The implementations live in :mod:`repro.runtime.engine`
(:class:`~repro.runtime.engine.BatchedNttBackend`,
:class:`~repro.runtime.engine.BatchedFftBackend` and the sparse
:class:`~repro.runtime.engine.SparseBatchedFftBackend`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

import numpy as np

from repro.fftcore.fixed_point import ApproxFftConfig
from repro.he.poly import RingPoly

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.engine import BatchedFftBackend, RuntimeStats


class PolyMulBackend:
    """Interface: multiply ring polynomials by signed integer weights.

    Every backend sets ``last_stats`` in ``__init__`` and replaces it on
    each ``multiply_many`` call: the call's weight-transform mult counts
    and, on a cluster, its supervision counters.
    """

    last_stats: RuntimeStats

    def multiply_many(
        self, polys: List[RingPoly], weights_list: List[np.ndarray]
    ) -> List[RingPoly]:
        """One product per ``(poly, weights)`` pair, in order."""
        raise NotImplementedError


def fp_fft_backend() -> "BatchedFftBackend":
    """The double-precision FFT backend (no fixed-point approximation)."""
    from repro.runtime.engine import BatchedFftBackend

    return BatchedFftBackend(weight_config=None)


def flash_backend(
    n: int,
    stage_widths=27,
    twiddle_k: int = 5,
    twiddle_max_shift: int = 16,
) -> "BatchedFftBackend":
    """FLASH's default approximate backend for ring dimension ``n``.

    Defaults follow the paper: 27-bit fixed-point datapath (Figure 5(b))
    and twiddle quantization level k=5 (Table II / Section IV-C1).
    """
    from repro.runtime.engine import BatchedFftBackend

    cfg = ApproxFftConfig(
        n=n // 2,
        stage_widths=stage_widths,
        twiddle_k=twiddle_k,
        twiddle_max_shift=twiddle_max_shift,
    )
    return BatchedFftBackend(weight_config=cfg)
