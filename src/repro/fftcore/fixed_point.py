"""Fixed-point approximate FFT simulator (Section IV-C).

Bit-true model of the FLASH approximate butterfly units: data flowing
through the FFT is fixed-point with a *per-stage* bit-width ``dw_i`` (the
design-space variable of the DSE), and twiddle factors are quantized to
``k`` signed power-of-two terms (:mod:`repro.fftcore.twiddle_quant`).

Scaling follows the standard hardware convention of halving butterfly
outputs every stage, so values stay in ``[-1, 1)`` and the quantization
grid is simply ``2**-(dw-1)``; the known total scale ``2**-stages`` is
compensated when spectra are consumed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from repro.fftcore.reference import dit, dit_tables
from repro.fftcore.twiddle_quant import TwiddleRom


@dataclass(frozen=True)
class FxpFormat:
    """Signed fixed-point format: 1 sign bit, rest fraction (range [-1, 1))."""

    total_bits: int

    def __post_init__(self):
        if self.total_bits < 2:
            raise ValueError("fixed-point format needs at least 2 bits")

    @property
    def frac_bits(self) -> int:
        return self.total_bits - 1

    @property
    def ulp(self) -> float:
        return 2.0 ** -self.frac_bits

    @property
    def max_value(self) -> float:
        return 1.0 - self.ulp

    def quantizer(self, prescale: float = 1.0) -> Callable[[np.ndarray], None]:
        """In-place ``f <- clip(rint(f * prescale / ulp)) * ulp`` on float64
        arrays; ``prescale`` is a power of two, so the scaling is exact."""
        up, limit, ulp = prescale * 2.0**self.frac_bits, 2.0**self.frac_bits, self.ulp

        def quantize(f: np.ndarray) -> None:
            f *= up
            np.rint(f, out=f)
            np.clip(f, -limit, limit - 1.0, out=f)
            f *= ulp

        return quantize

    def quantize(self, x: np.ndarray) -> np.ndarray:
        """Round-to-nearest onto the grid, saturating at the format range."""
        out = np.array(x, dtype=np.float64)
        self.quantizer()(out)
        return out

    def quantize_complex(self, x: np.ndarray) -> np.ndarray:
        """:meth:`quantize` of both parts, on the float64 view of a copy."""
        out = np.array(x, dtype=np.complex128, order="C")
        self.quantizer()(out.reshape(-1).view(np.float64))
        return out


@dataclass
class ApproxFftConfig:
    """Configuration of one approximate FFT core.

    Args:
        n: core transform length (power of two).  For the folded negacyclic
            pipeline this is N/2 where N is the polynomial degree.
        stage_widths: data bit-width after each of the ``log2(n)`` stages.
            A single int is broadcast to all stages.
        twiddle_k: quantization level of the twiddle factors (signed
            power-of-two terms per real/imaginary part); 0 disables twiddle
            quantization (exact FP twiddles).
        twiddle_max_shift: fraction-bit budget of the twiddle ROM.
        input_width: bit-width of the (normalized) input samples.
    """

    n: int
    stage_widths: Sequence[int] = 27
    twiddle_k: int = 0
    twiddle_max_shift: int = 16
    input_width: Optional[int] = None
    _stages: int = field(init=False, repr=False, default=0)

    def __post_init__(self):
        if self.n < 2 or self.n & (self.n - 1):
            raise ValueError(f"n must be a power of two >= 2, got {self.n}")
        self._stages = self.n.bit_length() - 1
        if isinstance(self.stage_widths, (int, np.integer)):
            self.stage_widths = [int(self.stage_widths)] * self._stages
        else:
            self.stage_widths = [int(w) for w in self.stage_widths]
        if len(self.stage_widths) != self._stages:
            raise ValueError(
                f"need {self._stages} stage widths, got {len(self.stage_widths)}"
            )
        if any(w < 2 for w in self.stage_widths):
            raise ValueError("stage widths must be >= 2 bits")

    @property
    def stages(self) -> int:
        return self._stages

    def describe(self) -> str:
        tw = f"k={self.twiddle_k}" if self.twiddle_k else "exact twiddles"
        return f"ApproxFft(n={self.n}, dw={list(self.stage_widths)}, {tw})"


class FixedPointFft:
    """Bit-true DIT FFT with per-stage quantization and scaled butterflies.

    The transform computes ``FFT(x) * 2**-stages`` (sign per ``sign``
    argument); :attr:`output_scale` records the factor to divide out.
    Every stage computes ``(lo +- w * hi) / 2`` and rounds both parts onto
    that stage's ``dw``-bit grid; the halving is folded into the
    quantizer's power-of-two pre-scale (exact, see
    ``docs/algorithms.md``).

    Args:
        config: the :class:`ApproxFftConfig`.
        sign: twiddle sign, -1 (forward, numpy convention) or +1.
    """

    def __init__(self, config: ApproxFftConfig, sign: int = -1):
        if sign not in (-1, 1):
            raise ValueError("sign must be -1 or +1")
        self.config = config
        self.sign = sign
        n = config.n
        self._rev, exact_tw = dit_tables(n, sign)
        self._rom = (
            TwiddleRom(n, config.twiddle_k, config.twiddle_max_shift, sign)
            if config.twiddle_k
            else None
        )
        self._stage_tw = (
            [self._rom.stage_values(s) for s in range(1, config.stages + 1)]
            if self._rom is not None
            else exact_tw
        )
        self._input_fmt = (
            FxpFormat(config.input_width) if config.input_width is not None else None
        )
        self._stage_q = [
            FxpFormat(dw).quantizer(prescale=0.5) for dw in config.stage_widths
        ]

    @property
    def output_scale(self) -> float:
        """Factor by which outputs are scaled relative to the exact DFT."""
        return 2.0 ** -self.config.stages

    @property
    def rom(self) -> Optional[TwiddleRom]:
        return self._rom

    def __call__(self, x) -> np.ndarray:
        """Run the fixed-point transform on complex input in ``[-1, 1)``."""
        x = np.asarray(x, dtype=np.complex128)
        if x.shape != (self.config.n,):
            raise ValueError(f"expected shape ({self.config.n},), got {x.shape}")
        return self.batch(x)

    def batch(self, x) -> np.ndarray:
        """Bit-true transform over the last axis of ``(..., n)``.

        Quantization and the scaled butterflies are element-wise, so each
        row's output is independent of the batch it runs in.
        """
        n = self.config.n
        x = np.asarray(x, dtype=np.complex128)
        if x.ndim < 1 or x.shape[-1] != n:
            raise ValueError(
                f"batch must have last axis {n}, got shape {x.shape}"
            )
        if self._input_fmt is not None:
            x = self._input_fmt.quantize_complex(x)
        return dit(x, self._rev, self._stage_tw, self._stage_q)

    @property
    def plan_bytes(self) -> int:
        """Memory held by the precomputed stage twiddle tables."""
        return self._rev.nbytes + sum(t.nbytes for t in self._stage_tw)

    def reference(self, x) -> np.ndarray:
        """Exact (float64) transform with the same scaling, for error studies."""
        from repro.fftcore.reference import fft_dit

        x = np.asarray(x, dtype=np.complex128)
        return fft_dit(x, self.sign) * self.output_scale


def transform_error(fxp: FixedPointFft, x) -> dict:
    """Error statistics of one fixed-point transform vs the exact result.

    Errors are reported relative to the *unscaled* spectrum (i.e. divided by
    :attr:`FixedPointFft.output_scale`), which is the domain pointwise
    products live in.

    Returns:
        dict with ``max_abs``, ``rms`` and ``rel_rms`` (RMS error over RMS
        signal) keys.
    """
    approx = fxp(x) / fxp.output_scale
    exact = fxp.reference(x) / fxp.output_scale
    err = approx - exact
    signal_rms = float(np.sqrt(np.mean(np.abs(exact) ** 2)))
    rms = float(np.sqrt(np.mean(np.abs(err) ** 2)))
    return {
        "max_abs": float(np.max(np.abs(err))),
        "rms": rms,
        "rel_rms": rms / signal_rms if signal_rms else 0.0,
    }
