"""End-to-end approximate negacyclic multiplication (the FLASH PE pipeline).

Mirrors the architecture split of Figure 6:

* the **weight transform** runs on approximate fixed-point butterfly units
  (per-stage bit-widths + quantized twiddles -> :class:`FixedPointFft`);
* the **activation/ciphertext transform**, **point-wise multiplication**
  and **inverse transform** run on floating-point units (modeled as
  float64, which over-provisions the paper's FP32-class units and is
  therefore conservative about where errors come from: the weight path).

Both paths share the folded N/2-point negacyclic dataflow of
:class:`repro.fftcore.negacyclic.NegacyclicFft`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.fftcore.fixed_point import ApproxFftConfig, FixedPointFft, FxpFormat
from repro.fftcore.negacyclic import (
    NegacyclicFft,
    one_row,
    round_to_integers,
)


def _next_pow2(x: float) -> float:
    """Smallest power of two >= x (hardware normalization is a shift)."""
    if x <= 0:
        return 1.0
    return 2.0 ** int(np.ceil(np.log2(x)))


def _next_pow2_rows(x: np.ndarray) -> np.ndarray:
    """Vectorized :func:`_next_pow2` for positive per-row maxima (>= 1)."""
    return 2.0 ** np.ceil(np.log2(x))


def _row_part_max(folded: np.ndarray) -> np.ndarray:
    """Per-row ``max(|real|, |imag|, 1)`` of a ``(..., half)`` complex batch."""
    return np.maximum(
        np.maximum(
            np.max(np.abs(folded.real), axis=-1),
            np.max(np.abs(folded.imag), axis=-1),
        ),
        1.0,
    )


@dataclass
class ApproxSpectrum:
    """A weight spectrum with its normalization bookkeeping."""

    values: np.ndarray  # complex, unscaled spectrum estimate
    scale: float  # normalization applied to the integer input


class ApproxNegacyclic:
    """Approximate negacyclic polynomial multiplier of length ``n``.

    Args:
        n: polynomial length (power of two >= 4); the FFT core size is n/2.
        weight_config: fixed-point configuration of the weight-transform
            butterflies.  Its ``n`` must equal ``n // 2``.  ``None`` runs
            the weight path in float64 as well (the paper's "FFT (FP)"
            ablation arm).
    """

    def __init__(
        self,
        n: int,
        weight_config: Optional[ApproxFftConfig] = None,
        activation_config: Optional[ApproxFftConfig] = None,
        inverse_config: Optional[ApproxFftConfig] = None,
    ):
        self.n = n
        self.base = NegacyclicFft(n)
        for name, cfg in (
            ("weight", weight_config),
            ("activation", activation_config),
            ("inverse", inverse_config),
        ):
            if cfg is not None and cfg.n != n // 2:
                raise ValueError(
                    f"{name} core must be {n // 2}-point, got {cfg.n}"
                )
        self.weight_config = weight_config
        self.activation_config = activation_config
        self.inverse_config = inverse_config
        self._weight_fft = (
            FixedPointFft(weight_config, sign=+1)
            if weight_config is not None
            else None
        )
        # The FLASH architecture keeps these two in floating point; the
        # fixed-point options exist for the ablation that justifies it
        # (ciphertext-path errors scale with the ciphertext magnitude).
        self._activation_fft = (
            FixedPointFft(activation_config, sign=+1)
            if activation_config is not None
            else None
        )
        self._inverse_fft = (
            FixedPointFft(inverse_config, sign=-1)
            if inverse_config is not None
            else None
        )

    def weight_forward(self, weight) -> ApproxSpectrum:
        """:meth:`weight_forward_batch` of one integer weight polynomial."""
        spec = self.weight_forward_batch(one_row(weight, self.n)[None])
        return ApproxSpectrum(
            values=spec.values[0], scale=float(np.ravel(spec.scale)[0])
        )

    def activation_forward(self, activation) -> np.ndarray:
        """:meth:`activation_forward_batch` of one polynomial."""
        row = one_row(activation, self.n)[None]
        return self.activation_forward_batch(row)[0]

    def multiply_spectra(self, weight_spec: ApproxSpectrum, act_spec) -> np.ndarray:
        """:meth:`multiply_spectra_batch` of one spectrum pair."""
        act = one_row(act_spec, self.n // 2)[None]
        return self.multiply_spectra_batch(weight_spec.values, act)[0]

    # ------------------------------------------------------------------
    # Batched transforms (the single-row methods above are batches of one)
    # ------------------------------------------------------------------
    #
    # Normalization scales are computed per row and every transform stage
    # is element-wise, so each row's result is independent of its batch.

    def weight_forward_batch(self, weights) -> ApproxSpectrum:
        """Transform a ``(B, n)`` integer weight stack on the approximate path.

        Each folded row is normalized by a power of two so its real and
        imaginary parts fit the fixed-point range ``[-1, 1)``; the folding
        twist rotation can push parts up to ``sqrt(2) *`` the coefficient
        magnitude, hence the guard factor.

        Returns an :class:`ApproxSpectrum` whose ``values`` are ``(B, n/2)``
        and whose ``scale`` is the ``(B,)`` per-row normalization vector
        (the scalar ``1.0`` on the float64 weight path).
        """
        weights = np.atleast_2d(np.asarray(weights, dtype=np.float64))
        folded = self.base.fold_batch(weights)
        if self._weight_fft is None:
            from repro.fftcore.reference import fft_dit_batch

            return ApproxSpectrum(
                values=fft_dit_batch(folded, sign=+1), scale=1.0
            )
        scale = _next_pow2_rows(_row_part_max(folded) * (1.0 + 2.0 ** -20))
        spectrum = self._weight_fft.batch(folded / scale[:, None])
        unscaled = spectrum / self._weight_fft.output_scale * scale[:, None]
        return ApproxSpectrum(values=unscaled, scale=scale)

    def activation_forward_batch(self, activations) -> np.ndarray:
        """Forward transforms of a ``(B, n)`` activation/ciphertext stack.

        Runs on FP units (exact float64) unless an ``activation_config``
        was supplied (ablation mode).
        """
        activations = np.atleast_2d(np.asarray(activations, dtype=np.float64))
        if self._activation_fft is None:
            return self.base.forward_batch(activations)
        folded = self.base.fold_batch(activations)
        scale = _next_pow2_rows(_row_part_max(folded) * (1.0 + 2.0 ** -20))
        spectrum = self._activation_fft.batch(folded / scale[:, None])
        return spectrum / self._activation_fft.output_scale * scale[:, None]

    def multiply_spectra_batch(self, weight_values, act_spec) -> np.ndarray:
        """Point-wise multiply and inverse-transform; ``(B, n)`` float coeffs.

        The inverse runs on FP units unless an ``inverse_config`` was
        supplied (ablation mode; see ``tests/test_path_asymmetry.py`` for
        the measured per-path sensitivities).

        Args:
            weight_values: unscaled weight spectra, ``(B, n/2)`` or
                ``(n/2,)`` (one weight shared across the batch).
            act_spec: activation spectra, ``(B, n/2)``.
        """
        product = np.asarray(weight_values) * np.asarray(act_spec)
        product = np.atleast_2d(product)
        if self._inverse_fft is None:
            return self.base.inverse_batch(product)
        scale = _next_pow2_rows(_row_part_max(product) * (1.0 + 2.0 ** -20))
        half = self.n // 2
        core = self._inverse_fft.batch(product / scale[:, None])
        core = core / self._inverse_fft.output_scale * scale[:, None]
        c = core / half * self.base._unfold_twist
        out = np.empty(product.shape[:-1] + (self.n,), dtype=np.float64)
        out[..., :half] = c.real
        out[..., half:] = c.imag
        return out

    def multiply_batch(self, weights, activations) -> np.ndarray:
        """Batched full pipeline; returns unrounded ``(B, n)`` float coeffs.

        ``weights`` may be ``(n,)`` (shared across the batch) or ``(B, n)``.
        Callers round and reduce (see
        :func:`repro.fftcore.negacyclic.round_to_integers`).
        """
        w_spec = self.weight_forward_batch(weights)
        a_spec = self.activation_forward_batch(activations)
        return self.multiply_spectra_batch(w_spec.values, a_spec)

    @property
    def plan_bytes(self) -> int:
        """Memory held by this pipeline's precomputed tables."""
        total = self.base.plan_bytes
        for fft in (self._weight_fft, self._activation_fft, self._inverse_fft):
            if fft is not None:
                total += fft.plan_bytes
        return total

    def multiply(self, weight, activation, modulus: int = 0) -> np.ndarray:
        """Full pipeline: approximate weight FFT x exact activation FFT.

        Args:
            weight: integer weight polynomial (length n).
            activation: integer activation/ciphertext polynomial (length n),
                given as signed (centered) values.
            modulus: optional modulus for the rounded integer result.

        Returns:
            rounded integer coefficients (see
            :func:`repro.fftcore.negacyclic.round_to_integers`).
        """
        w_spec = self.weight_forward(weight)
        a_spec = self.activation_forward(activation)
        product = self.multiply_spectra(w_spec, a_spec)
        return round_to_integers(product, modulus)


def weight_spectrum_error(
    pipeline: ApproxNegacyclic, weight
) -> dict:
    """Spectrum-domain error of the approximate weight transform.

    Returns max/rms absolute error against the float64 folded transform,
    plus the error relative to the RMS spectrum magnitude.
    """
    approx = pipeline.weight_forward(weight).values
    exact = pipeline.base.forward(np.asarray(weight, dtype=np.float64))
    err = approx - exact
    signal = float(np.sqrt(np.mean(np.abs(exact) ** 2)))
    rms = float(np.sqrt(np.mean(np.abs(err) ** 2)))
    return {
        "max_abs": float(np.max(np.abs(err))),
        "rms": rms,
        "rel_rms": rms / signal if signal else 0.0,
    }


def quantize_weights_for_hardware(weight, bits: int) -> np.ndarray:
    """Clip/round integer weights into a ``bits``-bit signed range.

    Utility for experiments feeding W4A4-style quantized kernels into the
    pipeline; values are assumed already near range (re-quantization model).
    """
    weight = np.asarray(weight)
    lo, hi = -(1 << (bits - 1)), (1 << (bits - 1)) - 1
    return np.clip(np.rint(weight), lo, hi).astype(np.int64)


__all__ = [
    "ApproxNegacyclic",
    "ApproxSpectrum",
    "ApproxFftConfig",
    "FixedPointFft",
    "FxpFormat",
    "quantize_weights_for_hardware",
    "weight_spectrum_error",
]
