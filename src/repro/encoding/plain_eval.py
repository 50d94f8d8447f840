"""Evaluate encoded convolutions in the clear (no encryption).

Bridges the encoders to polynomial arithmetic so tests, benchmarks and the
sparsity analyses can check end-to-end correctness of the coefficient
encoding and measure transform workloads without paying for BFV.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.encoding.conv_encoding import (
    Conv2dEncoder,
    ConvShape,
    iter_conv_bands,
    pad_input,
)
from repro.ntt import negacyclic_convolution_naive

PolyMul = Callable[[np.ndarray, np.ndarray], np.ndarray]


def _default_polymul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = negacyclic_convolution_naive(a, b)
    return np.array([int(v) for v in out], dtype=np.int64)


TiledPolyMul = Callable[
    [Conv2dEncoder, int, np.ndarray, np.ndarray], np.ndarray
]


def conv2d_via_polynomials(
    x: np.ndarray,
    w: np.ndarray,
    shape: ConvShape,
    n: int,
    polymul: Optional[PolyMul] = None,
    tiled_polymul: Optional[TiledPolyMul] = None,
) -> np.ndarray:
    """Compute ``conv2d(x, w)`` through the coefficient encoding.

    Handles stride via phase decomposition.  The polynomial multiplier is
    pluggable so the same path exercises exact NTT products, float FFT
    products or the approximate FLASH pipeline.

    Args:
        x: ``C x H x W`` integer input.
        w: ``M x C x kh x kw`` integer kernel.
        shape: convolution shape (stride/padding included).
        n: polynomial degree.
        polymul: negacyclic product of two length-n integer vectors;
            defaults to the exact schoolbook reference.
        tiled_polymul: alternative multiplier receiving the band encoder
            and tile index as well, for engines that need structural
            metadata (the sparse weight patterns); overrides ``polymul``.

    Returns:
        ``M x out_h x out_w`` int64 output.
    """
    polymul = polymul or _default_polymul
    total = np.zeros(
        (shape.out_channels, shape.out_height, shape.out_width), dtype=np.int64
    )
    for band in iter_conv_bands(shape, n, np.asarray(x), np.asarray(w)):
        encoder = Conv2dEncoder(band.shape, n)
        in_polys = encoder.encode_input(band.inputs)
        products: Dict[Tuple[int, int], np.ndarray] = {}
        for (tile, m), w_poly in encoder.encode_weights(band.weights).items():
            if tiled_polymul is not None:
                products[(tile, m)] = tiled_polymul(
                    encoder, tile, in_polys[tile], w_poly
                )
            else:
                products[(tile, m)] = polymul(in_polys[tile], w_poly)
        total[band.out] += band.crop(encoder.decode_output(products))
    return total


def conv2d_direct(
    x: np.ndarray, w: np.ndarray, stride: int = 1, padding: int = 0
) -> np.ndarray:
    """Reference dense convolution (cross-correlation, integer arithmetic).

    One int64 contraction over a strided window view; integer sums are
    exact (and wrap identically in any order), so the result does not
    depend on the summation order.
    """
    x = np.asarray(x)
    w = np.asarray(w)
    c = x.shape[0]
    m, c2, kh, kw = w.shape
    if c != c2:
        raise ValueError(f"channel mismatch: {c} vs {c2}")
    xp = pad_input(x, padding).astype(np.int64)
    windows = sliding_window_view(xp, (kh, kw), axis=(1, 2))
    windows = windows[:, ::stride, ::stride]
    return np.einsum("chwuv,mcuv->mhw", windows, w.astype(np.int64))
