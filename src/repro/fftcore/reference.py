"""Reference decimation-in-time (DIT) Cooley-Tukey FFT.

The implementation mirrors the hardware dataflow of Figure 3 in the paper:
an explicit bit-reversal permutation followed by ``log2(n)`` butterfly
stages.  The same stage structure is reused by the fixed-point simulator
(:mod:`repro.fftcore.fixed_point`) and the sparse dataflow engine
(:mod:`repro.sparse.dataflow`), so twiddle indexing is factored out here.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from repro.ntt.modmath import bit_reverse_indices


def stage_twiddles(n: int, stage: int, sign: int = -1) -> np.ndarray:
    """Twiddle factors of one DIT stage.

    At stage ``s`` (1-based) the network is partitioned into blocks of
    ``m = 2**s`` nodes; butterfly ``j`` inside a block uses
    ``W = exp(sign * 2*pi*i * j / m)`` for ``j = 0..m/2-1``.

    Args:
        n: transform length (power of two).
        stage: 1-based stage index, ``1 <= stage <= log2(n)``.
        sign: -1 for the forward transform, +1 for the inverse.

    Returns:
        complex128 array of length ``2**(stage-1)``.
    """
    if stage < 1 or (1 << stage) > n:
        raise ValueError(f"stage {stage} out of range for n={n}")
    m = 1 << stage
    j = np.arange(m // 2)
    return np.exp(sign * 2j * np.pi * j / m)


def twiddle_exponent(n: int, stage: int, j: int) -> int:
    """Exponent ``e`` such that the stage twiddle equals ``W_n^(sign*e)``.

    Butterfly ``j`` of stage ``s`` uses ``W_m^j`` with ``m = 2**s``, i.e.
    ``W_n^(j * n / m)``.  The *merging* optimization of Section IV-B sums
    these exponents across stages to collapse butterfly chains into a single
    multiplication; :class:`repro.fftcore.twiddle_quant.TwiddleRom` uses the
    summed exponent as its ROM address.
    """
    m = 1 << stage
    # repro-lint: disable=MOD001  scalar Python-int index math, exact
    return (j * (n // m)) % n


#: Complex elements per row block of :func:`dit`: a block (512 KiB) stays
#: cache resident through every stage.  2**15 was the fastest of
#: 2**11..2**17 on a 2-core x86 box (2**14 within 5%).
BLOCK_ELEMS = 1 << 15


@lru_cache(maxsize=64)
def dit_tables(n: int, sign: int = -1) -> Tuple[np.ndarray, Tuple[np.ndarray, ...]]:
    """Read-only bit-reversal permutation and per-stage
    :func:`stage_twiddles`, built once per ``(n, sign)``."""
    rev = bit_reverse_indices(n)
    twiddles = tuple(stage_twiddles(n, s, sign) for s in range(1, n.bit_length()))
    for table in (rev,) + twiddles:
        table.setflags(write=False)
    return rev, twiddles


def dit(
    x: np.ndarray,
    rev: np.ndarray,
    twiddles: Sequence[np.ndarray],
    quantizers: Optional[Sequence[Callable[[np.ndarray], None]]] = None,
) -> np.ndarray:
    """Radix-2 DIT transform over the last axis of complex ``(..., n)`` input.

    The bit-reversal gather makes one contiguous copy; each stage then
    computes ``hi = top * w`` into a scratch buffer and ``top = lo - hi``,
    ``lo = lo + hi`` in place -- the IEEE-754 operations of an
    out-of-place stage, so the result is bit-identical to one.  Optional
    ``quantizers[s]`` round the ``float64`` view of the rows in place
    after stage ``s`` (the fixed-point datapath).  Rows run through all
    stages in cache-resident blocks of about :data:`BLOCK_ELEMS`
    elements; butterflies never cross a row, so blocking changes only
    memory traffic.
    """
    n = rev.shape[0]
    rows = np.take(x.reshape(-1, n), rev, axis=1)
    step = max(1, BLOCK_ELEMS // n)
    scratch = np.empty(min(len(rows), step) * n // 2, dtype=np.complex128)
    for start in range(0, len(rows), step):
        flat = rows[start : start + step].reshape(-1)
        hi_flat = scratch[: flat.size // 2]
        for s, w in enumerate(twiddles):
            half = w.shape[0]
            pairs = flat.reshape(-1, 2 * half)
            lo, top = pairs[:, :half], pairs[:, half:]
            hi = hi_flat.reshape(-1, half)
            np.multiply(top, w, out=hi)
            np.subtract(lo, hi, out=top)
            np.add(lo, hi, out=lo)
            if quantizers is not None:
                quantizers[s](flat.view(np.float64))
    return rows.reshape(x.shape)


def fft_dit_batch(x, sign: int = -1) -> np.ndarray:
    """Iterative radix-2 DIT FFT over the last axis of a ``(..., n)`` array.

    complex128, no normalization.  ``sign=-1`` matches
    :func:`numpy.fft.fft`; ``sign=+1`` gives the unnormalized inverse
    (divide by ``n`` afterwards to invert).  Each row's output is
    independent of the batch it runs in.
    """
    x = np.asarray(x, dtype=np.complex128)
    n = x.shape[-1]
    if n & (n - 1):
        raise ValueError(f"length must be a power of two, got {n}")
    return dit(x, *dit_tables(n, sign))


def fft_dit(x, sign: int = -1) -> np.ndarray:
    """:func:`fft_dit_batch` of one length-n vector."""
    x = np.asarray(x, dtype=np.complex128)
    if x.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {x.shape}")
    return fft_dit_batch(x, sign)


def ifft_dit(x) -> np.ndarray:
    """Inverse of :func:`fft_dit` (normalized by ``1/n``)."""
    x = np.asarray(x, dtype=np.complex128)
    return fft_dit(x, sign=+1) / x.shape[0]


def fft_multiplication_count(n: int) -> int:
    """Complex multiplications in a classical dense n-point FFT.

    The paper counts ``n/2 * log2(n)`` (Example 4.1 includes trivial
    twiddles, matching how butterfly units are occupied in hardware).
    """
    if n < 2 or n & (n - 1):
        raise ValueError(f"length must be a power of two >= 2, got {n}")
    return (n // 2) * (n.bit_length() - 1)
