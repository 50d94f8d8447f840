"""Residue number system (RNS) basis over NTT-friendly primes.

The mulmod kernel in :mod:`repro.ntt.modmath` supports moduli up to 40 bits;
ciphertext moduli larger than that (e.g. the ~60-bit q used by our default
BFV parameters) are represented as a product of coprime NTT primes.  All
ring operations act component-wise per prime; only decryption and the FFT
lift need the CRT reconstruction to full integers.

Reconstruction is Garner's mixed-radix recombination: every partial value
stays below ``q``, so the uint64 path (:meth:`RnsBasis.centered_int64`) is
exact whenever ``q < 2**62`` -- every preset.  :meth:`RnsBasis.from_rns`
and :meth:`RnsBasis.centered` run the same recombination on Python ints
(object arrays) for any ``q``.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from repro.ntt import modmath
from repro.ntt.ntt import get_ntt


class RnsBasis:
    """A CRT basis ``q = q_0 * q_1 * ... * q_{L-1}`` of NTT primes.

    Args:
        primes: pairwise-coprime primes, each ``= 1 (mod 2n)``.
        n: ring dimension the basis will be used with (for validation).
    """

    def __init__(self, primes: Sequence[int], n: int):
        primes = [int(p) for p in primes]
        if not primes:
            raise ValueError("RNS basis needs at least one prime")
        for p in primes:
            if not modmath.is_prime(p):
                raise ValueError(f"{p} is not prime")
            if (p - 1) % (2 * n) != 0:
                raise ValueError(f"{p} is not NTT-friendly for n={n}")
        for i, p in enumerate(primes):
            for other in primes[i + 1:]:
                if math.gcd(p, other) != 1:
                    raise ValueError("basis primes must be pairwise coprime")
        self.primes = tuple(primes)
        self.n = n
        self.modulus = math.prod(primes)
        self._ntts = [get_ntt(n, p) for p in primes]
        # Garner constants: (p_0 * ... * p_{i-1})^-1 mod p_i for i >= 1.
        self._garner_inv = [
            pow(math.prod(primes[:i]) % p, -1, p)
            for i, p in enumerate(primes) if i
        ]

    @property
    def exact_int64(self) -> bool:
        """Whether CRT values fit the exact uint64/int64 path (q < 2^62)."""
        return self.modulus < 1 << 62

    def __len__(self) -> int:
        return len(self.primes)

    def __repr__(self) -> str:
        bits = [p.bit_length() for p in self.primes]
        return f"RnsBasis(primes={list(self.primes)}, bits={bits}, n={self.n})"

    @classmethod
    def generate(cls, n: int, prime_bits: Iterable[int]) -> "RnsBasis":
        """Generate a basis with one fresh prime per requested bit-width."""
        primes = []
        counts: dict = {}
        for bits in prime_bits:
            counts[bits] = counts.get(bits, 0) + 1
        for bits, count in counts.items():
            primes.extend(modmath.find_ntt_primes(bits, n, count))
        return cls(primes, n)

    # ------------------------------------------------------------------
    # Representation conversions
    # ------------------------------------------------------------------

    def to_rns(self, coeffs) -> list:
        """Reduce an integer coefficient vector into per-prime residues.

        Accepts signed integers or object-dtype big integers; returns a list
        of uint64 arrays, one per basis prime.
        """
        coeffs = np.asarray(coeffs)
        if coeffs.dtype != object:
            coeffs = coeffs.astype(np.int64)
        # Floored mod: negative values land in [0, p) for both dtypes.
        return [(coeffs % p).astype(np.uint64) for p in self.primes]

    def _garner(self, residues: Sequence[np.ndarray], dtype=np.uint64):
        """Mixed-radix CRT recombination into ``[0, q)``.

        ``x_i = x_{i-1} + P_i * ((r_i - x_{i-1}) * P_i^-1 mod p_i)`` with
        ``P_i = p_0 * ... * p_{i-1}``.  Digits are uint64 ``mulmod``
        products; the accumulation runs in ``dtype``: uint64 (exact since
        every ``x_i < P_i * p_i <= q < 2**62``) or object (Python ints, any
        q).  Residue arrays may have any common shape.
        """
        if len(residues) != len(self.primes):
            raise ValueError("residue count does not match basis size")
        if dtype is np.uint64 and not self.exact_int64:
            raise OverflowError(
                f"q has {self.modulus.bit_length()} bits; the uint64 CRT "
                "needs q < 2**62"
            )
        scalar = np.uint64 if dtype is np.uint64 else int
        x = np.asarray(residues[0], dtype=np.uint64).astype(dtype)
        radix = self.primes[0]
        for r, p, inv in zip(residues[1:], self.primes[1:], self._garner_inv):
            x_mod = (x % scalar(p)).astype(np.uint64)
            digit = modmath.mulmod(
                modmath.submod(np.asarray(r, dtype=np.uint64), x_mod, p), inv, p
            )
            # digit < p_i, so x + radix * digit < P_i * p_i <= q.
            x = x + digit.astype(dtype) * scalar(radix)
            radix *= p
        return x

    def centered_int64(self, residues: Sequence[np.ndarray]) -> np.ndarray:
        """Exact centered values in ``[-q/2, q/2)`` as int64 (``q < 2**62``)."""
        x = self._garner(residues)
        signed = x.astype(np.int64)
        return np.where(
            x > np.uint64(self.modulus // 2), signed - np.int64(self.modulus), signed
        )

    def from_rns(self, residues: Sequence[np.ndarray]) -> np.ndarray:
        """CRT-reconstruct residues into integers in ``[0, q)``.

        Returns an object-dtype array (values can exceed 64 bits).
        """
        return self._garner(residues, object)

    def centered(self, residues: Sequence[np.ndarray]) -> np.ndarray:
        """CRT-reconstruct into the centered interval ``[-q/2, q/2)``
        (object-dtype Python ints)."""
        vals = self.from_rns(residues)
        return np.where(vals > self.modulus // 2, vals - self.modulus, vals)

    # ------------------------------------------------------------------
    # Ring arithmetic (component-wise over the basis)
    # ------------------------------------------------------------------

    def add(self, a, b) -> list:
        return [modmath.addmod(x, y, p) for x, y, p in zip(a, b, self.primes)]

    def sub(self, a, b) -> list:
        return [modmath.submod(x, y, p) for x, y, p in zip(a, b, self.primes)]

    def neg(self, a) -> list:
        return [modmath.negmod(x, p) for x, p in zip(a, self.primes)]

    def mul(self, a, b) -> list:
        """Negacyclic polynomial product per prime, via NTT."""
        return [
            ntt.multiply(x, y)
            for ntt, x, y in zip(self._ntts, a, b)
        ]

    def forward(self, a) -> list:
        """Per-prime negacyclic NTT spectra (e.g. of a fixed secret key)."""
        return [ntt.forward(x) for ntt, x in zip(self._ntts, a)]

    def mul_spectrum(self, a, spectrum) -> list:
        """Negacyclic product with an operand given by its :meth:`forward`
        spectra: one forward and one inverse transform per prime."""
        return [
            ntt.inverse(modmath.mulmod(ntt.forward(x), s, p))
            for ntt, x, s, p in zip(self._ntts, a, spectrum, self.primes)
        ]

    def mul_scalar(self, a, scalar: int) -> list:
        return [
            modmath.mulmod(x, scalar % p, p) for x, p in zip(a, self.primes)
        ]

    def zero(self) -> list:
        return [np.zeros(self.n, dtype=np.uint64) for _ in self.primes]
