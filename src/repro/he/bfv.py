"""BFV homomorphic encryption (Fan-Vercauteren) over power-of-two rings.

Implements the subset of BFV the hybrid HE/2PC protocol needs -- public /
secret-key encryption, decryption, ciphertext addition/subtraction,
plaintext addition and plaintext-ciphertext multiplication -- plus noise
budget measurement.  Plaintext-ciphertext multiplication accepts pluggable
polynomial-multiplication backends (:mod:`repro.he.backend`): the exact
NTT (baseline accelerators) or the approximate FFT pipeline (FLASH).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.he.params import BfvParameters
from repro.he.poly import RingPoly, gaussian_poly, ternary_poly, uniform_poly


@dataclass
class SecretKey:
    s: RingPoly


@dataclass
class PublicKey:
    p0: RingPoly  # -(a*s + e)
    p1: RingPoly  # a


@dataclass
class Ciphertext:
    """Degree-1 BFV ciphertext ``(c0, c1)`` decrypting via ``c0 + c1*s``."""

    c0: RingPoly
    c1: RingPoly

    def copy(self) -> "Ciphertext":
        return Ciphertext(self.c0.copy(), self.c1.copy())


def _round_div(a: int, b: int) -> int:
    """Round-to-nearest integer division (ties away from zero), b > 0."""
    if a >= 0:
        return (2 * a + b) // (2 * b)
    return -((-2 * a + b) // (2 * b))


class BfvContext:
    """Stateless BFV operation set bound to one parameter set.

    Args:
        params: the :class:`repro.he.params.BfvParameters` to operate under.
    """

    def __init__(self, params: BfvParameters):
        self.params = params
        self.basis = params.basis

    # ------------------------------------------------------------------
    # Key generation and encryption
    # ------------------------------------------------------------------

    def keygen(self, rng: np.random.Generator):
        """Sample a ternary secret key and a matching public key."""
        s = ternary_poly(self.basis, rng)
        a = uniform_poly(self.basis, rng)
        e = gaussian_poly(self.basis, rng, self.params.error_std)
        p0 = -(a * s + e)
        return SecretKey(s=s), PublicKey(p0=p0, p1=a)

    def _encode(self, plaintext) -> RingPoly:
        """Lift a mod-t message vector to ``Delta * m`` in the ciphertext ring."""
        t = self.params.t
        m = np.asarray(plaintext)
        if m.shape != (self.params.n,):
            raise ValueError(f"expected {self.params.n} plaintext slots")
        lifted = [int(v) % t for v in m.tolist()]
        delta = self.params.delta
        scaled = np.array([delta * v for v in lifted], dtype=object)
        return RingPoly.from_signed(self.basis, scaled)

    def encrypt(
        self, pk: PublicKey, plaintext, rng: np.random.Generator
    ) -> Ciphertext:
        """Public-key encryption of a mod-t coefficient vector."""
        u = ternary_poly(self.basis, rng)
        e1 = gaussian_poly(self.basis, rng, self.params.error_std)
        e2 = gaussian_poly(self.basis, rng, self.params.error_std)
        dm = self._encode(plaintext)
        return Ciphertext(c0=pk.p0 * u + e1 + dm, c1=pk.p1 * u + e2)

    def encrypt_symmetric(
        self, sk: SecretKey, plaintext, rng: np.random.Generator
    ) -> Ciphertext:
        """Secret-key encryption (smaller noise; what Cheetah clients send)."""
        a = uniform_poly(self.basis, rng)
        e = gaussian_poly(self.basis, rng, self.params.error_std)
        dm = self._encode(plaintext)
        return Ciphertext(c0=-(a * sk.s) + e + dm, c1=a)

    # ------------------------------------------------------------------
    # Decryption and noise
    # ------------------------------------------------------------------

    def _phase(self, sk: SecretKey, ct: Ciphertext) -> np.ndarray:
        """Decryption phase ``c0 + c1*s`` as centered big integers."""
        return (ct.c0 + ct.c1 * sk.s).to_centered()

    def decrypt(self, sk: SecretKey, ct: Ciphertext) -> np.ndarray:
        """Decrypt to the mod-t message vector (int64)."""
        q, t = self.params.q, self.params.t
        phase = self._phase(sk, ct)
        return np.array(
            [_round_div(int(v) * t, q) % t for v in phase], dtype=np.int64
        )

    def decrypt_signed(self, sk: SecretKey, ct: Ciphertext) -> np.ndarray:
        """Decrypt and center the message into ``[-t/2, t/2)``."""
        t = self.params.t
        m = self.decrypt(sk, ct)
        return np.where(m >= t // 2, m - t, m)

    def noise_infinity(self, sk: SecretKey, ct: Ciphertext) -> int:
        """Infinity norm of the noise ``(c0 + c1*s) - Delta*m`` (centered)."""
        q = self.params.q
        phase = self._phase(sk, ct)
        m = self.decrypt(sk, ct)
        delta = self.params.delta
        worst = 0
        for v, mi in zip(phase, m.tolist()):
            # repro-lint: disable=MOD002  Python big ints with floored
            # division: the negative difference reduces into [0, q) exactly
            residual = (int(v) - delta * int(mi)) % q
            if residual > q // 2:
                residual -= q
            worst = max(worst, abs(residual))
        return worst

    def noise_budget(self, sk: SecretKey, ct: Ciphertext) -> float:
        """Remaining noise budget in bits: ``log2(q/(2t) / |noise|_inf)``.

        Decryption stays correct while the budget is positive (the
        kernel-level robustness bound of Section III-A).
        """
        noise = self.noise_infinity(sk, ct)
        ceiling = self.params.noise_ceiling
        if noise == 0:
            return float(math.log2(ceiling))
        return float(math.log2(ceiling) - math.log2(noise))

    # ------------------------------------------------------------------
    # Homomorphic evaluation
    # ------------------------------------------------------------------

    def add(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        return Ciphertext(a.c0 + b.c0, a.c1 + b.c1)

    def sub(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        return Ciphertext(a.c0 - b.c0, a.c1 - b.c1)

    def negate(self, a: Ciphertext) -> Ciphertext:
        return Ciphertext(-a.c0, -a.c1)

    def add_plain(self, ct: Ciphertext, plaintext) -> Ciphertext:
        """Homomorphic ``ct + Enc(0-noise-free plaintext)`` (Cheetah's boxplus)."""
        return Ciphertext(ct.c0 + self._encode(plaintext), ct.c1.copy())

    def sub_plain(self, ct: Ciphertext, plaintext) -> Ciphertext:
        return Ciphertext(ct.c0 - self._encode(plaintext), ct.c1.copy())

    def multiply_plain(
        self, ct: Ciphertext, weights, backend: Optional["PolyMulBackend"] = None
    ) -> Ciphertext:
        """Multiply by a plaintext polynomial with *signed small* coefficients.

        This is the HConv workhorse: weight polynomials produced by the
        coefficient encoding multiply both ciphertext components.  Both
        products go through one ``backend.multiply_many`` call (exact NTT
        by default; pass an FFT backend to model FLASH).

        Args:
            ct: input ciphertext.
            weights: signed integer coefficient vector of length n.
            backend: a :class:`repro.he.backend.PolyMulBackend`; defaults
                to the exact NTT backend.
        """
        from repro.runtime.engine import BatchedNttBackend

        if backend is None:
            backend = BatchedNttBackend()
        weights = np.asarray(weights)
        if weights.shape != (self.params.n,):
            raise ValueError(f"expected {self.params.n} weight coefficients")
        c0, c1 = backend.multiply_many([ct.c0, ct.c1], [weights, weights])
        return Ciphertext(c0, c1)

    def zero_ciphertext(self) -> Ciphertext:
        """The trivial encryption of zero (used as an accumulator seed)."""
        return Ciphertext(
            RingPoly.zero(self.basis), RingPoly.zero(self.basis)
        )
