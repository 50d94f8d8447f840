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
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.he.params import BfvParameters
from repro.he.poly import RingPoly, gaussian_poly, ternary_poly, uniform_poly
from repro.ntt import modmath
from repro.obs import trace as obs_trace

#: Largest plaintext modulus the int64 scale-and-round accepts: the float64
#: estimate of ``t*v/q`` is then off by less than one, so the wrap-safe
#: int64 remainder ``t*v - e*q`` stays below ``1.5 q < 2**63``.
_INT64_ROUND_T_BOUND = 1 << 52


@dataclass
class SecretKey:
    """Ternary secret ``s`` plus its per-prime NTT spectrum (computed once,
    so every ``a*s`` product costs one forward and one inverse transform)."""

    s: RingPoly
    spectrum: List[np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.spectrum = self.s.basis.forward(self.s.residues)


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
        # Decryption and noise run on exact int64 phases when the CRT fits;
        # otherwise (q >= 2**62) on Python big ints.
        self._int64 = (
            self.basis.exact_int64 and params.t < _INT64_ROUND_T_BOUND
        )

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
        ints = m.astype(np.int64) if m.dtype.kind == "i" else m.astype(object)
        m_t = (ints % t).astype(np.uint64)
        delta = self.params.delta
        return RingPoly(
            self.basis,
            [
                modmath.mulmod(m_t % np.uint64(p), delta % p, p)
                for p in self.basis.primes
            ],
        )

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
        a_s = self.basis.mul_spectrum(a.residues, sk.spectrum)
        return Ciphertext(c0=-RingPoly(self.basis, a_s) + e + dm, c1=a)

    # ------------------------------------------------------------------
    # Decryption and noise
    # ------------------------------------------------------------------

    def _phase(self, sk: SecretKey, ct: Ciphertext) -> np.ndarray:
        """Decryption phase ``c0 + c1*s``, centered: int64 on the exact
        path, Python big ints (object array) otherwise."""
        basis = self.basis
        c1_s = basis.mul_spectrum(ct.c1.residues, sk.spectrum)
        phase = basis.add(ct.c0.residues, c1_s)
        if self._int64:
            return basis.centered_int64(phase)
        return basis.centered(phase)

    def _scale_round(self, v: np.ndarray) -> np.ndarray:
        """Message ``round(t*v/q) mod t`` (ties away from zero) as int64.

        q is odd, so ``2*t*v = (2k+1)*q`` has no solution and no tie ever
        occurs: any exact round-to-nearest gives the same message.
        """
        q, t = self.params.q, self.params.t
        if not self._int64:
            return np.array(
                [_round_div(int(x) * t, q) % t for x in v], dtype=np.int64
            )
        # repro-lint: disable=DTYPE001  estimate only: |t*v/q| <= t/2 < 2**51
        # with relative error < 2**-51, so it is off by at most one and the
        # exact int64 remainder below corrects it
        est = np.rint(v.astype(np.float64) * (t / q)).astype(np.int64)
        # The true remainder t*v - est*q is below 1.5q < 2**63 in
        # magnitude, so computing it modulo 2**64 and reading the bits back
        # as int64 is exact; one step of +-1 then makes it |rem| < q/2.
        rem = (
            v.view(np.uint64) * np.uint64(t) - est.view(np.uint64) * np.uint64(q)
        ).view(np.int64)
        message = est + (rem > q // 2) - (rem < -(q // 2))
        # repro-lint: disable=MOD002  signed int64, |message| <= t/2 + 1:
        # floored % lands in [0, t) exactly
        return message % t

    def _noise_norm(self, v: np.ndarray, m: np.ndarray) -> int:
        """Infinity norm of ``v - Delta*m`` centered mod q.

        On the int64 path ``|v| < q/2`` and ``0 <= Delta*m < q`` keep the
        difference inside ``(-1.5q, q/2)``; object phases stay Python ints.
        """
        q, delta = self.params.q, self.params.delta
        m = m if self._int64 else m.astype(object)
        # repro-lint: disable=MOD002  floored mod on int64 (|difference|
        # < 1.5q < 2**63) or Python ints: lands in [0, q) exactly
        residual = (v - delta * m) % q
        residual = np.where(residual > q // 2, residual - q, residual)
        return int(np.max(np.abs(residual)))

    def _measure(self, sk: SecretKey, ct: Ciphertext) -> Tuple[np.ndarray, int]:
        v = self._phase(sk, ct)
        m = self._scale_round(v)
        return m, self._noise_norm(v, m)

    def _budget_bits(self, noise: int) -> float:
        ceiling = self.params.noise_ceiling
        if noise == 0:
            return float(math.log2(ceiling))
        return float(math.log2(ceiling) - math.log2(noise))

    def decrypt(self, sk: SecretKey, ct: Ciphertext) -> np.ndarray:
        """Decrypt to the mod-t message vector (int64)."""
        return self._scale_round(self._phase(sk, ct))

    @obs_trace.traced("he.decrypt", n=1)
    def decrypt_with_budget(
        self, sk: SecretKey, ct: Ciphertext
    ) -> Tuple[np.ndarray, float]:
        """Message and remaining noise budget (bits) from one phase.

        Equal to ``(decrypt(sk, ct), noise_budget(sk, ct))`` at the cost of
        one decryption.
        """
        m, noise = self._measure(sk, ct)
        return m, self._budget_bits(noise)

    def decrypt_signed(self, sk: SecretKey, ct: Ciphertext) -> np.ndarray:
        """Decrypt and center the message into ``[-t/2, t/2)``."""
        t = self.params.t
        m = self.decrypt(sk, ct)
        return np.where(m >= t // 2, m - t, m)

    def noise_infinity(self, sk: SecretKey, ct: Ciphertext) -> int:
        """Infinity norm of the noise ``(c0 + c1*s) - Delta*m`` (centered)."""
        return self._measure(sk, ct)[1]

    def noise_budget(self, sk: SecretKey, ct: Ciphertext) -> float:
        """Remaining noise budget in bits: ``log2(q/(2t) / |noise|_inf)``.

        Decryption stays correct while the budget is positive (the
        kernel-level robustness bound of Section III-A).
        """
        return self._budget_bits(self.noise_infinity(sk, ct))

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
