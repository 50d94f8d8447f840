"""Negacyclic number theoretic transform (NTT) over prime moduli.

This is the exact-arithmetic baseline that FLASH replaces with approximate
FFT.  It is the four-step factorization ``n = n1 * n2`` evaluated as two
float64 matrix products and one twiddle product -- the NTT-as-matmul
mapping of FHE transforms onto matrix-multiply units -- with the
negacyclic (X^n + 1) twists folded into the tables.  Residues are split
into limbs so every partial sum is an integer below ``2**53``: results are
exact under any BLAS blocking or summation order, and bit-identical to a
radix-2 butterfly NTT (derivation and bounds: docs/algorithms.md §7).
"""

from __future__ import annotations

import numpy as np

from repro.ntt import modmath
from repro.ntt.modmath import invmod, mulmod, root_of_unity
from repro.obs import trace as obs_trace

#: Rows are transformed in blocks of at most this many elements (a longer
#: row is one block).  Small blocks keep numpy's temporaries in cache and
#: below glibc's 128 KiB mmap threshold, so they reuse heap chunks instead
#: of faulting in fresh pages; unblocked, the cost per N=4096 row doubled
#: from 1 to 64 rows (docs/algorithms.md §7).
BLOCK_ELEMENTS = 1 << 12

#: Limb products' partial sums stay below ``2**FLOAT_EXACT_BITS``: float64
#: holds 53 bits, and the spare bit covers Horner's ``acc * 2**b`` term.
FLOAT_EXACT_BITS = 52


class NegacyclicNtt:
    """Forward/inverse negacyclic NTT of length ``n`` modulo prime ``q``.

    The transform diagonalizes multiplication in ``Z_q[X]/(X^n + 1)``:
    ``intt(ntt(a) * ntt(b)) == a *_negacyclic b``, with outputs in natural
    order, ``forward(a)[k] = sum_i a[i] psi^(i (2k + 1))``.

    With ``n1 = 2**ceil(log2(n) / 2)``, ``n2 = n / n1``, input index
    ``i = n2*i1 + i2`` and output index ``k = k1 + n1*k2``, the forward
    transform of a row read as the ``(n1, n2)`` matrix ``X`` is
    ``((M1 @ X) * T) @ M2`` read column-major, where
    ``M1[k1, i1] = psi^(n2 i1 (2k1 + 1))``, ``T[k1, i2] = psi^(i2 (2k1 + 1))``
    and ``M2[i2, k2] = psi^(2 n1 i2 k2)``.  The inverse mirrors it, with
    ``n^-1 psi^-i2`` folded into its twiddles and ``psi^-(n2 i1)`` into its
    last matrix.

    A product splits its residue operand into ``limbs`` limbs of
    ``limb_bits = min(bits(q), 52 - log2(n1) - bits(q))`` bits, so partial
    sums stay below ``n1 * 2**limb_bits * q <= 2**52``, and recombines the
    limb products by Horner's rule, ``acc = (acc * 2**b + P_j) mod q``.

    Args:
        n: transform length, a power of two.
        q: prime modulus with ``q = 1 (mod 2n)`` and ``q < 2**40``.
    """

    def __init__(self, n: int, q: int):
        if n < 2 or n & (n - 1):
            raise ValueError(f"n must be a power of two >= 2, got {n}")
        if (q - 1) % (2 * n) != 0:
            raise ValueError(f"q={q} does not satisfy q = 1 (mod 2n)")
        if not modmath.is_prime(q):
            raise ValueError(f"q={q} is not prime")
        self.n = n
        self.q = q
        self.stages = n.bit_length() - 1
        log_n1 = (self.stages + 1) // 2
        n1 = self.n1 = 1 << log_n1
        n2 = self.n2 = n // n1
        bits = q.bit_length()
        self.limb_bits = min(bits, FLOAT_EXACT_BITS - log_n1 - bits)
        if self.limb_bits < 1:
            raise ValueError(f"n={n} is too long for a {bits}-bit modulus")
        self.limbs = -(-bits // self.limb_bits)

        two_n = 2 * n
        self._psi_pows = self._power_table(root_of_unity(two_n, q), two_n)
        k1 = np.arange(n1, dtype=np.int64)[:, None]
        i1 = np.arange(n1, dtype=np.int64)[None, :]
        i2 = np.arange(n2, dtype=np.int64)[None, :]
        k2 = np.arange(n2, dtype=np.int64)[:, None]
        # Exponents of psi (order 2n), reduced mod 2n.
        # repro-lint: disable=MOD001  int64 exponents below 2n * n1 << 2**63
        e_first = n2 * i1 * (2 * k1 + 1) % two_n  # [k1, i1]
        # repro-lint: disable=MOD001  int64 exponents below 2n
        e_twiddle = i2 * (2 * k1 + 1) % two_n  # [k1, i2]
        # repro-lint: disable=MOD001  int64 exponents below 2n * n2 << 2**63
        e_last = 2 * n1 * k2 * i2 % two_n  # [i2, k2], symmetric

        psi = self._psi_pows

        def inv_pows(e: np.ndarray) -> np.ndarray:
            # repro-lint: disable=MOD002  e in [0, 2n): 2n - e is in (0, 2n]
            return psi[(two_n - e) % two_n]

        # (first matrix, twiddles, twiddles / q, last matrix) per direction.
        self._fwd = self._tables(psi[e_first], psi[e_twiddle], psi[e_last])
        self._inv = self._tables(
            inv_pows(e_last),  # [i2, k2]
            mulmod(inv_pows(e_twiddle.T), invmod(n, q), q),  # [i2, k1]
            inv_pows(e_first),  # [k1, i1]
        )

    def _power_table(self, base: int, count: int) -> np.ndarray:
        """``base**e mod q`` for ``e < count`` (count a power of two)."""
        powers = np.ones(1, dtype=np.uint64)
        while powers.size < count:
            step = modmath.powmod(base, powers.size, self.q)
            powers = np.concatenate([powers, mulmod(powers, step, self.q)])
        return powers

    def _tables(self, first, twiddle, last) -> tuple:
        """One direction's tables from residue tables (entries < q).

        The matrices become float64 GEMM operands; the twiddles stay int64
        residues, shaped ``(s, 1, t)`` to broadcast over a block's rows,
        beside their float quotients ``t / q``.
        """
        # repro-lint: disable=DTYPE001  table entries are residues < q < 2**40
        first, last = first.astype(np.float64), last.astype(np.float64)
        twiddle = twiddle[:, None, :]
        # repro-lint: disable=DTYPE001  twiddles are residues < q < 2**40
        quotient = twiddle.astype(np.float64) / self.q
        return first, twiddle.astype(np.int64), quotient, last

    @property
    def psi_powers(self) -> np.ndarray:
        """Powers ``psi**i`` (``i < n``) of the negacyclic pre-twist (a copy)."""
        return self._psi_pows[: self.n].copy()

    # -- kernels ---------------------------------------------------------

    def _matmod(self, x: np.ndarray, product) -> np.ndarray:
        """``product(x) mod q`` for uint64 residues ``x``, exactly.

        ``product`` multiplies by one float64 table of residues with sums
        of at most ``n1`` terms, so each limb's partial sums are integers
        below ``2**52``.  Horner's accumulator stays signed in ``(-q, q)``:
        ``|acc| * 2**b <= 2**51``, so every ``p`` is below ``1.5 * 2**52``.
        ``rint(p * (1/q))`` is within ``1/2 + 2/q`` of ``p / q``, so
        ``p - f*q`` (exact: ``f*q < 2**53``) lies in ``(-q, q)`` for every
        ``q >= 5``, and every NTT prime is.  Returns that signed float.
        """
        b, top = self.limb_bits, self.limbs - 1
        acc = None
        for j in range(top, -1, -1):
            limb = x >> np.uint64(b * j) if j else x
            if j < top:
                limb = limb & np.uint64((1 << b) - 1)
            # repro-lint: disable=DTYPE001  limbs are < 2**limb_bits <= 2**40
            p = product(limb.astype(np.float64))
            if acc is not None:
                acc *= float(1 << b)
                p += acc
            f = p * (1.0 / self.q)
            np.rint(f, out=f)
            f *= float(self.q)
            p -= f
            acc = p
        return acc

    def _twiddle(self, c: np.ndarray, twiddle, quotient) -> np.ndarray:
        """``(c * twiddle) mod q`` in ``[0, q)`` for signed ``c`` in ``(-q, q)``.

        ``rint(c * (t / q))`` is within ``1/2 + 2**-11`` of ``c*t/q``, so
        the remainder ``c*t - q_hat*q`` lies in ``(-q, q)``: exact in int64
        although both products wrap, since int64 is exact modulo ``2**64``.
        """
        q_hat = c * quotient
        np.rint(q_hat, out=q_hat)
        r = c.astype(np.int64)
        r *= twiddle
        r -= q_hat.astype(np.int64) * np.int64(self.q)
        return self._lift(r)

    def _lift(self, r: np.ndarray, out=None) -> np.ndarray:
        """Map int64 values in ``(-q, q)`` onto ``[0, q)`` as uint64."""
        u = r.view(np.uint64)
        return np.minimum(u, u + np.uint64(self.q), out=out)

    def _four_step(self, a: np.ndarray, tables: tuple) -> np.ndarray:
        """Transform the rows of ``a`` (last axis ``n``), block by block.

        A row read as the ``(s, t)`` matrix ``x`` becomes the ``(t', s)``
        matrix ``(((first @ x) * twiddle) @ last)^T``.  A block's rows are
        stacked into one ``(s, rows * t)`` operand for ``first`` and one
        ``(s * rows, t)`` operand for ``last``: two GEMMs per block.
        """
        first, twiddle, quotient, last = tables
        s, t = first.shape[1], last.shape[0]
        rows = a.reshape(-1, s, t)
        out = np.empty((rows.shape[0], last.shape[1], s), dtype=np.uint64)
        step = max(1, BLOCK_ELEMENTS // self.n)
        for lo in range(0, rows.shape[0], step):
            block = rows[lo:lo + step]
            count = block.shape[0]
            x = np.ascontiguousarray(block.transpose(1, 0, 2))
            y = self._matmod(x.reshape(s, count * t), lambda v: first @ v)
            c = self._twiddle(y.reshape(s, count, t), twiddle, quotient)
            z = self._matmod(c.reshape(s * count, t), lambda v: v @ last)
            self._lift(
                z.reshape(s, count, -1).astype(np.int64),
                out=out[lo:lo + count].transpose(2, 0, 1),
            )
        return out.reshape(a.shape)

    # -- public API ------------------------------------------------------

    def _check_last_axis(self, a: np.ndarray, what: str) -> np.ndarray:
        a = np.asarray(a, dtype=np.uint64)
        if a.ndim < 1 or a.shape[-1] != self.n:
            raise ValueError(
                f"{what} must have last axis {self.n}, got shape {a.shape}"
            )
        return a

    def _check_vector(self, a) -> np.ndarray:
        a = np.asarray(a, dtype=np.uint64)
        if a.shape != (self.n,):
            raise ValueError(f"expected shape ({self.n},), got {a.shape}")
        return a

    def forward(self, a) -> np.ndarray:
        """Negacyclic NTT of coefficient vector ``a`` (residues in [0, q))."""
        return self._four_step(self._check_vector(a), self._fwd)

    def inverse(self, a_hat) -> np.ndarray:
        """Inverse negacyclic NTT returning coefficients mod q."""
        return self._four_step(self._check_vector(a_hat), self._inv)

    def forward_batch(self, a) -> np.ndarray:
        """Negacyclic NTT over the last axis of a ``(..., n)`` batch.

        Each row's result is bit-identical to :meth:`forward` on that row.
        """
        return self._four_step(self._check_last_axis(a, "batch"), self._fwd)

    def inverse_batch(self, a_hat) -> np.ndarray:
        """Inverse negacyclic NTT over the last axis of a ``(..., n)`` batch."""
        return self._four_step(
            self._check_last_axis(a_hat, "batch"), self._inv
        )

    def multiply(self, a, b) -> np.ndarray:
        """Negacyclic product ``a * b mod (X^n + 1, q)`` via NTT."""
        return self.inverse(mulmod(self.forward(a), self.forward(b), self.q))

    def multiply_batch(self, a, b) -> np.ndarray:
        """Batched negacyclic products over the last axis.

        Args:
            a: ``(..., n)`` residues mod q.
            b: residues broadcastable against ``a`` -- typically ``(n,)``
                (one weight polynomial shared by the whole batch) or the
                same shape as ``a``.
        """
        spec = mulmod(self.forward_batch(a), self.forward_batch(b), self.q)
        return self.inverse_batch(spec)

    @property
    def plan_bytes(self) -> int:
        """Memory held by this plan's precomputed tables."""
        tables = (self._psi_pows,) + self._fwd + self._inv
        return sum(t.nbytes for t in tables)

    def butterfly_count(self) -> int:
        """Butterflies in one dense radix-2 transform: ``n/2 * log2(n)``.

        This is the multiplication count the paper uses for the classical
        dataflow (Example 4.1 counts trivial twiddles as multiplications);
        it describes the hardware dataflow, not this module's matrix form.
        """
        return (self.n // 2) * self.stages


#: Alias under the name the runtime layer uses: a constructed transform is a
#: reusable *plan* (matrices + twiddle tables), exactly like an FFTW plan.
NttPlan = NegacyclicNtt


_NTT_CACHE: dict = {}


def get_ntt(n: int, q: int) -> NegacyclicNtt:
    """Return a cached :class:`NegacyclicNtt` for ``(n, q)``.

    Plan construction (span ``ntt.plan``) builds O(n) tables, so heavy
    callers (BFV, benchmarks) share instances through this cache.
    """
    key = (n, q)
    if key not in _NTT_CACHE:
        with obs_trace.tracer.span("ntt.plan", n=n, q=q):
            _NTT_CACHE[key] = NegacyclicNtt(n, q)
    return _NTT_CACHE[key]


def negacyclic_convolution_naive(a, b, modulus: int = 0) -> np.ndarray:
    """Schoolbook negacyclic convolution, exact via Python integers.

    Reference implementation for tests and small problem sizes.  Operates on
    arbitrary-magnitude integer vectors; if ``modulus`` is nonzero the result
    is reduced into ``[0, modulus)``.

    Args:
        a: integer vector of length n.
        b: integer vector of length n.
        modulus: optional modulus for the reduction of the result.

    Returns:
        object-dtype array of length n (uint64 if ``modulus`` fits).
    """
    a = [int(v) for v in np.asarray(a).tolist()]
    b = [int(v) for v in np.asarray(b).tolist()]
    n = len(a)
    if len(b) != n:
        raise ValueError("operands must have equal length")
    out = [0] * n
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            if bj == 0:
                continue
            k = i + j
            if k < n:
                out[k] += ai * bj
            else:
                out[k - n] -= ai * bj
    if modulus:
        return np.array([v % modulus for v in out], dtype=np.uint64)
    return np.array(out, dtype=object)
