"""One-round hybrid HE/2PC linear-layer protocols (Figure 1 of the paper).

The client encrypts its activation share and sends it; the server
homomorphically reconstructs the activation, multiplies by its plaintext
weights, subtracts a fresh random mask (its output share), and returns the
ciphertexts; the client decrypts to obtain the other output share:

    server computes  (Enc({x}^C) boxplus {x}^S) boxtimes w  boxminus s
    client holds     {y}^C = y - s

Convolution and fully-connected layers run the same round
(``_ResilientProtocolMixin._he_round``) and both take batches: a conv
layer is one round per stride phase x row band, an FC layer one round,
each covering every item of the batch with one ``multiply_many`` call.
The polynomial multiplication backend is pluggable (exact NTT vs FLASH's
approximate FFT).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.encoding.conv_encoding import Conv2dEncoder, iter_conv_bands
from repro.encoding.linear_encoding import LinearEncoder
from repro.he.backend import PolyMulBackend
from repro.he.bfv import BfvContext, Ciphertext
from repro.he.params import BfvParameters
from repro.obs import trace as obs_trace
from repro.protocol.secret_sharing import ShareRing
from repro.protocol.wire import ciphertext_bytes
from repro.runtime.engine import BatchedFftBackend, BatchedNttBackend


@dataclass
class ProtocolStats:
    """Traffic and workload accounting for one protocol run."""

    ciphertexts_sent: int = 0
    ciphertexts_returned: int = 0
    weight_transforms: int = 0
    input_transforms: int = 0
    inverse_transforms: int = 0
    # Weight-transform multiplication accounting, populated when the
    # backend runs compiled sparse plans (repro.runtime's
    # SparseBatchedFftBackend): realized = executed by the plans, dense =
    # dense-butterfly equivalent, model = repro.sparse.opcount prediction.
    weight_mults_realized: int = 0
    weight_mults_dense: int = 0
    weight_mults_model: int = 0
    min_noise_budget: float = float("inf")
    bytes_sent: int = 0
    bytes_received: int = 0
    # Transport resilience (populated when traffic routes through a
    # repro.faults.ResilientSession) and graceful degradation.
    retries: int = 0
    timeouts: int = 0
    checksum_failures: int = 0
    dead_letters: int = 0
    degraded: bool = False
    # Supervised multi-process execution (populated when the batched
    # products ran on a repro.cluster executor): per-run supervision
    # counters of the backend calls attributed to this layer/item.
    cluster_dispatches: int = 0
    cluster_worker_deaths: int = 0
    cluster_jobs_requeued: int = 0
    cluster_serial_fallback_jobs: int = 0
    cluster_recoveries: int = 0

    @property
    def total_transforms(self) -> int:
        return (
            self.weight_transforms
            + self.input_transforms
            + self.inverse_transforms
        )

    @property
    def total_bytes(self) -> int:
        return self.bytes_sent + self.bytes_received

    @property
    def realized_mult_reduction(self) -> float:
        """Fraction of dense weight-FFT mults removed by executed plans."""
        if not self.weight_mults_dense:
            return 0.0
        return 1.0 - self.weight_mults_realized / self.weight_mults_dense

    @property
    def model_mult_reduction(self) -> float:
        if not self.weight_mults_dense:
            return 0.0
        return 1.0 - self.weight_mults_model / self.weight_mults_dense


@dataclass
class ProtocolResult:
    """Outcome of one private linear-layer evaluation."""

    client_share: np.ndarray
    server_share: np.ndarray
    reconstructed: np.ndarray
    expected: np.ndarray
    stats: ProtocolStats = field(default_factory=ProtocolStats)

    @property
    def max_error(self) -> int:
        """Worst absolute deviation from the exact plaintext result."""
        return int(
            np.max(np.abs(self.reconstructed.astype(np.int64) - self.expected))
        )

    @property
    def exact(self) -> bool:
        return self.max_error == 0


class _PartyPair:
    """Shared key material and ring for one client/server session."""

    def __init__(self, params: BfvParameters, rng: np.random.Generator):
        if params.t & (params.t - 1):
            raise ValueError("hybrid protocol needs a power-of-two plaintext modulus")
        self.params = params
        self.ctx = BfvContext(params)
        self.ring = ShareRing(params.t.bit_length() - 1)
        self.sk, self.pk = self.ctx.keygen(rng)


class _ResilientProtocolMixin:
    """The one-round protocol shared by conv and FC layers: construction,
    transport routing, the budget-guarded batch run and the HE round.

    A concrete protocol sets ``layer_name`` (default label), ``_span``
    (trace span of one guarded run), ``num_accumulated`` (products summed
    per output, for the guard's noise prediction) and ``_item_ndim`` (axes
    of one input), and implements ``_expected(x, w)`` (the plaintext
    result of one item), ``_output_keys(keys)`` (which weight keys each
    returned ciphertext sums) and ``_evaluate(party, clients,
    servers, w, rng, stats)`` (the layer's HE rounds over the signed input
    shares, returning the client and server output shares per item).

    Args:
        params: BFV parameters; ``t`` must be a power of two.
        shape: layer shape.
        backend: polynomial multiplication backend (exact NTT default).
        transport: optional :class:`repro.faults.ResilientSession`; all
            ciphertext traffic (client->server activations, server->client
            results) then crosses its checksummed channel with bounded
            retry, and the retry/timeout/dead-letter counts land in
            :class:`ProtocolStats`.
        guard: optional :class:`repro.faults.BudgetGuard` watching the
            approximate path for noise-budget exhaustion (predicted via
            :mod:`repro.he.noise` before the run, observed after); under
            the ``"fallback"`` policy the layer transparently reruns on
            the exact NTT backend.  Ignored for exact backends.
        layer_name: label used in guard degradation events.
    """

    def __init__(
        self,
        params: BfvParameters,
        shape,
        backend: Optional[PolyMulBackend] = None,
        transport=None,
        guard=None,
        layer_name: Optional[str] = None,
    ):
        self.params = params
        self.shape = shape
        self.backend = backend if backend is not None else BatchedNttBackend()
        self.transport = transport
        self.guard = guard
        if layer_name is not None:
            self.layer_name = layer_name

    def _fallback_protocol(self):
        return type(self)(
            self.params,
            self.shape,
            self.guard.fallback_backend(),
            transport=self.transport,
            layer_name=self.layer_name,
        )

    def run(
        self,
        x: np.ndarray,
        w: np.ndarray,
        rng: np.random.Generator,
        session: Optional[_PartyPair] = None,
    ) -> ProtocolResult:
        """Evaluate the layer on one input and verify against plaintext.

        A batch of one: :meth:`run_batch` on ``x[None]``, with the same
        randomness order and budget-guard behaviour.

        Args:
            x: clear activation (signed ints); it is secret-shared
                internally before the protocol starts.
            w: server weights (signed ints).
            rng: randomness for keys, shares and masks.
            session: optional pre-generated key material (reuse across
                layers).
        """
        return self.run_batch(np.asarray(x)[None], w, rng, session=session)[0]

    def run_batch(
        self,
        xs: np.ndarray,
        w: np.ndarray,
        rng: np.random.Generator,
        session: Optional[_PartyPair] = None,
    ) -> List[ProtocolResult]:
        """Evaluate the layer privately for a whole batch of inputs.

        Every item is secret-shared first; then each HE round encrypts
        every item's input polynomials and sends all homomorphic plaintext
        products of the round (items x products x 2 ciphertext components)
        through one ``backend.multiply_many`` call, so the weight
        encodings and spectra are computed once for the batch.

        Args:
            xs: clear activations stacked on a leading batch axis (a
                single unstacked item is a batch of one).
            w: server weights.
            rng: randomness for keys, shares and masks.
            session: optional pre-generated key material.

        Returns:
            one :class:`ProtocolResult` per batch item, in order.
        """
        return self._run_guarded(xs, w, rng, session)

    def _run_once(
        self,
        xs: np.ndarray,
        w: np.ndarray,
        rng: np.random.Generator,
        party: _PartyPair,
    ) -> List[ProtocolResult]:
        ring = party.ring
        xs = np.asarray(xs, dtype=np.int64)
        if xs.ndim == self._item_ndim:
            xs = xs[None]
        w = np.asarray(w, dtype=np.int64)
        expected = [self._expected(x, w) for x in xs]
        if not all(ring.fits_signed(e) for e in expected):
            raise ValueError(
                f"{self.layer_name} output overflows the sharing ring; "
                "increase the plaintext modulus"
            )
        shares = [ring.share(x, rng) for x in xs]
        clients = np.stack([ring.to_signed(c) for c, _ in shares])
        servers = np.stack([ring.to_signed(v) for _, v in shares])
        stats = [ProtocolStats() for _ in xs]
        y_clients, y_servers = self._evaluate(
            party, clients, servers, w, rng, stats
        )
        return [
            ProtocolResult(
                client_share=yc,
                server_share=yv,
                reconstructed=ring.reconstruct(yc, yv),
                expected=e,
                stats=st,
            )
            for yc, yv, e, st in zip(y_clients, y_servers, expected, stats)
        ]

    def _he_round(
        self,
        party: _PartyPair,
        enc,
        clients: np.ndarray,
        servers: np.ndarray,
        w: np.ndarray,
        rng: np.random.Generator,
        stats: List[ProtocolStats],
    ) -> List[Tuple[Dict, Dict]]:
        """One encrypt -> multiply -> mask -> decrypt round over a batch.

        The client encrypts each item's input polynomials and sends them;
        the server adds its share, runs every product of every item
        through one ``multiply_many`` call, sums each output's products,
        subtracts a fresh mask per output and returns the ciphertexts,
        which the client decrypts.  Products follow the keys of
        ``enc.encode_weights(w)``, whose first element is the input
        polynomial they multiply; ``_output_keys`` groups them into the
        returned ciphertexts.

        Returns:
            per item, the decrypted client messages and the server masks,
            each keyed by output.
        """
        ctx, ring = party.ctx, party.ring
        t = self.params.t
        ct_bytes = ciphertext_bytes(self.params)
        w_polys = enc.encode_weights(w)  # shared by the whole batch
        outputs = self._output_keys(w_polys)

        # Client side: encrypt every item's input polynomials.
        inputs: List[List[Ciphertext]] = []
        for item, st in enumerate(stats):
            cts = [
                ctx.encrypt_symmetric(party.sk, poly % t, rng)
                for poly in enc.encode_input(clients[item])
            ]
            st.ciphertexts_sent += len(cts)
            st.bytes_sent += len(cts) * ct_bytes
            st.input_transforms += len(cts)
            st.weight_transforms += len(w_polys)
            st.inverse_transforms += len(outputs)
            # Client -> server hop (resilient transport when configured).
            cts = [self._transfer_ct(ct, st) for ct in cts]
            server_polys = enc.encode_input(servers[item])
            inputs.append(
                [
                    ctx.add_plain(ct, server_polys[i] % t)
                    for i, ct in enumerate(cts)
                ]
            )

        # Server side: every (item, product) in one batched call.
        polys, weights = [], []
        for cts in inputs:
            for keys in outputs.values():
                for key in keys:
                    polys.extend((cts[key[0]].c0, cts[key[0]].c1))
                    weights.extend((w_polys[key],) * 2)
        outs = iter(self.backend.multiply_many(polys, weights))
        self._absorb_backend_mults(*stats)

        results = []
        for st in stats:
            messages, masks = {}, {}
            for label, keys in outputs.items():
                acc = Ciphertext(next(outs), next(outs))
                for _ in keys[1:]:
                    acc = ctx.add(acc, Ciphertext(next(outs), next(outs)))
                mask = ring.random(self.params.n, rng)
                ct_out = ctx.sub_plain(acc, mask)
                st.ciphertexts_returned += 1
                st.bytes_received += ct_bytes
                # Server -> client hop.
                ct_out = self._transfer_ct(ct_out, st)
                messages[label], budget = ctx.decrypt_with_budget(
                    party.sk, ct_out
                )
                st.min_noise_budget = min(st.min_noise_budget, budget)
                masks[label] = mask
            results.append((messages, masks))
        return results

    def _run_guarded(
        self,
        x: np.ndarray,
        w: np.ndarray,
        rng: np.random.Generator,
        session: Optional[_PartyPair],
    ) -> List[ProtocolResult]:
        """Preflight, run, observe; rerun on the exact fallback backend
        (results marked ``degraded``) when the guard predicts or observes
        noise-budget exhaustion."""
        with obs_trace.tracer.span(self._span):
            party = session or _PartyPair(self.params, rng)
            guarded = self._guarded()
            if not guarded or not self.guard.preflight(
                w, num_accumulated=self.num_accumulated, layer=self.layer_name
            ):
                results = self._run_once(x, w, rng, party)
                worst = max((r.max_error for r in results), default=0)
                if not guarded or not self.guard.observe(
                    worst, layer=self.layer_name
                ):
                    return results
            results = self._fallback_protocol()._run_guarded(
                x, w, rng, party
            )
            for result in results:
                result.stats.degraded = True
            return results

    def _transfer_ct(self, ct: Ciphertext, stats: ProtocolStats) -> Ciphertext:
        """Route one ciphertext through the resilient transport.

        Identity when no transport is configured.  Retry/timeout/checksum
        counters accumulated by the session during this transfer are
        attributed to ``stats`` (per-layer / per-item accounting).
        """
        if self.transport is None:
            return ct
        with obs_trace.tracer.span("protocol.transfer"):
            return self._transfer_ct_routed(ct, stats)

    def _transfer_ct_routed(
        self, ct: Ciphertext, stats: ProtocolStats
    ) -> Ciphertext:
        before = self.transport.stats
        base = (
            before.retries,
            before.timeouts,
            before.checksum_failures + before.decode_failures,
            before.dead_letters,
        )
        try:
            return self.transport.transfer_ciphertext(ct, self.params)
        finally:
            after = self.transport.stats
            stats.retries += after.retries - base[0]
            stats.timeouts += after.timeouts - base[1]
            stats.checksum_failures += (
                after.checksum_failures + after.decode_failures - base[2]
            )
            stats.dead_letters += after.dead_letters - base[3]

    def _guarded(self) -> bool:
        """Degradation applies only where an exact fallback exists: the
        approximate-FFT backends (the exact paths have nothing to fall
        back to -- undersized parameters there are a hard error)."""
        return self.guard is not None and isinstance(
            self.backend, BatchedFftBackend
        )

    def _absorb_backend_mults(self, *stats: ProtocolStats) -> None:
        """Attribute the backend's weight-transform mult accounting.

        Reads the ``last_stats`` left by the most recent ``multiply_many``
        call (the sparse runtime backend reports realized/dense/model
        counts there); call sites invoke this immediately after the
        batched product call.  Counts are per logical layer workload, so
        -- like ``weight_transforms`` -- each item of a batch is charged
        the full shared-transform count.
        """
        last = self.backend.last_stats
        cluster = last.cluster
        for st in stats:
            st.weight_mults_realized += last.weight_mults_realized
            st.weight_mults_dense += last.weight_mults_dense
            st.weight_mults_model += last.weight_mults_model
            st.cluster_dispatches += int(cluster.get("dispatches", 0))
            st.cluster_worker_deaths += int(cluster.get("worker_deaths", 0))
            st.cluster_jobs_requeued += int(cluster.get("jobs_requeued", 0))
            st.cluster_serial_fallback_jobs += int(
                cluster.get("serial_fallback_jobs", 0)
            )
            st.cluster_recoveries += int(cluster.get("recoveries", 0))


class HybridConvProtocol(_ResilientProtocolMixin):
    """Private convolution via coefficient-encoded BFV (Cheetah-style).

    Constructor arguments are those of :class:`_ResilientProtocolMixin`;
    ``shape`` is the :class:`ConvShape` (stride/padding supported) and one
    input is ``C x H x W``.  Each stride phase x row band is one HE round
    (span ``protocol.phase_batch``) whose channel tiles are summed per
    output channel.
    """

    layer_name = "conv"
    _span = "protocol.conv_batch"
    _item_ndim = 3

    @property
    def num_accumulated(self) -> int:
        return self.shape.in_channels

    def _expected(self, x: np.ndarray, w: np.ndarray) -> np.ndarray:
        from repro.encoding.plain_eval import conv2d_direct

        return conv2d_direct(
            x, w, stride=self.shape.stride, padding=self.shape.padding
        )

    @staticmethod
    def _output_keys(keys) -> Dict[int, List]:
        """One output per channel ``m``, summing its ``(tile, m)`` tiles."""
        groups: Dict[int, List] = {}
        for tile, m in keys:
            groups.setdefault(m, []).append((tile, m))
        return groups

    def _evaluate(self, party, clients, servers, w, rng, stats):
        ring, n = party.ring, self.params.n
        s = self.shape
        y_clients = np.zeros(
            (len(stats), s.out_channels, s.out_height, s.out_width),
            dtype=np.int64,
        )
        y_servers = np.zeros_like(y_clients)
        for band in iter_conv_bands(s, n, np.stack([clients, servers]), w):
            enc = Conv2dEncoder(band.shape, n)
            with obs_trace.tracer.span("protocol.phase_batch"):
                rounds = self._he_round(
                    party, enc, band.inputs[0], band.inputs[1],
                    band.weights, rng, stats,
                )
                # Per item: the client's and the server's channel planes.
                planes = [
                    [
                        np.stack([
                            ring.reduce(enc.extract_output(poly))
                            for poly in polys.values()
                        ])
                        for polys in item
                    ]
                    for item in rounds
                ]
            rows = band.out[1]
            if rows.start == rows.stop:
                continue  # only surplus phase rows: nothing lands in y
            for item, shares in enumerate(planes):
                for y, plane in zip((y_clients, y_servers), shares):
                    y[item][band.out] = ring.add(
                        y[item][band.out], band.crop(plane)
                    )
        return y_clients, y_servers


class HybridLinearProtocol(_ResilientProtocolMixin):
    """Private fully-connected layer ``y = W @ x`` (same one-round flow).

    Constructor arguments are those of :class:`_ResilientProtocolMixin`;
    ``shape`` is the :class:`repro.encoding.linear_encoding.LinearShape`
    and one input is an ``in_features`` vector.  The layer is one HE round
    returning one ciphertext per ``(chunk, row group)`` product.
    """

    layer_name = "linear"
    _span = "protocol.linear"
    _item_ndim = 1
    num_accumulated = 1

    @staticmethod
    def _expected(x: np.ndarray, w: np.ndarray) -> np.ndarray:
        return (w @ x).astype(np.int64)

    @staticmethod
    def _output_keys(keys) -> Dict[Tuple, List]:
        """One output per ``(chunk, group)`` product."""
        return {key: [key] for key in keys}

    def _evaluate(self, party, clients, servers, w, rng, stats):
        ring = party.ring
        enc = LinearEncoder(self.shape, self.params.n)
        rounds = self._he_round(party, enc, clients, servers, w, rng, stats)
        y_clients = [ring.reduce(enc.decode_output(m)) for m, _ in rounds]
        y_servers = [ring.reduce(enc.decode_output(r)) for _, r in rounds]
        return y_clients, y_servers


def make_session(params: BfvParameters, rng: np.random.Generator) -> _PartyPair:
    """Generate reusable key material for a sequence of protocol runs."""
    return _PartyPair(params, rng)
