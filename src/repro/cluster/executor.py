"""High-level sharded execution API over the supervised worker pool.

:class:`ClusterExecutor` turns one batched runtime call into a list of
framed jobs (contiguous batch shards), runs them through the
:class:`~repro.cluster.supervisor.ClusterSupervisor` scheduling loop, and
reassembles results in input order.  Shard boundaries depend only on the
*configured* pool width, never on current pool health, so the work a
caller observes is byte-identical whether every worker lived, half the
pool was SIGKILLed, or the whole batch ran on the serial fallback.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.obs import trace as obs_trace

from repro.cluster.jobs import (
    MSG_JOB_CONV,
    MSG_JOB_MUL,
    WireBasisParams,
    conv_job_payload,
    mul_job_payload,
)
from repro.cluster.supervisor import (
    ClusterFaultInjector,
    ClusterPolicy,
    ClusterSupervisor,
)

_JOB_STAT_KEYS = (
    "products",
    "weight_transforms",
    "weight_mults_realized",
    "weight_mults_dense",
    "weight_mults_model",
)


def _split_indices(total: int, shards: int) -> List[Tuple[int, int]]:
    """Contiguous ``[start, stop)`` shard bounds (at most ``shards``)."""
    shards = max(1, min(shards, total))
    size = -(-total // shards)
    return [(i, min(i + size, total)) for i in range(0, total, size)]


class ClusterExecutor:
    """Shard batched conv / ``multiply_many`` work across worker processes.

    Like the in-process engines, the executor object is confined to its
    calling thread; the worker processes share nothing with it but the
    job pipes.

    Args:
        policy: :class:`ClusterPolicy` (pool width, deadlines, budgets).
        fault_injector: optional :class:`ClusterFaultInjector` for chaos
            campaigns and recovery tests.
        seed: PRNG seed for the supervisor's virtual requeue backoff.
    """

    def __init__(
        self,
        policy: Optional[ClusterPolicy] = None,
        fault_injector: Optional[ClusterFaultInjector] = None,
        seed: int = 0,
    ):
        self.supervisor = ClusterSupervisor(
            policy=policy, fault_injector=fault_injector, seed=seed
        )
        #: per-call supervision counters (delta of the last run), the dict
        #: that flows into ``RuntimeStats.cluster`` / ``bench-runtime --json``.
        self.last_cluster: Dict[str, float] = {}
        #: per-call sums of the worker-side job stats of the last run.
        self.last_job_stats: Dict[str, int] = {}

    # -- lifecycle -------------------------------------------------------

    def __enter__(self) -> "ClusterExecutor":
        self.supervisor.start()
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        self.supervisor.close()

    @property
    def policy(self) -> ClusterPolicy:
        return self.supervisor.policy

    @property
    def stats(self):
        return self.supervisor.stats

    # -- internals -------------------------------------------------------

    def _run(self, kind: str, payloads: List[Dict[str, Any]]) -> List[dict]:
        before = self.supervisor.stats.to_dict()
        replies = self.supervisor.run_jobs(kind, payloads)
        self.last_cluster = self.supervisor.stats.snapshot_delta(before)
        totals = {key: 0 for key in _JOB_STAT_KEYS}
        for reply in replies:
            for key in _JOB_STAT_KEYS:
                totals[key] += int(reply.get("stats", {}).get(key, 0))
        self.last_job_stats = totals
        return replies

    # -- sharded entry points --------------------------------------------

    @staticmethod
    def _stamp_deadline(
        payloads: List[Dict[str, Any]], deadline_s: Optional[float]
    ) -> List[Dict[str, Any]]:
        """Attach the request SLO budget to every job envelope.

        The supervisor arms each dispatched job's hang deadline with
        ``min(heartbeat_timeout, deadline_ms)``; workers strip the key
        before execution, so results stay byte-identical with or without
        a deadline.
        """
        if deadline_s is not None:
            for payload in payloads:
                payload["deadline_ms"] = max(1.0, float(deadline_s) * 1e3)
        return payloads

    @staticmethod
    def _stamp_trace(
        payloads: List[Dict[str, Any]]
    ) -> List[Dict[str, Any]]:
        """Attach the caller's trace context to every job envelope.

        Same discipline as ``deadline_ms``: workers strip the key before
        execution, run the job under a span parented to it, and ship the
        recorded spans back *beside* the result data, so traced results
        stay byte-identical to untraced runs.  No-op when tracing is off
        or no span is active.
        """
        return obs_trace.stamp_trace_context(payloads)

    def conv2d_batch(
        self,
        mode: str,
        weight_config,
        xs: np.ndarray,
        w: np.ndarray,
        shape,
        n: int,
        deadline_s: Optional[float] = None,
    ) -> np.ndarray:
        """Batched clear-domain convolution, sharded along the batch axis.

        Bit-identical to one unsharded
        :meth:`repro.runtime.engine.BatchedHConvEngine.conv2d_batch` call:
        batch items are independent, and the exact NTT path yields the
        same residues for any admissible per-shard modulus choice.

        Args:
            deadline_s: optional remaining request budget; propagated as
                a per-job ``deadline_ms`` so the supervisor declares
                hung workers within the request SLO.
        """
        xs = np.ascontiguousarray(xs, dtype=np.int64)
        payloads = self._stamp_deadline(
            [
                conv_job_payload(mode, weight_config, n, shape, xs[lo:hi], w)
                for lo, hi in _split_indices(len(xs), self.policy.workers)
            ],
            deadline_s,
        )
        replies = self._run(MSG_JOB_CONV, self._stamp_trace(payloads))
        return np.concatenate([reply["out"] for reply in replies])

    def multiply_many(
        self,
        backend: str,
        weight_config,
        pattern,
        polys: List,
        weights_list: List[np.ndarray],
        deadline_s: Optional[float] = None,
    ) -> List:
        """Sharded plaintext products over serialized ring polynomials.

        Every polynomial crosses the process boundary in the
        :mod:`repro.protocol.wire` format (validated by
        ``deserialize_poly`` on the worker, re-validated on the reply), so
        the cluster path exercises exactly the wire checks the protocol
        transport relies on.
        """
        from repro.protocol.wire import deserialize_poly, serialize_poly

        if len(polys) != len(weights_list):
            raise ValueError("polys and weights_list must have equal length")
        if not polys:
            return []
        basis = polys[0].basis
        blobs = [serialize_poly(p) for p in polys]
        out_blobs = self.multiply_many_blobs(
            backend, weight_config, pattern, basis, blobs, weights_list,
            deadline_s=deadline_s,
        )
        params = WireBasisParams(basis)
        outs = []
        for blob in out_blobs:
            poly, _ = deserialize_poly(blob, params)
            outs.append(poly)
        return outs

    def multiply_many_blobs(
        self,
        backend: str,
        weight_config,
        pattern,
        basis,
        blobs: List[bytes],
        weights_list: List[np.ndarray],
        deadline_s: Optional[float] = None,
    ) -> List[bytes]:
        """:meth:`multiply_many` over already-serialized polynomials.

        The serving layer receives polynomials as wire blobs and returns
        them as wire blobs; this entry point avoids a pointless
        deserialize/re-serialize round-trip at the coalescer.  Outputs
        are the workers' serialized result polynomials, in input order.
        """
        if len(blobs) != len(weights_list):
            raise ValueError("blobs and weights_list must have equal length")
        if not blobs:
            return []
        payloads = self._stamp_deadline(
            [
                mul_job_payload(
                    backend, weight_config, pattern, basis,
                    blobs[lo:hi], weights_list[lo:hi],
                )
                for lo, hi in _split_indices(len(blobs), self.policy.workers)
            ],
            deadline_s,
        )
        replies = self._run(MSG_JOB_MUL, self._stamp_trace(payloads))
        outs: List[bytes] = []
        for reply in replies:
            outs.extend(reply["polys"])
        return outs


def make_executor(
    workers: int = 2,
    heartbeat_timeout: float = 30.0,
    max_respawns: int = 8,
    min_workers: int = 1,
    fault_injector: Optional[ClusterFaultInjector] = None,
    seed: int = 0,
) -> ClusterExecutor:
    """Convenience constructor used by the engine/CLI wiring."""
    policy = ClusterPolicy(
        workers=workers,
        heartbeat_timeout=heartbeat_timeout,
        max_respawns=max_respawns,
        min_workers=min_workers,
    )
    return ClusterExecutor(
        policy=policy, fault_injector=fault_injector, seed=seed
    )
