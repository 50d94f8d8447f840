"""Resilient message sessions: bounded retry, backoff + jitter, dead letters.

A :class:`ResilientSession` carries opaque payloads (typically serialized
ciphertexts) across a :class:`repro.faults.channel.Channel`, retrying on
every *detected* fault -- nothing delivered, delivery past the timeout,
checksum mismatch, or undecodable frame.  Retries back off exponentially
with seeded jitter; a message that exhausts its attempt budget is recorded
as a dead letter and raised as :class:`TransportError`, never silently
dropped.

Latency is virtual (compared against the policy timeout, no real
sleeping), so protocol tests and chaos campaigns run at full speed and are
bit-reproducible under a fixed seed.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass
from typing import Optional

from repro.faults.channel import (
    Channel,
    ChecksumError,
    DeadLetter,
    PerfectChannel,
    TransportError,
    TransportStats,
    decode_frame,
    encode_frame,
)


@dataclass(frozen=True)
class RetryPolicy:
    """Retry/backoff parameters of one session.

    Args:
        max_attempts: total tries per message (first send included).
        base_delay: backoff before the first retry (seconds, virtual).
        max_delay: backoff ceiling.
        jitter: uniform multiplicative jitter in ``[0, jitter]`` added to
            each backoff (decorrelates retry storms across sessions).
        timeout: per-delivery latency budget; slower deliveries count as
            timeouts and trigger a retry.
    """

    max_attempts: int = 12
    base_delay: float = 0.01
    max_delay: float = 1.0
    jitter: float = 0.5
    timeout: float = 0.25

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay < 0 or self.max_delay < self.base_delay:
            raise ValueError("need 0 <= base_delay <= max_delay")
        if self.jitter < 0:
            raise ValueError("jitter must be >= 0")
        if self.timeout <= 0:
            raise ValueError("timeout must be > 0")

    def backoff(self, attempt: int, rng: random.Random) -> float:
        """Virtual backoff before retry number ``attempt`` (1-based)."""
        delay = min(self.max_delay, self.base_delay * (2.0 ** (attempt - 1)))
        return delay * (1.0 + self.jitter * rng.random())


class ResilientSession:
    """Reliable request pipe over an unreliable channel.

    A session is used from one thread in the shipped code but stays safe
    to share across threads: sequence numbers are allocated and
    statistics folded in under ``_lock``, and each in-flight transfer
    tallies its counters locally so the lock is never held across a
    channel round-trip.

    Args:
        channel: transport to send frames through (lossless by default).
        policy: retry/backoff/timeout parameters.
        seed: PRNG seed for backoff jitter.
    """

    def __init__(
        self,
        channel: Optional[Channel] = None,
        policy: Optional[RetryPolicy] = None,
        seed: int = 0,
    ):
        self.channel = channel if channel is not None else PerfectChannel()
        self.policy = policy if policy is not None else RetryPolicy()
        self.stats = TransportStats()
        self._rng = random.Random(seed)
        self._next_seq = 0
        self._lock = threading.Lock()

    def _allocate_seq(self) -> int:
        with self._lock:
            seq = self._next_seq
            self._next_seq += 1
            return seq

    def _draw_backoff(self, attempt: int) -> float:
        # The shared PRNG is stateful; drawing under the lock keeps
        # concurrent transfers from interleaving inside its state.
        with self._lock:
            return self.policy.backoff(attempt, self._rng)

    def _fold_stats(self, tally: TransportStats) -> None:
        with self._lock:
            s = self.stats
            s.messages += tally.messages
            s.attempts += tally.attempts
            s.retries += tally.retries
            s.timeouts += tally.timeouts
            s.checksum_failures += tally.checksum_failures
            s.decode_failures += tally.decode_failures
            s.duplicates_discarded += tally.duplicates_discarded
            s.dead_letters += tally.dead_letters
            s.backoff_seconds += tally.backoff_seconds
            s.dead_letter_log.extend(tally.dead_letter_log)

    def transfer_bytes(self, payload: bytes) -> bytes:
        """Deliver ``payload`` across the channel, retrying detected faults.

        Returns the payload as received (always byte-identical to the
        input: every corruption is caught by the frame CRC and retried).

        Raises:
            TransportError: the attempt budget ran out; the message is
                appended to ``stats.dead_letter_log`` first.
        """
        seq = self._allocate_seq()
        frame = encode_frame(seq, payload)
        tally = TransportStats()
        tally.messages += 1
        last_error = "no delivery"
        for attempt in range(1, self.policy.max_attempts + 1):
            tally.attempts += 1
            if attempt > 1:
                tally.retries += 1
                tally.backoff_seconds += self._draw_backoff(attempt - 1)
            deliveries = self.channel.transmit(frame)
            received: Optional[bytes] = None
            for latency, data in deliveries:
                if latency > self.policy.timeout:
                    tally.timeouts += 1
                    last_error = f"delivery exceeded {self.policy.timeout}s"
                    continue
                try:
                    rseq, rpayload = decode_frame(data)
                except ChecksumError as exc:
                    tally.checksum_failures += 1
                    last_error = str(exc)
                    continue
                except ValueError as exc:
                    tally.decode_failures += 1
                    last_error = str(exc)
                    continue
                if rseq != seq or received is not None:
                    tally.duplicates_discarded += 1
                    continue
                received = rpayload
            if received is not None:
                self._fold_stats(tally)
                return received
            if not deliveries:
                tally.timeouts += 1
                last_error = "frame dropped (nothing delivered)"
        tally.dead_letters += 1
        tally.dead_letter_log.append(
            DeadLetter(
                seq=seq,
                payload_bytes=len(payload),
                attempts=self.policy.max_attempts,
                last_error=last_error,
            )
        )
        self._fold_stats(tally)
        raise TransportError(
            f"message seq {seq} ({len(payload)} bytes) undeliverable after "
            f"{self.policy.max_attempts} attempts: {last_error}"
        )

    def transfer_ciphertext(self, ct, params):
        """Carry one BFV ciphertext across the channel and re-parse it.

        Args:
            ct: a :class:`repro.he.bfv.Ciphertext`.
            params: the :class:`repro.he.params.BfvParameters` the receiver
                validates the wire bytes against.
        """
        from repro.protocol.wire import (
            deserialize_ciphertext,
            serialize_ciphertext,
        )

        data = self.transfer_bytes(serialize_ciphertext(ct))
        return deserialize_ciphertext(data, params)
