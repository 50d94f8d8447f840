"""Fixture: DET001 -- nondeterminism feeding a thread pool."""

import random
import time
from concurrent.futures import ThreadPoolExecutor


def schedule(batches):
    # BAD: set iteration order is arbitrary, so the job list (and with it
    # the result order) varies run to run.
    jobs = [(idx, b) for idx, b in enumerate({id(b) for b in batches})]

    def job(pair):
        # BAD: wall-clock reads inside a deterministic kernel.
        started = time.monotonic()
        # BAD: unseeded randomness inside a deterministic kernel.
        jitter = random.random()
        return pair[0], started, jitter

    pool = ThreadPoolExecutor()
    return [pool.submit(job, pair).result() for pair in jobs]
