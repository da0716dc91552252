"""An ordered map over independent items, run across CPU processes.

The jackknife's leave-one-out sets and the Monte Carlo replications are
independent of one another, and numpy releases too little of the GIL for
threads to help, so they run in a pool of spawned processes.  The workers
take contiguous chunks of the items and the results come back in item
order, so anything that sums them adds the same values in the same order as
a run in one process: the output is bit-identical for any worker count.

Spawned workers re-import the caller's ``__main__`` module, so a script that
calls into robmarg must keep its work under ``if __name__ == "__main__":``.
"""

from __future__ import annotations

import functools
import os
from time import perf_counter
from typing import Callable, Sequence

__all__ = ["available_cpus", "ordered_map"]

# Starting a spawned worker (a fresh interpreter importing numpy and
# robmarg) takes about 0.3 s on a 2-vCPU host, in parallel across workers.
# The pool starts only when the remaining items, timed by the first one, are
# projected to take _START_FACTOR times that: below it, the workers would
# spend most of what they could save on starting up.
_WORKER_START_S = 0.3
_START_FACTOR = 4.0
# The items' costs can cluster (the jackknife's cheaper sets gather where the
# data's incomplete rows do), so each worker's share is split in several
# contiguous chunks that go to whichever worker is free.
_CHUNKS_PER_WORKER = 4


def available_cpus() -> int:
    """Number of CPUs this process may run on."""
    return len(os.sched_getaffinity(0))


def _run_chunk(fn: Callable, chunk: Sequence) -> list:
    return [fn(item) for item in chunk]


def _pool_map(fn: Callable, items: Sequence, workers: int) -> list:
    # Imported here: a run that stays in one process, as most do, is spared
    # their import time and memory (about 14 ms and 1.5 MiB).
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    size = -(-len(items) // (workers * _CHUNKS_PER_WORKER))
    chunks = [items[k:k + size] for k in range(0, len(items), size)]
    context = multiprocessing.get_context("spawn")
    try:
        with ProcessPoolExecutor(workers, mp_context=context) as pool:
            parts = list(pool.map(functools.partial(_run_chunk, fn), chunks))
    except BrokenProcessPool as exc:
        raise RuntimeError(
            "a worker process ended abruptly; a script that calls robmarg "
            "must start it under 'if __name__ == \"__main__\":', because "
            "each spawned worker re-imports the script"
        ) from exc
    return [result for part in parts for result in part]


def ordered_map(
    fn: Callable,
    items: Sequence,
    workers: int = 1,
    on_first: Callable[[], None] | None = None,
) -> list:
    """``[fn(item) for item in items]``, across up to ``workers`` processes.

    The first item runs in the calling process, then ``on_first`` is
    called.  The rest go to a pool of at most ``workers`` spawned processes
    (and no more than ``available_cpus()``) only when the first item's time,
    projected over them, pays for starting the workers; otherwise they run
    in the calling process too.  ``fn`` and the items must pickle when a
    pool may start.  Every worker has ended when this returns or raises; a
    worker that dies raises RuntimeError.
    """
    if workers < 1:
        raise ValueError("workers must be at least 1")
    items = list(items)
    if not items:
        return []
    start = perf_counter()
    first = fn(items[0])
    projected = (perf_counter() - start) * (len(items) - 1)
    if on_first is not None:
        on_first()
    rest = items[1:]
    workers = min(workers, available_cpus(), len(rest))
    if workers < 2 or projected < _START_FACTOR * _WORKER_START_S:
        return [first] + [fn(item) for item in rest]
    return [first] + _pool_map(fn, rest, workers)
