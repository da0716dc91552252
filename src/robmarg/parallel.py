"""An ordered map over chunks of independent items, across CPU processes.

The jackknife's leave-one-out sets and the Monte Carlo replications are
independent of one another.  A chunk function maps a contiguous chunk of
them to their results, so that a chunk's MM fits can be one stack; numpy
releases too little of the GIL for threads to help, so the chunks may run
in a pool of spawned processes.  The results come back in item order, so
anything that sums them adds the same values in the same order as a run in
one process: the output is bit-identical for any worker count.

Spawned workers re-import the caller's ``__main__`` module, so a script that
calls into robmarg must keep its work under ``if __name__ == "__main__":``.
"""

from __future__ import annotations

import os
import sys
from time import perf_counter
from typing import Callable, Sequence

__all__ = ["available_cpus", "importing_main_in_worker", "ordered_map"]

# Items per chunk: an n = 100 MM fit takes 9.2 ms alone, 6.8 / 4.9 / 4.1 ms
# in stacks of 10 / 64 / 256 (2 vCPU), and bigger chunks leave fewer to
# share among worker processes.
_CHUNK = 64
# Starting a spawned worker (a fresh interpreter importing numpy and
# robmarg) takes about 0.3 s on a 2-vCPU host, in parallel across workers.
# The pool starts only when the remaining items, timed by the first one, are
# projected to take _START_FACTOR times that: below it, the workers would
# spend most of what they could save on starting up.
_WORKER_START_S = 0.3
_START_FACTOR = 4.0
# The items' costs can cluster, so each worker's share is split in several
# contiguous chunks that go to whichever worker is free.
_CHUNKS_PER_WORKER = 4


def available_cpus() -> int:
    """Number of CPUs this process may run on."""
    return len(os.sched_getaffinity(0))


def importing_main_in_worker() -> bool:
    """Whether this is a spawned worker running the caller's script as
    ``__mp_main__``, which it does before it learns its parent process."""
    main = sys.modules.get("__mp_main__")
    if main is None or main.__name__ != "__mp_main__":
        return False
    import multiprocessing

    return multiprocessing.parent_process() is None


def _pool_map(fn: Callable, chunks: list, workers: int) -> list:
    # Imported here: a run that stays in one process, as most do, is spared
    # their import time and memory (about 14 ms and 1.5 MiB).
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    context = multiprocessing.get_context("spawn")
    try:
        with ProcessPoolExecutor(workers, mp_context=context) as pool:
            return list(pool.map(fn, chunks))
    except BrokenProcessPool as exc:
        raise RuntimeError(
            "a worker process ended abruptly; a script that calls robmarg "
            "must start it under 'if __name__ == \"__main__\":', because "
            "each spawned worker re-imports the script"
        ) from exc


def ordered_map(fn: Callable, items: Sequence, workers: int = 1) -> list:
    """The results of ``items`` in order, from ``fn`` on contiguous chunks
    of them, across up to ``workers`` processes.

    ``fn`` maps a list of at most ``_CHUNK`` items to the list of their
    results; a list of another length is an error.  With one usable worker
    (``workers`` capped by ``available_cpus()`` and the item count) every
    chunk runs in the calling process.  Otherwise the first item runs alone
    there and is timed, and the rest go to a pool of that many spawned
    processes, in chunks of at most min(_CHUNK, rest / (4 workers)) items,
    only when that time, projected over them, pays for starting the
    workers.  ``fn`` and the items must pickle when a pool may start.
    Every worker has ended when this returns or raises; a worker that dies
    raises RuntimeError.
    """
    if workers < 1:
        raise ValueError("workers must be at least 1")
    items = list(items)
    workers = min(workers, available_cpus(), len(items))
    chunks, parts, size = [], [], _CHUNK
    if workers > 1:
        start = perf_counter()
        chunks, parts = [items[:1]], [fn(items[:1])]
        items = items[1:]
        projected = (perf_counter() - start) * len(items)
        workers = min(workers, len(items))
        if workers > 1 and projected >= _START_FACTOR * _WORKER_START_S:
            size = min(size, -(-len(items) // (workers * _CHUNKS_PER_WORKER)))
        else:
            workers = 1
    rest = [items[k:k + size] for k in range(0, len(items), size)]
    chunks += rest
    parts += _pool_map(fn, rest, workers) if workers > 1 else map(fn, rest)
    results = []
    for chunk, part in zip(chunks, parts):
        if len(part) != len(chunk):
            raise ValueError(
                f"a chunk of {len(chunk)} items gave {len(part)} results")
        results += part
    return results
