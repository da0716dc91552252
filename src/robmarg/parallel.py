"""An ordered map over chunks of independent items, across CPU processes.

The jackknife's leave-one-out sets and the Monte Carlo replications are
independent of one another.  A chunk function maps a contiguous chunk of
them to their results, so that a chunk's MM fits can be one stack; numpy
releases too little of the GIL for threads to help, so the chunks may run
in a pool of forked processes.  The results come back in item order, so
anything that sums them adds the same values in the same order as a run in
one process: the output is bit-identical for any worker count.

A forked worker starts as a copy of the calling process, with its modules
already imported, and never imports the caller's script: a script needs no
``if __name__ == "__main__":`` guard, and a pool of two starts and stops in
10-15 ms (2 vCPU; spawned workers, each importing numpy and robmarg, took
0.37-0.45 s).  Fork is the Linux premise the package already has
(``available_cpus`` reads the affinity mask).  On Python >= 3.12, forking
a process that holds OpenBLAS's threads emits a DeprecationWarning about
fork in a multi-threaded process; it is left to the warning filters.
"""

from __future__ import annotations

import os
from typing import Callable, Sequence

__all__ = ["available_cpus", "ordered_map"]

# Items per chunk: an n = 100 MM fit takes 9.2 ms alone, 6.8 / 4.9 / 4.1 ms
# in stacks of 10 / 64 / 256 (2 vCPU), and bigger chunks leave fewer to
# share among worker processes.
_CHUNK = 64
# The items' costs can cluster, so each worker's share is split in several
# contiguous chunks that go to whichever worker is free.
_CHUNKS_PER_WORKER = 4


def available_cpus() -> int:
    """Number of CPUs this process may run on."""
    return len(os.sched_getaffinity(0))


def _pool_map(fn: Callable, chunks: list, workers: int) -> list:
    # Imported here: a run that stays in one process, as most do, is spared
    # their import time and memory (about 14 ms and 1.5 MiB).
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    context = multiprocessing.get_context("fork")
    try:
        with ProcessPoolExecutor(workers, mp_context=context) as pool:
            return list(pool.map(fn, chunks))
    except BrokenProcessPool as exc:
        raise RuntimeError("a worker process ended abruptly") from exc


def ordered_map(fn: Callable, items: Sequence, workers: int = 1) -> list:
    """The results of ``items`` in order, from ``fn`` on contiguous chunks
    of them, across up to ``workers`` processes.

    ``fn`` maps a list of at most ``_CHUNK`` items to the list of their
    results; a list of another length is an error.  With one usable worker
    (``workers`` capped by ``available_cpus()`` and the item count) every
    chunk runs in the calling process.  With more, the chunks go to a pool
    of that many forked processes, and hold at most
    min(_CHUNK, items / (4 workers)) items each.  ``fn``, the items and
    the results must pickle when a pool starts.  Every worker has ended
    when this returns or raises; a worker that dies raises RuntimeError.
    """
    if workers < 1:
        raise ValueError("workers must be at least 1")
    items = list(items)
    workers = min(workers, available_cpus(), len(items))
    size = _CHUNK
    if workers > 1:
        size = min(size, -(-len(items) // (workers * _CHUNKS_PER_WORKER)))
    chunks = [items[k:k + size] for k in range(0, len(items), size)]
    parts = _pool_map(fn, chunks, workers) if workers > 1 else map(fn, chunks)
    results = []
    for chunk, part in zip(chunks, parts):
        if len(part) != len(chunk):
            raise ValueError(
                f"a chunk of {len(chunk)} items gave {len(part)} results")
        results += part
    return results
