"""Order-preserving parallel map and the subset scan of the subset deciders.

A scan with at least two workers and two subsets forks one pool of worker
processes and keeps it for the whole scan; pmap maps over that pool.  The
deciders filter their subsets before the scan, so a subset that a cheap test
rejects never leaves the parent process.  Results come back in input order
regardless of worker count, so callers that scan results in order are
schedule-independent by construction.
"""

import multiprocessing
from contextlib import nullcontext
from functools import partial
from itertools import islice

from .errors import ResourceLimitError, WorkerStartError

_POOL = None  # the worker pool of the scan in progress, if it has one


def pmap(fn, items, workers=1):
    """[fn(x) for x in items], on the running scan's pool when it has one."""
    items = list(items)
    if _POOL is None or len(items) <= 1:
        return [fn(x) for x in items]
    chunksize = max(1, len(items) // (workers * 4))
    return _POOL.map(fn, items, chunksize)


def _fork_pool(workers):
    try:
        return multiprocessing.get_context("fork").Pool(workers)
    except OSError as e:
        raise WorkerStartError(
            e.errno, f"cannot start {workers} workers: {e.strerror}"
        ) from e


def _settle(task, subset):
    try:
        return task(subset)
    except ResourceLimitError as e:
        return e  # settled inside the worker, counted by the scan


def scan_subsets(task, subsets, workers):
    """(frozenset(subset), payload) of the first subset whose task says yes.

    task(subset) returns a payload or None, or raises ResourceLimitError when
    its budget runs out.  subsets may be any iterable; it is read one block
    at a time.  Blocks of 16 subsets per worker go through pmap in order, so
    the outcome does not depend on the worker count; a scan without a pool
    runs them one by one in this process, none after the first YES.  None
    means every subset said no; if some ran out instead, ResourceLimitError
    is raised with their number as its count.  A pool that cannot be forked
    raises WorkerStartError.
    """
    global _POOL
    subsets = iter(subsets)
    settle = partial(_settle, task)
    chunk = max(1, workers) * 16
    unknown = 0
    block = list(islice(subsets, chunk))
    forks = workers >= 2 and len(block) >= 2
    with _fork_pool(workers) if forks else nullcontext() as pool:
        _POOL = pool
        try:
            while block:
                results = map(settle, block) if pool is None else pmap(settle, block, workers)
                for subset, res in zip(block, results):
                    if isinstance(res, ResourceLimitError):
                        unknown += 1
                    elif res is not None:
                        return frozenset(subset), res
                block = list(islice(subsets, chunk))
        finally:
            _POOL = None
    if unknown:
        raise ResourceLimitError(
            f"{unknown} subset searches exhausted the budget", count=unknown
        )
    return None
