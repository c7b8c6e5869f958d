"""Order-preserving parallel map and the subset scan of the subset deciders.

Results come back in input order regardless of worker count, so callers that
scan results in order are schedule-independent by construction.
"""

import multiprocessing
from functools import partial

from .errors import ResourceLimitError


def pmap(fn, items, workers=1):
    items = list(items)
    if workers <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    ctx = multiprocessing.get_context("fork")
    chunksize = max(1, len(items) // (workers * 4))
    with ctx.Pool(workers) as pool:
        return pool.map(fn, items, chunksize)


def _settle(task, subset):
    try:
        return task(subset)
    except ResourceLimitError as e:
        return e  # settled inside the worker, counted by the scan


def scan_subsets(task, subsets, workers):
    """(frozenset(subset), payload) of the first subset whose task says yes.

    task(subset) returns a payload or None, or raises ResourceLimitError when
    its budget runs out.  Blocks of 16 subsets per worker go through pmap in
    order, so the outcome does not depend on the worker count.  None means
    every subset said no; if some ran out instead, ResourceLimitError is
    raised with their number as its count.
    """
    subsets = list(subsets)
    settle = partial(_settle, task)
    chunk = max(1, workers) * 16
    unknown = 0
    for i in range(0, len(subsets), chunk):
        block = subsets[i : i + chunk]
        for subset, res in zip(block, pmap(settle, block, workers=workers)):
            if isinstance(res, ResourceLimitError):
                unknown += 1
            elif res is not None:
                return frozenset(subset), res
    if unknown:
        raise ResourceLimitError(
            f"{unknown} subset searches exhausted the budget", count=unknown
        )
    return None
