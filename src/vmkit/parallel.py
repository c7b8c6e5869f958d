"""Order-preserving parallel map and the subset scan of the subset deciders.

A scan with at least two workers and two subsets forks one pool of worker
processes and keeps it for the whole scan; pmap maps over that pool.  The
deciders filter their subsets before the scan, so a subset that a cheap test
rejects never leaves the parent process.  Results come back in input order
regardless of worker count, so callers that scan results in order are
schedule-independent by construction.

A scan over the vertex subsets of a graph skips the subsets that one of the
graph's automorphisms maps onto an earlier subset that said NO: take
R = p(S) for a listed automorphism p, with R before S in lexicographic
order.  If R's search said NO, or R was itself skipped, S is NO without a
search; if R ran out of budget, S is searched.  This is sound because an
automorphism carries a YES of S to a YES of R (it preserves SOET existence
in a multigraph and the vertex-minor relation in a simple graph), and the
deciders' filters are invariant under automorphisms, so R is a candidate
whenever S is.  The first YES never has an earlier NO image, so it is
always searched and every answer and witness is the one of a scan without
automorphisms.  With a budget the rule only turns an open subset into a
settled NO.  The rule depends only on what earlier subsets said, so a scan
searches the same subsets at every worker count.
"""

from contextlib import nullcontext
from functools import lru_cache, partial
from itertools import chain, islice
from operator import or_

from .errors import ResourceLimitError, WorkerStartError
from .graphs import automorphisms

_POOL = None  # the worker pool of the scan in progress, if it has one


def pmap(fn, items, workers=1):
    """[fn(x) for x in items], on the running scan's pool when it has one."""
    items = list(items)
    if _POOL is None or len(items) <= 1:
        return [fn(x) for x in items]
    chunksize = max(1, len(items) // (workers * 4))
    return _POOL.map(fn, items, chunksize)


def _fork_pool(workers):
    import multiprocessing  # here, not at import time: most runs never fork

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


@lru_cache(maxsize=256)
def _image_tables(graph):
    """Per 4-bit digit of a subset key, the key of its image under each
    automorphism.

    Keys put vertex i at bit n-1-i, so one subset comes before another of
    the same size in lexicographic order exactly when its key is larger.
    tables[c][d] holds the images of the key bits 4c..4c+3 set in d; the
    image of a key is the OR of its digits' entries.  No automorphism, no
    tables.
    """
    perms = automorphisms(graph)
    if not perms:
        return ()
    n = len(graph.vertices)
    # the images of key bit q, which stands for vertex n-1-q
    single = [tuple(1 << (n - 1 - p[n - 1 - q]) for p in perms) for q in range(n)]
    tables = []
    for lo in range(0, n, 4):
        t = [(0,) * len(perms)]
        for d in range(1, 1 << min(4, n - lo)):
            t.append(tuple(map(or_, t[d & (d - 1)], single[lo + (d & -d).bit_length() - 1])))
        tables.append(tuple(t))
    return tuple(tables)


class _Past:
    """What a scan knows of the subsets before the one in hand.

    An earlier subset is pending while its block has not settled it, open
    once its search ran out of budget, and otherwise settled: it said NO,
    was skipped, or said YES, after which nothing later matters.  With a
    graph, keys are bitmasks (see _image_tables); without one, subsets are
    their own keys and nothing is skipped.  The automorphisms are listed
    once a subset may have an earlier image that settles: at the first NO,
    or at once when blocks are searched in parallel, since a block's
    subsets may wait for one another.
    """

    def __init__(self, graph, parallel):
        self.graph = graph
        self.open = set()
        self.pending = set()  # the current block's unsettled keys
        self.live = parallel
        if graph is not None:
            n = len(graph.vertices)
            self.bit = {v: 1 << (n - 1 - i) for i, v in enumerate(graph.vertices)}

    def key(self, subset):
        if self.graph is None:
            return tuple(subset)
        return sum(map(self.bit.__getitem__, subset))

    def verdict(self, m):
        """True to search the subset with key m, False when an earlier image
        settled it, None while an earlier image is pending."""
        if not self.live or self.graph is None:
            return True
        tables = _image_tables(self.graph)
        if not tables:
            return True
        images, rest, c = tables[0][m & 15], m >> 4, 1
        while rest:
            images = map(or_, images, tables[c][rest & 15])
            rest, c = rest >> 4, c + 1
        wait = False
        for r in images:
            if r > m:  # an earlier subset
                if r in self.pending:
                    wait = True
                elif r not in self.open:
                    return False
        return None if wait else True


def _read_block(subsets, past, size):
    """The next block: [(key, subset)] in order, up to size of them ready to
    search, with the subsets between them that wait; the subsets that an
    earlier image settles are dropped as they are read."""
    block, ready = [], 0
    for s in subsets:
        m = past.key(s)
        v = past.verdict(m)
        if v is False:
            continue
        block.append((m, s))
        past.pending.add(m)
        ready += bool(v)
        if ready == size:
            break
    return block


def _scan_block(settle, block, past, workers):
    """(subset, payload) of the block's first YES, or None.

    Rounds search the subsets whose earlier images are all open, skip those
    with a settled one, and leave the rest for the next round; the block
    ends once nothing before its first YES is left.
    """
    todo = range(len(block))
    first = None  # (index, payload) of the first YES so far
    while todo:
        run, wait = [], []
        for i in todo:
            v = past.verdict(block[i][0])
            if v is None:
                wait.append(i)
            elif v:
                run.append(i)
            else:
                past.pending.discard(block[i][0])
        results = pmap(settle, [block[i][1] for i in run], workers)
        for i, res in zip(run, results):
            m = block[i][0]
            past.pending.discard(m)
            if isinstance(res, ResourceLimitError):
                past.open.add(m)
                continue
            past.live = True
            if res is not None and (first is None or i < first[0]):
                first = (i, res)
        todo = [i for i in wait if first is None or i < first[0]]
    return None if first is None else (frozenset(block[first[0]][1]), first[1])


def scan_subsets(task, subsets, workers, graph=None):
    """(frozenset(subset), payload) of the first subset whose task says yes.

    task(subset) returns a payload or None, or raises ResourceLimitError when
    its budget runs out.  subsets may be any iterable; it is read one block
    at a time.  Blocks of 16 subsets per worker go through pmap in order, so
    the outcome does not depend on the worker count; a scan without a pool
    runs them one by one in this process, none after the first YES.  None
    means every subset said no; if some ran out instead, ResourceLimitError
    is raised with their number as its count.  A pool that cannot be forked
    raises WorkerStartError.

    With a graph, subsets are vertex subsets of it of one size, in
    lexicographic order; any subset that is not listed counts as NO, and a subset with an earlier
    NO image under an automorphism of the graph is NO without a search (see
    the module docstring).  Such subsets do not count toward a block; a
    subset whose earlier image is pending in the same block waits for that
    image's result.
    """
    global _POOL
    subsets = iter(subsets)
    chunk = max(1, workers) * 16
    first = list(islice(subsets, chunk))
    subsets = chain(first, subsets)
    forks = workers >= 2 and len(first) >= 2
    settle = partial(_settle, task)
    past = _Past(graph, forks)
    with _fork_pool(workers) if forks else nullcontext() as pool:
        _POOL = pool
        try:
            size = chunk if forks else 1
            while block := _read_block(subsets, past, size):
                found = _scan_block(settle, block, past, workers)
                if found is not None:
                    return found
        finally:
            _POOL = None
    if past.open:
        n = len(past.open)
        raise ResourceLimitError(f"{n} subset searches exhausted the budget", count=n)
    return None
