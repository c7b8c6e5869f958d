"""The subset scan of the subset deciders.

scan_subsets reads its subsets in order and ends at the first one that does
not say NO: a YES is the answer, and a subset that ran out of budget raises
ResourceLimitError, which names it.  At one worker it searches the subsets
one at a time in this process.  With N >= 2 workers and at least two
subsets it forks N worker processes once per scan, each with its own pipe,
and deals the subsets out in turn: chunk c of CHUNK = 8 subsets goes to
worker c mod N, which answers with the chunk's first subset that does not
say NO, or with nothing.  The scan reads the answers in chunk order, so it
ends where a serial scan ends.  Each worker holds at most two chunks sent
and not yet read, so at most 16 * N subsets lie past the oldest unsettled
one, and a YES is seen only once every older chunk has been read.  The
deciders filter their subsets before the scan, so a subset that a cheap
test rejects never leaves the parent process.

orbit_least drops each subset that a listed automorphism of the graph maps
onto an earlier subset, the orderly-generation test of Read (1978) and
McKay (1998).  An automorphism carries a YES of S to a YES of its image (it
preserves SOET existence in a multigraph and the vertex-minor relation in a
simple graph), and the deciders' filters are invariant under automorphisms,
so the image is a candidate whenever S is.  The least YES therefore has no
earlier image and is kept, and every answer and witness is that of a scan
without automorphisms.  A dropped subset has a kept subset before it in the
same orbit, so it says NO when every kept subset before it says NO; with a
budget, too, a scan of the kept subsets gives the unbudgeted YES or ends at
a subset that ran out.
"""

from functools import lru_cache
from itertools import chain, islice
from operator import or_

from .errors import ResourceLimitError, WorkerError
from .graphs import automorphisms

CHUNK = 8  # subsets per message to a worker


def _first(task, subsets):
    """(subset, result) of the first subset whose task does not say NO, or
    None.  A ResourceLimitError that the task raises is a result: an open
    subset, which ends the scan."""
    for s in subsets:
        try:
            res = task(s)
        except ResourceLimitError as e:
            res = e
        if res is not None:
            return s, res
    return None


def _serve(task, conn):
    """A worker: answer each chunk of subsets with _first over it, or with
    the exception a task raised."""
    try:
        while True:
            chunk = conn.recv()
            try:
                out = _first(task, chunk)
            except Exception as e:  # raised again by the scan
                out = e
            conn.send(out)
    except EOFError:  # the scan has closed its end
        pass


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


def orbit_least(graph, subsets):
    """The subsets, in their order, that no listed automorphism of graph
    maps onto a lexicographically earlier subset.

    subsets are vertex subsets of graph of one size.  Any list of maps, a
    group or not, gives the subsets with no earlier image under one of them.
    """
    tables = _image_tables(graph)
    if not tables:
        yield from subsets
        return
    n = len(graph.vertices)
    bit = {v: 1 << (n - 1 - i) for i, v in enumerate(graph.vertices)}
    for s in subsets:
        m = sum(map(bit.__getitem__, s))
        images, rest, c = tables[0][m & 15], m >> 4, 1
        while rest:
            images = map(or_, images, tables[c][rest & 15])
            rest, c = rest >> 4, c + 1
        if all(r <= m for r in images):  # a larger key is an earlier subset
            yield s


def _fork(task, workers):
    """Fork N workers that run _serve on task, each on its own pipe; the
    workers and the scan's ends of their pipes."""
    import multiprocessing  # here, not at import time: most runs never fork

    ctx = multiprocessing.get_context("fork")
    procs, conns = [], []
    try:
        for _ in range(workers):
            mine, theirs = ctx.Pipe()
            procs.append(ctx.Process(target=_serve, args=(task, theirs), daemon=True))
            conns.append(mine)
            try:
                procs[-1].start()
            finally:
                theirs.close()
    except OSError as e:
        _stop(procs, conns)
        raise WorkerError(e.errno, f"cannot start {workers} workers: {e.strerror}") from e
    return procs, conns


def _stop(procs, conns):
    """Terminate and join the workers that started, and close the pipes."""
    for p in procs:
        if p.pid is not None:
            p.terminate()
    for p, conn in zip(procs, conns):
        if p.pid is not None:
            p.join()
        conn.close()


def _end(subset, res):
    """The scan's outcome at a subset whose result is not NO."""
    if isinstance(res, ResourceLimitError):
        names = " ".join(map(str, subset))
        raise ResourceLimitError(f"subset {{{names}}} exhausted the budget",
                                 count=res.count) from res
    return frozenset(subset), res


def scan_subsets(task, subsets, workers):
    """(frozenset(subset), payload) of the first subset whose task says yes.

    task(subset) returns a payload or None, or raises ResourceLimitError when
    its budget runs out.  subsets may be any iterable, read in order, and
    the scan ends at the first subset that does not say NO, at every worker
    count.  With N >= 2 workers it deals chunks of 8 to the workers in
    turn, each of which answers with the chunk's first subset that does
    not say NO, or with nothing; the answers are read in chunk order, and
    each worker holds at most two unread chunks, 16 * N subsets in all
    (see the module docstring).  None means every subset said NO; a subset
    that ran out of budget first raises ResourceLimitError, which names it
    and keeps its task's count.  Workers that cannot be forked, or a worker
    that exits during the scan, raise WorkerError; an exception that a task
    raises in a worker is raised here when its chunk is read.
    """
    subsets = iter(subsets)
    head = list(islice(subsets, 2))
    subsets = chain(head, subsets)
    if workers < 2 or len(head) < 2:
        found = _first(task, subsets)
        return None if found is None else _end(*found)
    chunks = iter(lambda: list(islice(subsets, CHUNK)), [])
    sent = read = 0  # chunk c goes to worker c % workers, and is read in turn
    procs, conns = _fork(task, workers)
    try:
        while True:
            if sent - read < 2 * workers and (chunk := next(chunks, None)):
                w = sent % workers
                try:
                    conns[w].send(chunk)
                except OSError:
                    break
                sent += 1
            elif read < sent:
                w = read % workers
                try:
                    res = conns[w].recv()
                except (EOFError, OSError):
                    break
                read += 1
                if isinstance(res, Exception):
                    raise res
                if res is not None:
                    return _end(*res)
            else:
                return None
    finally:
        _stop(procs, conns)
    # the worker is joined, so its exit code is known
    raise WorkerError(None, f"worker process exited with code {procs[w].exitcode}")
