"""The subset scan of the subset deciders.

scan_subsets reads its subsets in order and ends at the first one that does
not say NO: a YES is the answer, and a subset that ran out of budget raises
ResourceLimitError, which names it.  At one worker it searches the subsets
one at a time in this process.  With N >= 2 workers and at least two
subsets it forks N worker processes once per scan, each with its own pipe.
It reads a chunk of CHUNK = 8 subsets only for an idle worker.  A worker
answers each chunk with its first subset that does not say NO, or with
nothing, and once a subset has come back no more chunks are read.  Chunks
come back in any order, but settle in input order, so the scan ends where a
serial scan ends.  At most two chunks per worker (16 * N subsets) lie past
the oldest unsettled one: one being searched and one that waits on an older
one.  The deciders filter their subsets before the scan, so a subset that a
cheap test rejects never leaves the parent process.

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

from collections import deque
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


class _Crew:
    """N forked workers, each on its own pipe, that settle chunks of subsets."""

    def __init__(self, task, workers):
        import multiprocessing  # here, not at import time: most runs never fork
        from multiprocessing.connection import wait

        self.wait = wait
        self.procs = {}  # the scan's end of each worker's pipe -> the worker
        ctx = multiprocessing.get_context("fork")
        try:
            for _ in range(workers):
                mine, theirs = ctx.Pipe()
                p = ctx.Process(target=_serve, args=(task, theirs), daemon=True)
                self.procs[mine] = p
                try:
                    p.start()
                finally:
                    theirs.close()
        except OSError as e:
            self.stop()
            raise WorkerError(e.errno, f"cannot start {workers} workers: {e.strerror}") from e
        self.idle = list(self.procs)
        self.busy = {}  # a worker's end -> the slot of the chunk it searches

    def send(self, chunk, slot):
        """Hand a chunk of subsets to an idle worker; its result goes to slot[0]."""
        conn = self.idle.pop()
        self.busy[conn] = slot
        try:
            conn.send(chunk)
        except OSError:
            self.died(conn)

    def collect(self):
        """Fill the slots of the chunks that come back next; their results."""
        out = []
        for conn in self.wait(list(self.busy)):
            try:
                res = conn.recv()
            except (EOFError, OSError):
                self.died(conn)
            if isinstance(res, Exception):
                raise res
            self.idle.append(conn)
            self.busy.pop(conn)[0] = res
            out.append(res)
        return out

    def died(self, conn):
        p = self.procs[conn]
        self.stop()
        raise WorkerError(None, f"worker process exited with code {p.exitcode}")

    def stop(self):
        for p in self.procs.values():
            if p.pid is not None:
                p.terminate()
        for conn, p in self.procs.items():
            if p.pid is not None:
                p.join()
            conn.close()


_DUE = object()  # a chunk's result from when it is sent until it comes back


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
    count.  With N >= 2 workers it reads a chunk of 8 only for an idle
    worker, which answers with the chunk's first subset that does not say
    NO, or with nothing; chunks settle in input order, and at most two
    chunks per worker (16 * N subsets) lie past the oldest unsettled one
    (see the module docstring).  None means every subset said NO; a subset
    that ran out of budget first raises ResourceLimitError, which names it
    and keeps its task's count.  Workers that cannot be forked, or a worker
    that exits during the scan, raise WorkerError; an exception that a task
    raises in a worker is raised here.
    """
    subsets = iter(subsets)
    head = list(islice(subsets, 2))
    subsets = chain(head, subsets)
    if workers < 2 or len(head) < 2:
        found = _first(task, subsets)
        return None if found is None else _end(*found)
    sent = deque()  # a [result] slot per chunk sent and unsettled, oldest first
    more = True  # subsets remain to be read, and every result back is NO
    crew = _Crew(task, workers)
    try:
        while True:
            while sent and sent[0][0] is not _DUE:  # settle the oldest chunks
                found = sent.popleft()[0]
                if found is not None:
                    return _end(*found)
            while more and crew.idle and len(sent) < 2 * workers:
                chunk = list(islice(subsets, CHUNK))
                more = len(chunk) == CHUNK
                if chunk:
                    sent.append([_DUE])
                    crew.send(chunk, sent[-1])
            if not sent:
                return None
            if any(crew.collect()):
                more = False  # the scan ends in these chunks or an earlier one
    finally:
        crew.stop()
