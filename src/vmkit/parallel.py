"""The subset scan of the subset deciders.

scan_subsets reads its subsets in order and searches each one whose answer
it does not already know.  At one worker it searches them one at a time in
this process.  With N >= 2 workers and at least two subsets it forks N
worker processes once per scan, each with its own pipe, sends them the
subsets that are ready in chunks of CHUNK, and settles each result as it
arrives, in whatever order the workers finish.  It reads at most WINDOW * N
subsets past the oldest one still unsettled, so a long search holds up
reading only once that many have piled up behind it, and it reads nothing
more once a YES has come back.  A worker answers a chunk up to the chunk's
first YES.  The answer is the first YES in input order, and the rule below
depends only on what earlier subsets said, so a scan searches the same
subsets, up to its answer, at every worker count.  The deciders filter
their subsets before the scan, so a subset that a cheap test rejects never
leaves the parent process.

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
settled NO.  A subset whose earlier image is still being searched waits for
that image's result; the subsets behind it do not.
"""

from functools import lru_cache, partial
from itertools import chain, islice
from operator import or_

from .errors import ResourceLimitError, WorkerError
from .graphs import automorphisms

WINDOW = 16  # subsets read past the oldest unsettled one, per worker
CHUNK = 8  # subsets per message to a worker


def _settle(task, subset):
    try:
        return task(subset)
    except ResourceLimitError as e:
        return e  # an open subset, counted by the scan


def _serve(settle, conn):
    """A worker: answer each chunk of (position, subset) pairs with the
    (position, result) pairs up to the chunk's first YES, or with the
    exception a task raised."""
    try:
        while True:
            chunk = conn.recv()
            out = []
            try:
                for i, s in chunk:
                    res = settle(s)
                    out.append((i, res))
                    if res is not None and not isinstance(res, ResourceLimitError):
                        break  # the rest of the chunk comes after a YES
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


class _Past:
    """What a scan knows of the subsets before the one in hand.

    An earlier subset is pending while the scan has read it and not yet
    settled it, open once its search ran out of budget, and otherwise
    settled: it said NO, was skipped, or said YES, after which nothing later
    matters.  With a graph, keys are bitmasks (see _image_tables); without
    one, subsets are their own keys and nothing is skipped.  The
    automorphisms are listed once a subset may have an earlier image that
    settles: at the first NO, or at once when workers search subsets side by
    side, since a subset may then wait for an earlier one.
    """

    def __init__(self, graph, parallel):
        self.graph = graph
        self.open = set()
        self.pending = set()
        self.live = parallel
        if graph is not None:
            n = len(graph.vertices)
            self.bit = {v: 1 << (n - 1 - i) for i, v in enumerate(graph.vertices)}

    def key(self, subset):
        if self.graph is None:
            return tuple(subset)
        return sum(map(self.bit.__getitem__, subset))

    def verdict(self, m):
        """For the subset with key m: True to search it, False when an
        earlier image settled it, or else the list of its earlier images
        still pending, to be passed to recheck once they settle."""
        if not self.live or self.graph is None:
            return True
        tables = _image_tables(self.graph)
        if not tables:
            return True
        images, rest, c = tables[0][m & 15], m >> 4, 1
        while rest:
            images = map(or_, images, tables[c][rest & 15])
            rest, c = rest >> 4, c + 1
        return self.recheck(r for r in images if r > m)

    def recheck(self, earlier):
        """verdict's answer for a subset with these earlier images."""
        waits = []
        for r in earlier:
            if r in self.pending:
                waits.append(r)
            elif r not in self.open:
                return False
        return waits or True


class _Crew:
    """N forked workers, each on its own pipe, that settle chunks of subsets."""

    def __init__(self, settle, workers):
        import multiprocessing  # here, not at import time: most runs never fork
        from multiprocessing.connection import wait

        self.wait = wait
        self.procs = {}  # the scan's end of each worker's pipe -> the worker
        ctx = multiprocessing.get_context("fork")
        try:
            for _ in range(workers):
                mine, theirs = ctx.Pipe()
                p = ctx.Process(target=_serve, args=(settle, theirs), daemon=True)
                self.procs[mine] = p
                try:
                    p.start()
                finally:
                    theirs.close()
        except OSError as e:
            self.stop()
            raise WorkerError(e.errno, f"cannot start {workers} workers: {e.strerror}") from e
        self.idle = list(self.procs)

    def send(self, chunk):
        """Hand a chunk of (position, subset) pairs to an idle worker."""
        conn = self.idle.pop()
        try:
            conn.send(chunk)
        except OSError:
            self.died(conn)

    def results(self):
        """The (position, result) pairs of the chunks that come back next."""
        out = []
        for conn in self.wait([c for c in self.procs if c not in self.idle]):
            try:
                res = conn.recv()
            except (EOFError, OSError):
                self.died(conn)
            if isinstance(res, Exception):
                raise res
            self.idle.append(conn)
            out += res
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


def scan_subsets(task, subsets, workers, graph=None):
    """(frozenset(subset), payload) of the first subset whose task says yes.

    task(subset) returns a payload or None, or raises ResourceLimitError when
    its budget runs out.  subsets may be any iterable; it is read in order,
    at most WINDOW subsets per worker past the oldest unsettled one, and not
    past the first YES that comes back.  With two or more workers and two or
    more subsets, N workers are forked for the scan and stopped when it
    ends; otherwise each subset is searched in this process in turn, none
    after the first YES.  The same subsets are searched, up to the answer,
    at every worker count, so the answer does not depend on it.  None means
    every subset said no; if some ran out instead, ResourceLimitError is
    raised with their number as its count.  Workers that cannot be forked,
    or a worker that exits during the scan, raise WorkerError; an exception
    that a task raises in a worker is raised here.

    With a graph, subsets are vertex subsets of it of one size, in
    lexicographic order; any subset that is not listed counts as NO, and a
    subset with an earlier NO image under an automorphism of the graph is NO
    without a search (see the module docstring).
    """
    subsets = iter(subsets)
    head = list(islice(subsets, 2))
    subsets = chain(head, subsets)
    forks = workers >= 2 and len(head) >= 2
    settle = partial(_settle, task)
    past = _Past(graph, forks)
    window = WINDOW * workers if forks else 1
    todo = {}  # position -> [key, subset, state], unsettled
    first = None  # (position, subset, payload) of the first YES so far
    pos = 0  # the position of the next subset kept
    more = True  # subsets remain to be read
    crew = _Crew(settle, workers) if forks else None
    try:
        while True:
            if first is None and more and pos - next(iter(todo), pos) < window:
                for s in subsets:
                    m = past.key(s)
                    v = past.verdict(m)
                    if v is False:
                        continue
                    todo[pos] = [m, s, v]
                    past.pending.add(m)
                    pos += 1
                    if pos - next(iter(todo)) == window:
                        break
                else:
                    more = False
            ready = []  # positions to search, in order
            for i, e in list(todo.items()):
                if isinstance(e[2], list):
                    e[2] = past.recheck(e[2])
                    if e[2] is False:
                        del todo[i]
                        past.pending.discard(e[0])
                if e[2] is True:
                    ready.append(i)
            if not todo:
                if first is None and more:
                    continue  # the whole window was skipped; read on
                break
            if crew is None:
                results = [(ready[0], settle(todo[ready[0]][1]))]
            else:
                while ready and crew.idle:
                    chunk, ready = ready[:CHUNK], ready[CHUNK:]
                    for i in chunk:
                        todo[i][2] = "sent"
                    crew.send([(i, todo[i][1]) for i in chunk])
                results = crew.results()
            for i, res in results:
                e = todo.pop(i, None)
                if e is None:
                    continue  # past the first YES
                past.pending.discard(e[0])
                if isinstance(res, ResourceLimitError):
                    past.open.add(e[0])
                    continue
                past.live = True
                if res is not None:
                    first = (i, e[1], res)
                    for j in [j for j in todo if j > i]:
                        del todo[j]
    finally:
        if crew is not None:
            crew.stop()
    if first is not None:
        return frozenset(first[1]), first[2]
    if past.open:
        n = len(past.open)
        raise ResourceLimitError(f"{n} subset searches exhausted the budget", count=n)
    return None
