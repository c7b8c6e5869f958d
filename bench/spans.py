"""Span recording around vmkit's layer entry points, from outside the package.

instrument() replaces the entry points of each layer by wrappers, in every
vmkit module that holds a reference to them, so that internal calls are
seen too.  Nothing inside src/ changes.  A Recorder aggregates spans as they
close: per span name the calls, the seconds and the self seconds (duration
minus the durations of direct child spans).  Keeping aggregates instead of a
span list bounds memory on workloads with millions of spans; arith.py checks
that the aggregates equal the offline arithmetic on a span list.

Pool workers are forked, so they inherit the wrappers.  Each task sent to
parallel.pmap is wrapped in a _Task that, inside a worker, resets the
worker's recorder, runs the task and returns the worker's span aggregates
with the result.  The pmap wrapper strips them off again, so the caller sees
the plain results and the worker-side spans reach the trace.

With counting=True the wrappers also collect the counts that vmkit does not
expose: SOET walk steps and rest_connected calls (read from the closures of
each soet_search call) and SimpleGraph constructions.  Those hooks cost time
inside the layers they count, so the seconds of that pass are not reported.
"""

from __future__ import annotations

import os
import sys
import time

# The span names the wrappers record; run.py reports the self seconds of
# each as "<name>.s" ("cli.self_s" for "cli").
SPANS = (
    "cli",
    "formats",
    "reduction",
    "euler.iso_soet_decide",
    "euler.soet_search",
    "euler.quick_no",
    "euler.tours",
    "solvers.star_vm_decide",
    "solvers.iso_vm_decide",
    "solvers.labeled_vm_decide",
    "solvers.vm_oracle_via_tours",
    "solvers.hamiltonian_decide",
    "solvers.verify_vm_witness",
    "solvers.elim",
    "solvers.leaf",
    "graphs.find_isomorphism",
    "words.alternance_graph",
    "lc.local_complement",
    "lc.orbit",
    "parallel.pmap",
)

# The recorder of this process; forked pool workers find it here.
_ACTIVE = None


class Recorder:
    """Aggregated nested spans and integer counters of one process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.open = []  # child seconds of each open span, innermost last
        self._root = [0.0]  # seconds covered by outermost spans
        self._totals = {}  # span name -> [calls, seconds, self seconds]
        self._counters = {}  # counter name -> one-element list
        self.worker_totals = {}
        self.worker_other = 0.0
        self.worker_s = 0.0
        self.worker_pids = set()
        self.task_s = 0.0  # seconds of pmap tasks, inline or in workers
        self.capacity_s = 0.0  # pmap wall seconds times the worker count

    def reset(self):
        self.open.clear()
        self._root[0] = 0.0
        for t in self._totals.values():
            t[0], t[1], t[2] = 0, 0.0, 0.0
        for c in self._counters.values():
            c[0] = 0
        self.worker_totals = {}
        self.worker_other = 0.0
        self.worker_s = 0.0
        self.worker_pids = set()
        self.task_s = 0.0
        self.capacity_s = 0.0

    def counter(self, name):
        return self._counters.setdefault(name, [0])

    def counts(self):
        return {name: c[0] for name, c in self._counters.items()}

    def summary(self, wall):
        """({name: [calls, s, self s]} of spans that ran, uncovered wall)."""
        totals = {n: list(t) for n, t in self._totals.items() if t[0]}
        return totals, wall - self._root[0]

    def wrap(self, name, fn, on_result=None):
        clock = self.clock
        open_ = self.open
        root = self._root
        tot = self._totals.setdefault(name, [0, 0.0, 0.0])

        def wrapper(*args, **kwargs):
            open_.append(0.0)
            t0 = clock()
            try:
                res = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                child = open_.pop()
                tot[0] += 1
                tot[1] += dur
                tot[2] += dur - child
                if open_:
                    open_[-1] += dur
                else:
                    root[0] += dur
            if on_result is not None:
                on_result(res)
            return res

        return wrapper

    def merge_worker(self, pid, dur, totals, other, counts):
        self.worker_pids.add(pid)
        self.worker_s += dur
        self.worker_other += other
        for name, (calls, s, self_s) in totals.items():
            t = self.worker_totals.setdefault(name, [0, 0.0, 0.0])
            t[0] += calls
            t[1] += s
            t[2] += self_s
        for name, n in counts.items():
            self.counter(name)[0] += n


class _Task:
    """A pmap task that brings its worker-side spans back with its result."""

    def __init__(self, fn, parent_pid):
        self.fn = fn
        self.parent_pid = parent_pid

    def __call__(self, item):
        rec = _ACTIVE
        pid = os.getpid()
        if pid == self.parent_pid:
            t0 = rec.clock()
            res = self.fn(item)
            return res, None, rec.clock() - t0, None, 0.0, None
        rec.reset()  # drop whatever the fork copied from the parent
        t0 = rec.clock()
        res = self.fn(item)
        dur = rec.clock() - t0
        totals, other = rec.summary(dur)
        return res, pid, dur, totals, other, rec.counts()


def _nested_code(code, name):
    for const in code.co_consts:
        if hasattr(const, "co_name"):
            if const.co_name == name:
                return const
            found = _nested_code(const, name)
            if found is not None:
                return found
    return None


def _counting_soet_search(rec, orig):
    """soet_search, counting its walk steps and rest_connected calls.

    Both live in closures of one soet_search call.  A trace function is on
    only until the inner walk starts; it then swaps rest_connected in the
    walk's closure for a counting wrapper, switches itself off and keeps the
    cell of the step counter `nodes`, which is read when the call returns.
    """
    walk_code = _nested_code(orig.__code__, "walk")
    nodes = rec.counter("euler.soet_search.nodes")
    rest = rec.counter("euler.rest_connected.calls")
    if walk_code is None:
        return orig  # the walk is gone; both counters read zero

    def soet_search(*args, **kwargs):
        cells = {}

        def tracer(frame, event, arg):
            if frame.f_code is walk_code:
                sys.settrace(None)
                walk = frame.f_back.f_locals.get("walk")
                if walk is not None and walk.__closure__:
                    cells.update(zip(walk.__code__.co_freevars, walk.__closure__))
                cell = cells.get("rest_connected")
                if cell is not None:
                    inner = cell.cell_contents

                    def rest_connected(*a):
                        rest[0] += 1
                        return inner(*a)

                    cell.cell_contents = rest_connected
            return None

        prev = sys.gettrace()
        sys.settrace(tracer)
        try:
            return orig(*args, **kwargs)
        finally:
            sys.settrace(prev)
            if "nodes" in cells:
                nodes[0] += cells["nodes"].cell_contents

    return soet_search


def instrument(rec, counting=False):
    """Wrap vmkit's layer entry points so that they record into rec."""
    global _ACTIVE
    import vmkit
    import vmkit.cli  # noqa: F401  (the CLI is not imported by the package)

    _ACTIVE = rec
    mods = [m for n, m in sorted(sys.modules.items())
            if n == "vmkit" or n.startswith("vmkit.")]
    by_name = {m.__name__: m for m in mods}

    def patch(modname, attr, make):
        orig = getattr(by_name[modname], attr, None)
        if orig is None:
            return  # the entry point is gone; its metrics read zero
        wrapper = make(orig)
        for m in mods:
            for k, v in list(vars(m).items()):
                if v is orig:
                    setattr(m, k, wrapper)

    def span(name, on_result=None):
        return lambda orig: rec.wrap(name, orig, on_result)

    def counting_hits(name, test):
        c = rec.counter(name)

        def on_result(res):
            if test(res):
                c[0] += 1

        return on_result

    patch("vmkit.cli", "run_command", span("cli"))
    for layer in ("formats", "reduction"):
        mod = by_name[f"vmkit.{layer}"]
        for attr, obj in list(vars(mod).items()):
            if (callable(obj) and not attr.startswith("_") and not isinstance(obj, type)
                    and getattr(obj, "__module__", None) == mod.__name__):
                patch(mod.__name__, attr, span(layer))

    soet = span("euler.soet_search")
    if counting:
        patch("vmkit.euler", "soet_search",
              lambda orig: soet(_counting_soet_search(rec, orig)))
    else:
        patch("vmkit.euler", "soet_search", soet)
    patch("vmkit.euler", "_soet_quick_no",
          span("euler.quick_no", counting_hits("euler.quick_no.rejects", bool)))
    patch("vmkit.euler", "iso_soet_decide", span("euler.iso_soet_decide"))
    patch("vmkit.euler", "enumerate_euler_tours", lambda orig: _tours(rec, orig))
    for attr in ("star_vm_decide", "iso_vm_decide", "labeled_vm_decide",
                 "vm_oracle_via_tours", "hamiltonian_decide", "verify_vm_witness"):
        patch("vmkit.solvers", attr, span(f"solvers.{attr}"))
    patch("vmkit.graphs", "find_isomorphism",
          span("graphs.find_isomorphism",
               counting_hits("graphs.find_isomorphism.hits", lambda r: r is not None)))
    patch("vmkit.words", "alternance_graph", span("words.alternance_graph"))
    patch("vmkit.lc", "local_complement", span("lc.local_complement"))
    states = rec.counter("lc.orbit.states")

    def add_states(res):
        states[0] += len(res)

    patch("vmkit.lc", "_orbit_words", span("lc.orbit", add_states))
    patch("vmkit.parallel", "pmap", lambda orig: _pmap(rec, orig))

    elim = getattr(by_name["vmkit.solvers"], "_ElimSearch", None)
    if elim is not None:
        _instrument_elim(rec, elim)
    if counting:
        graph_cls = by_name["vmkit.graphs"].SimpleGraph
        orig_init = graph_cls.__init__
        builds = rec.counter("graphs.SimpleGraph.builds")

        def __init__(self, *args, **kwargs):
            builds[0] += 1
            orig_init(self, *args, **kwargs)

        graph_cls.__init__ = __init__


def _tours(rec, orig):
    enumerations = rec.counter("euler.tours.enumerations")
    classes = rec.counter("euler.tours.classes")

    def enumerate_euler_tours(*args, **kwargs):
        enumerations[0] += 1
        it = orig(*args, **kwargs)
        step = rec.wrap("euler.tours", it.__next__)
        while True:
            try:
                tour = step()
            except StopIteration:
                return
            classes[0] += 1
            yield tour

    return enumerate_euler_tours


def _pmap(rec, orig):
    timed = rec.wrap("parallel.pmap", orig)
    items_c = rec.counter("parallel.pmap.items")
    pools = rec.counter("parallel.pmap.pools")

    def pmap(fn, items, workers=1):
        items = list(items)
        t0 = rec.clock()
        out = timed(_Task(fn, os.getpid()), items, workers=workers)
        rec.capacity_s += max(1, workers) * (rec.clock() - t0)
        items_c[0] += len(items)
        forked = False
        results = []
        for res, pid, dur, totals, other, counts in out:
            rec.task_s += dur
            if pid is not None:
                forked = True
                rec.merge_worker(pid, dur, totals, other, counts)
            results.append(res)
        pools[0] += forked
        return results

    return pmap


def _instrument_elim(rec, cls):
    orig_run = cls.run
    timed_run = rec.wrap("solvers.elim", orig_run)
    nodes = rec.counter("solvers.elim.nodes")
    memo = rec.counter("solvers.elim.memo_states")
    hits = rec.counter("solvers.elim.accepts")

    def on_leaf(res):
        if res is not None:
            hits[0] += 1

    def run(self):
        accept = self.accept
        self.accept = rec.wrap("solvers.leaf", accept, on_leaf)
        try:
            return timed_run(self)
        finally:
            self.accept = accept
            nodes[0] += self.nodes
            memo[0] += len(getattr(self, "memo", ()))

    cls.run = run
