"""The subset scan that the subset deciders share."""

import multiprocessing
import os
import random
import subprocess
import sys
import textwrap
import time
from functools import partial
from itertools import combinations, permutations

import pytest

from vmkit import (
    ResourceLimitError,
    SimpleGraph,
    VmWitness,
    alternance_graph,
    connected_components,
    find_euler_tour,
    induced_word,
    iso_soet_decide,
    iso_vm_decide,
    k3_expand,
    star_vm_decide,
)
from vmkit import euler, parallel, solvers
from vmkit.parallel import orbit_least, scan_subsets
from vmkit.reduction import reduce_starvm_to_isovm

from corpus_helpers import (
    all_four_regular_multigraphs,
    complete_graph,
    cycle_graph,
    open_subset,
    path_graph,
    petersen,
    wheel5,
)

# 50 items, more than the 32 subsets a scan at two workers reads past the
# oldest unsettled one, so every scan below reads on as results come back
ITEMS = [(i,) for i in range(50)]
OPEN = {3, 20, 35, 47}


def _fake(yes, open_, boom, subset):
    (item,) = subset
    if item in boom:
        raise ValueError(f"item {item} should not have been scanned")
    if item in open_:
        raise ResourceLimitError("fake budget ran out", count=7)
    return f"payload {item}" if item in yes else None


def _log_pid(path, subset):
    with open(path, "a") as fh:
        fh.write(f"{os.getpid()}\n")


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_first_yes_wins_after_open_subsets(workers):
    # open subsets after the first YES, in its chunk and in the next one, do
    # not change the answer
    task = partial(_fake, {37, 45}, {38, 41, 47}, set())
    assert scan_subsets(task, ITEMS, workers) == (frozenset({37}), "payload 37")
    # an open subset before the first YES ends the scan, and is named
    task = partial(_fake, {37, 45}, {20, 35, 38}, set())
    with pytest.raises(ResourceLimitError) as e:
        scan_subsets(task, ITEMS, workers)
    assert str(e.value) == "subset {20} exhausted the budget"


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_scan_stops_at_the_block_of_the_first_yes(workers):
    # one or two workers never search item 40; three search it in their
    # first window, but the scan ends in an older chunk and never reads
    # its error
    task = partial(_fake, {5}, {20, 35, 47}, {40})
    assert scan_subsets(task, ITEMS, workers) == (frozenset({5}), "payload 5")


def test_one_worker_stops_at_the_first_yes():
    # item 6 shares the first block with the YES at item 5
    task = partial(_fake, {5}, {20, 35, 47}, {6})
    assert scan_subsets(task, ITEMS, 1) == (frozenset({5}), "payload 5")


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_open_subsets_without_a_yes_are_counted(workers):
    # the scan ends at the first open subset: the error names it and keeps
    # the count that its task raised; one or two workers never search item
    # 40, and at three workers its error is never read
    task = partial(_fake, set(), OPEN, {40})
    with pytest.raises(ResourceLimitError) as e:
        scan_subsets(task, ITEMS, workers)
    assert e.value.count == 7
    assert str(e.value) == f"subset {{{min(OPEN)}}} exhausted the budget"


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_no_yes_and_nothing_open_is_no(workers):
    assert scan_subsets(partial(_fake, set(), set(), set()), ITEMS, workers) is None
    assert scan_subsets(partial(_fake, set(), set(), set()), [], workers) is None


@pytest.mark.parametrize("yes, open_, boom, raises", [
    ({40}, set(), set(), None),
    (set(), set(), set(), None),
    (set(), OPEN, set(), ResourceLimitError),
    (set(), set(), {20}, ValueError),
])
def test_no_worker_outlives_a_scan(yes, open_, boom, raises):
    task = partial(_fake, yes, open_, boom)
    for workers in (2, 3):
        if raises is None:
            scan_subsets(task, ITEMS, workers)
        else:
            with pytest.raises(raises):
                scan_subsets(task, ITEMS, workers)
        assert multiprocessing.active_children() == []


def test_a_worker_that_exits_ends_the_scan():
    # in a child interpreter with a timeout, so that a scan that waits for
    # the dead worker fails here instead of hanging the suite.  Either every
    # worker exits at its first subset, or only the worker with chunk 1
    # exits, while the worker with the older chunk 0 is still searching it.
    script = textwrap.dedent("""
        import multiprocessing, os, sys, time
        from vmkit.parallel import scan_subsets

        parent = os.getpid()
        workers, case = int(sys.argv[1]), sys.argv[2]

        def task(subset):
            if os.getpid() == parent:
                return
            if case == "every":
                os._exit(3)
            if subset == (0,):
                time.sleep(0.5)
            if 8 <= subset[0] < 16:
                os._exit(3)

        try:
            scan_subsets(task, [(i,) for i in range(50)], workers)
        except OSError as e:
            print(type(e).__name__, e.strerror, multiprocessing.active_children())
    """)
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(solvers.__file__)))
    for workers in ("2", "3"):
        for case in ("every", "younger"):
            proc = subprocess.run([sys.executable, "-c", script, workers, case], env=env,
                                  capture_output=True, text=True, timeout=60)
            assert proc.returncode == 0, (workers, case, proc.stderr)
            assert proc.stdout == "WorkerError worker process exited with code 3 []\n", \
                (workers, case)


def _slow_first(flag, subset):
    if subset == (0,):
        time.sleep(0.5)
        flag.write_text("")


def test_reads_stop_two_chunks_per_worker_past_the_oldest_unsettled_subset(tmp_path):
    # item 0 is searched for half a second while the other workers answer
    # the chunks after it; until item 0 settles, the scan reads at most two
    # chunks per worker
    for workers in (2, 3):
        flag = tmp_path / f"item 0 searched at {workers} workers"
        early = []

        def items():
            for i in range(2000):
                if not flag.exists():
                    early.append(i)
                yield (i,)

        assert scan_subsets(partial(_slow_first, flag), items(), workers) is None
        assert len(early) <= 2 * workers * parallel.CHUNK


def test_one_scan_forks_once(tmp_path):
    log = tmp_path / "pids"
    assert scan_subsets(partial(_log_pid, log), ITEMS, 2) is None
    pids = log.read_text().split()
    assert len(pids) == len(ITEMS)
    assert len(set(pids)) <= 2


# The pruned scan against the plain one: each decider's answer equals
# scan_subsets called with the same task and candidates and no graph, so
# no automorphism skips anything.


def _circle(F):
    return alternance_graph(induced_word(find_euler_tour(F)))


def _soet_scan(F, k):
    task = partial(euler.soet_search, F)
    return task, [s for s in combinations(F.vertices, k)
                  if not euler._soet_quick_no(F, frozenset(s))]


def _in_one_component(G, k):
    comps = connected_components(G)
    return [s for s in combinations(G.vertices, k) if any(set(s) <= c for c in comps)]


def _star_scan(G, k):
    return _iso_scan(G, reduce_starvm_to_isovm(G, k)[1])


def _iso_scan(G, H):
    connected = len(connected_components(H)) == 1
    task = partial(solvers._iso_task, G, connected, solvers._orbit_buckets(H, 10**6), None)
    if connected:
        return task, _in_one_component(G, len(H.vertices))
    return task, list(combinations(G.vertices, len(H.vertices)))


def _vm(found):
    """A vertex-minor scan's result in the form of a Decision's witness."""
    if found is None:
        return None
    subset, (ops, iso) = found
    return subset, VmWitness(tuple(ops), iso)


def _check_against_plain_scans(F, G, workers, soet_ks=None):
    for k in soet_ks or range(1, len(F.vertices) + 1):
        assert iso_soet_decide(F, k, workers=workers) == \
            scan_subsets(*_soet_scan(F, k), workers), (F, k)
    for k in range(2, len(G.vertices) + 1):
        assert star_vm_decide(G, k, workers=workers).witness == \
            _vm(scan_subsets(*_star_scan(G, k), workers)), (G, k)


@pytest.mark.parametrize("workers", [1, 2])
def test_pruned_scans_equal_plain_scans_on_the_corpus(workers):
    corpus = [F for n in range(1, 6) for F in all_four_regular_multigraphs(n)]
    assert len(corpus) == 45
    for F in corpus:
        _check_against_plain_scans(F, _circle(F), workers)


@pytest.mark.parametrize("workers", [1, 2])
def test_pruned_scans_equal_plain_scans_on_k4(workers):
    # the K3-expansion of K4 and its circle graph have 24 and 16
    # automorphisms, and many of their scans say NO before the first YES;
    # at k <= 4 a plain scan at two workers spends seconds on the SOET
    # searches of its first block
    F = k3_expand(complete_graph("abcd"))
    _check_against_plain_scans(F, _circle(F), workers, soet_ks=range(5, 13))


@pytest.mark.parametrize("workers", [1, 2])
def test_pruned_scans_on_symmetric_graphs(workers):
    # K12 and the edgeless graph on 12 vertices have far more automorphisms
    # than are listed; Petersen has 120, all listed
    labels = [f"v{i:02d}" for i in range(12)]
    K12, E12 = complete_graph(labels), SimpleGraph(labels)
    for G in (K12, E12):
        for k in range(2, 13):
            assert star_vm_decide(G, k, workers=workers).witness == \
                _vm(scan_subsets(*_star_scan(G, k), workers))
    P = petersen()
    assert star_vm_decide(P, 5, workers=workers).witness == \
        _vm(scan_subsets(*_star_scan(P, 5), workers))
    for G, H in [(K12, path_graph("abcd")), (E12, SimpleGraph("abc", [("a", "b")])),
                 (P, cycle_graph("abcde")), (P, path_graph("abcdef"))]:
        assert iso_vm_decide(G, H, workers=workers).witness == \
            _vm(scan_subsets(*_iso_scan(G, H), workers)), (G, H)


def _logged(path, task, subset):
    with open(path, "a") as fh:
        fh.write(" ".join(subset) + "\n")
    return task(subset)


def _searched(tmp_path, scan, graph, workers):
    """The subsets a scan of graph's orbit-least subsets searched up to its
    first YES, and its result."""
    path = tmp_path / f"searched_{workers}"
    path.write_text("")
    task, cands = scan
    found = scan_subsets(partial(_logged, path, task), orbit_least(graph, cands), workers)
    searched = {tuple(line.split()) for line in path.read_text().splitlines()}
    if found is not None:
        # a worker may search subsets past the YES before the YES comes back
        last = tuple(sorted(found[0]))
        searched = {s for s in searched if s <= last}
    return searched, found


def test_pruned_scans_search_the_same_subsets_at_every_worker_count(tmp_path):
    F = k3_expand(complete_graph("abcd"))
    G = _circle(F)
    W5 = wheel5()
    # (searched, candidates up to the first YES or all of them)
    for graph, scan, counts in [(F, _soet_scan(F, 7), (10, 20)),
                                (G, _star_scan(G, 6), (66, 91)),
                                (G, _star_scan(G, 9), (60, 220)),
                                (G, _iso_scan(G, W5), (190, 924))]:
        one, found = _searched(tmp_path, scan, graph, 1)
        assert (one, found) == _searched(tmp_path, scan, graph, 2)
        assert found == scan_subsets(*scan, 1)
        before = [s for s in scan[1] if found is None or s <= tuple(sorted(found[0]))]
        assert (len(one), len(before)) == counts


def _open_or_no(open_, subset):
    if subset in open_:
        raise ResourceLimitError("fake budget ran out")
    return None


def _says(yes, open_, subset):
    return "yes" if subset in yes else _open_or_no(open_, subset)


@pytest.mark.parametrize("workers", [1, 2])
def test_open_images_are_searched_and_settled_ones_skipped(tmp_path, workers):
    # C8 has 16 automorphisms.  A reference keeps the 4-subsets with no
    # earlier image under any of them, found by brute force, one orbit each.
    # Every other subset runs out of budget, so a scan that searched one
    # would end there; the last kept subset runs out too, so the scan
    # searches every kept subset and names the last.
    G = cycle_graph("abcdefgh")
    cands = list(combinations(G.vertices, 4))
    auts = []
    for img in permutations(G.vertices):
        f = dict(zip(G.vertices, img))
        if all(G.has_edge(f[u], f[v]) for u, v in G.edges):
            auts.append(f)
    assert len(auts) == 16
    want = [s for s in cands if all(tuple(sorted(f[v] for v in s)) >= s for f in auts)]
    assert list(orbit_least(G, cands)) == want
    assert len(want) == 8
    open_ = (set(cands) - set(want)) | {want[-1]}
    path = tmp_path / "searched"
    path.write_text("")
    with pytest.raises(ResourceLimitError) as e:
        scan_subsets(partial(_logged, path, partial(_open_or_no, open_)),
                     orbit_least(G, cands), workers)
    got = [tuple(line.split()) for line in path.read_text().splitlines()]
    assert sorted(got) == want
    assert str(e.value) == f"subset {{{' '.join(want[-1])}}} exhausted the budget"


@pytest.mark.parametrize("workers", [1, 2])
def test_maps_that_are_not_a_group_skip_the_same_subsets(tmp_path, monkeypatch, workers):
    # automorphisms() may list only part of the group.  Here it lists one
    # map without its powers: v00 -> vM and v(i) -> v(i-1) up to vM, where
    # M is the number of subsets that two workers may read past the oldest
    # unsettled one.  v01..vM each have an earlier image and are dropped;
    # v00, whose image comes later, is kept.  The scan must still reach the
    # three subsets after them, which the map fixes.
    m = 4 * parallel.CHUNK
    labels = [f"v{i:02d}" for i in range(m + 4)]
    G = SimpleGraph(labels)
    p = (m,) + tuple(range(m)) + tuple(range(m + 1, m + 4))
    monkeypatch.setattr(parallel, "automorphisms", lambda graph: (p,))
    parallel._image_tables.cache_clear()
    try:
        last = labels[-1]
        scan = (partial(_fake, {last}, set(), set()), [(v,) for v in labels])
        searched, found = _searched(tmp_path, scan, G, workers)
    finally:
        parallel._image_tables.cache_clear()
    assert found == (frozenset({last}), f"payload {last}")
    assert searched == {(labels[0],)} | {(v,) for v in labels[m + 1:]}


def _listed_maps(monkeypatch, maps):
    """Have the scan see only these maps, as tuples of vertex positions."""
    monkeypatch.setattr(parallel, "automorphisms", lambda graph: maps)
    parallel._image_tables.cache_clear()


def _serial_rule(maps, labels, cands, yes, open_):
    """The subsets the rule searches, one at a time in order, and the scan's
    result: the first YES, the message that names the first open subset,
    or None."""
    at = {v: i for i, v in enumerate(labels)}
    searched = []
    for s in cands:
        if any(tuple(sorted(labels[p[at[v]]] for v in s)) < s for p in maps):
            continue  # a listed map sends it to an earlier subset
        searched.append(s)
        if s in yes:
            return searched, (frozenset(s), "yes")
        if s in open_:
            return searched, f"subset {{{' '.join(s)}}} exhausted the budget"
    return searched, None


def _scan_logged(tmp_path, labels, cands, yes, open_, workers):
    """What _serial_rule gives, from scan_subsets over orbit_least with these
    listed maps: the subsets searched up to the scan's end, and its result."""
    path = tmp_path / "searched"
    path.write_text("")
    task = partial(_logged, path, partial(_says, yes, open_))
    try:
        result = scan_subsets(task, orbit_least(SimpleGraph(labels), cands), workers)
    except ResourceLimitError as e:
        result = str(e)
    got = [tuple(line.split()) for line in path.read_text().splitlines()]
    if result is not None:
        # a worker may search subsets past the end before it comes back
        last = tuple(sorted(result[0])) if isinstance(result, tuple) else open_subset(result)
        got = [s for s in got if s <= last]
    return sorted(got), result


@pytest.mark.parametrize("workers", [1, 2])
def test_the_rule_holds_from_the_second_subset_at_every_worker_count(tmp_path, monkeypatch,
                                                                      workers):
    # the listed map swaps a and b.  ("b", "d") has the earlier image
    # ("a", "d"), which is not listed, and is skipped all the same: without
    # the rule it would run out of budget, and with ("a", "b") open it is
    # never reached.  The rule has no exception for the first subset.
    _listed_maps(monkeypatch, ((1, 0, 2, 3),))
    try:
        labels = list("abcd")
        for cands, yes, open_ in [([("a", "b"), ("b", "d")], set(), {("b", "d")}),
                                  ([("a", "b"), ("b", "d")], {("b", "d")}, {("a", "b")}),
                                  ([("b", "d"), ("c", "d")], {("c", "d")}, {("b", "d")})]:
            want = _serial_rule(((1, 0, 2, 3),), labels, cands, yes, open_)
            assert _scan_logged(tmp_path, labels, cands, yes, open_, workers) == want
        assert want == ([("c", "d")], (frozenset({"c", "d"}), "yes"))
    finally:
        parallel._image_tables.cache_clear()


@pytest.mark.parametrize("workers", [1, 2])
def test_random_maps_search_what_the_serial_rule_searches(tmp_path, monkeypatch, workers):
    # 1-3 random maps that need not form a group, on 8-10 vertices, with
    # random lists of k-subsets, a few of them open and a few YES; the
    # first open or YES subset ends a scan, so both are rare enough that
    # about half the scans read every subset and end NO
    rng = random.Random(21)
    ends = []
    try:
        for trial in range(120):
            n, k = rng.randint(8, 10), rng.randint(2, 4)
            labels = [f"v{i:02d}" for i in range(n)]
            maps = tuple(tuple(rng.sample(range(n), n)) for _ in range(rng.randint(1, 3)))
            cands = [s for s in combinations(labels, k) if rng.random() < 0.6]
            open_ = {s for s in cands if rng.random() < 0.02}
            yes = {s for s in cands if rng.random() < 0.02}
            want = _serial_rule(maps, labels, cands, yes, open_)
            _listed_maps(monkeypatch, maps)
            got = _scan_logged(tmp_path, labels, cands, yes, open_, workers)
            assert got == want, (trial, maps)
            ends.append(type(want[1]))
    finally:
        parallel._image_tables.cache_clear()
    # scans that end in each way: YES, an open subset, and NO
    assert set(ends) == {tuple, str, type(None)}
