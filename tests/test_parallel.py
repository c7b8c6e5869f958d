"""The subset scan that the subset deciders share."""

import multiprocessing
import os
import subprocess
import sys
import textwrap
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
from vmkit.parallel import scan_subsets
from vmkit.reduction import reduce_starvm_to_isovm

from corpus_helpers import (
    all_four_regular_multigraphs,
    complete_graph,
    cycle_graph,
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


@pytest.mark.parametrize("workers", [1, 2])
def test_first_yes_wins_after_open_subsets(workers):
    task = partial(_fake, {40, 45}, OPEN, set())
    assert scan_subsets(task, ITEMS, workers) == (frozenset({40}), "payload 40")


@pytest.mark.parametrize("workers", [1, 2])
def test_scan_stops_at_the_block_of_the_first_yes(workers):
    # item 40 lies beyond the first block at both worker counts
    task = partial(_fake, {5}, OPEN, {40})
    assert scan_subsets(task, ITEMS, workers) == (frozenset({5}), "payload 5")


def test_one_worker_stops_at_the_first_yes():
    # item 6 shares the first block with the YES at item 5
    task = partial(_fake, {5}, OPEN, {6})
    assert scan_subsets(task, ITEMS, 1) == (frozenset({5}), "payload 5")


@pytest.mark.parametrize("workers", [1, 2])
def test_open_subsets_without_a_yes_are_counted(workers):
    task = partial(_fake, set(), OPEN, set())
    with pytest.raises(ResourceLimitError) as e:
        scan_subsets(task, ITEMS, workers)
    assert e.value.count == len(OPEN)
    assert str(e.value) == f"{len(OPEN)} subset searches exhausted the budget"


@pytest.mark.parametrize("workers", [1, 2])
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
    if raises is None:
        scan_subsets(task, ITEMS, 2)
    else:
        with pytest.raises(raises):
            scan_subsets(task, ITEMS, 2)
    assert multiprocessing.active_children() == []


def test_a_worker_that_exits_ends_the_scan():
    # in a child interpreter with a timeout, so that a scan that waits for
    # the dead worker fails here instead of hanging the suite
    script = textwrap.dedent("""
        import multiprocessing, os
        from vmkit.parallel import scan_subsets

        parent = os.getpid()

        def task(subset):
            if os.getpid() != parent:
                os._exit(3)

        try:
            scan_subsets(task, [(i,) for i in range(50)], 2)
        except OSError as e:
            print(type(e).__name__, e.strerror, multiprocessing.active_children())
    """)
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(solvers.__file__)))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "WorkerError worker process exited with code 3 []\n"


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
    task = partial(euler._soet_subset_task, F, None)
    return task, [s for s in combinations(F.vertices, k)
                  if not euler._soet_quick_no(F, frozenset(s))]


def _in_one_component(G, k):
    comps = connected_components(G)
    return [s for s in combinations(G.vertices, k) if any(set(s) <= c for c in comps)]


def _star_scan(G, k):
    return _iso_scan(G, reduce_starvm_to_isovm(G, k)[1])


def _iso_scan(G, H):
    task = partial(solvers._iso_task, G, H, solvers._orbit_buckets(H, 10**6), None)
    if len(connected_components(H)) == 1:
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
    """The subsets a scan searched up to its first YES, and its result."""
    path = tmp_path / f"searched_{workers}"
    path.write_text("")
    task, cands = scan
    found = scan_subsets(partial(_logged, path, task), cands, workers, graph)
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


@pytest.mark.parametrize("workers", [1, 2])
def test_open_images_are_searched_and_settled_ones_skipped(tmp_path, workers):
    # C8 has 16 automorphisms; every third 4-subset runs out of budget.  A
    # reference applies the rule one subset at a time, with every
    # automorphism found by brute force.
    G = cycle_graph("abcdefgh")
    cands = list(combinations(G.vertices, 4))
    open_ = set(cands[::3])
    auts = []
    for img in permutations(G.vertices):
        f = dict(zip(G.vertices, img))
        if all(G.has_edge(f[u], f[v]) for u, v in G.edges):
            auts.append(f)
    assert len(auts) == 16
    want, opened = [], set()
    for s in cands:
        earlier = {tuple(sorted(f[v] for v in s)) for f in auts} - {s}
        if any(r < s and r not in opened for r in earlier):
            continue  # an earlier image said NO or was skipped
        want.append(s)
        if s in open_:
            opened.add(s)
    path = tmp_path / "searched"
    path.write_text("")
    with pytest.raises(ResourceLimitError) as e:
        scan_subsets(partial(_logged, path, partial(_open_or_no, open_)), cands, workers, G)
    got = [tuple(line.split()) for line in path.read_text().splitlines()]
    assert sorted(got) == want
    assert e.value.count == len(opened)
    # 8 orbits, so five searches are there because an earlier image is open
    assert (len(want), len(opened)) == (13, 6)


@pytest.mark.parametrize("workers", [1, 2])
def test_maps_that_are_not_a_group_skip_the_same_subsets(tmp_path, monkeypatch, workers):
    # automorphisms() may list only part of the group.  Here it lists one
    # map without its powers: v00 -> vM and v(i) -> v(i-1) up to vM, where
    # M is the number of subsets that two workers read before any result.
    # At two workers v01..v(M-1) wait on v00 through each other; once v00
    # says NO the scan reads vM, which waits on v(M-1), and then skips all of
    # them at once.  It must still read the three subsets after them, which
    # have no earlier image.
    m = 2 * parallel.WINDOW
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
