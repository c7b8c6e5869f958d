"""Decider tests: witness replay, closure agreement, determinism, budgets."""

import random
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings, strategies as st

import vmkit.solvers as solvers
import vmkit.words as words
from vmkit.lc import _lc_rows
from vmkit.parallel import orbit_least, scan_subsets

from vmkit import (
    Decision,
    Dow,
    ResourceLimitError,
    SimpleGraph,
    VmWitness,
    alternance_graph,
    classify_star_or_complete,
    delete_vertex,
    enumerate_euler_tours,
    enumerate_hamiltonian_cycles,
    find_euler_tour,
    find_isomorphism,
    hamiltonian_decide,
    induced_subword,
    induced_word,
    iso_vm_decide,
    k3_expand,
    labeled_vm_decide,
    lc_orbit,
    lc_word_between,
    local_complement,
    multigraph_from_word,
    reduce_starvm_to_isovm,
    star_vm_decide,
    verify_vm_witness,
    vertex_minor_closure,
    vm_oracle_via_tours,
)

from corpus_helpers import (
    all_four_regular_multigraphs,
    all_labeled_graphs,
    bridged,
    bw3,
    complete_graph,
    cycle_graph,
    open_subset,
    worked_graph,
    path_graph,
    petersen,
    prism,
    star_graph,
    wheel,
    wheel5,
)
from test_parallel import _iso_scan, _vm

C5 = cycle_graph("abcde")
K3 = complete_graph("xyz")
K4 = complete_graph("abcd")


def test_decision_status_guard():
    assert Decision("yes").is_yes
    assert Decision("no").is_no
    assert Decision("unknown").is_unknown
    with pytest.raises(ValueError):
        Decision("maybe")


def test_witness_normalization():
    w = VmWitness((("DEL", "b"), ("LC", "a")), (("c", "y"), ("a", "x")))
    assert w.ops == (("DEL", "b"), ("LC", "a"))
    assert w.iso == (("a", "x"), ("c", "y"))
    assert w.iso_map() == {"a": "x", "c": "y"}
    with pytest.raises(ValueError):
        VmWitness((("SWAP", "a"),), ())


def test_verifier_replays_c5_to_k3():
    ops = (("DEL", "d"), ("DEL", "e"), ("LC", "b"))
    good = VmWitness(ops, (("a", "x"), ("b", "y"), ("c", "z")))
    assert verify_vm_witness(C5, K3, good)
    # same replay ends in a triangle, which is not the path x-y-z
    assert not verify_vm_witness(C5, path_graph("xyz"), good)


def test_verifier_rejects_malformed_and_wrong_iso():
    with pytest.raises(ValueError, match="step 0"):
        verify_vm_witness(C5, K3, VmWitness((("DEL", "z"),), ()))
    with pytest.raises(ValueError, match="step 1"):
        verify_vm_witness(
            C5, K3, VmWitness((("DEL", "d"), ("LC", "d")), ())
        )
    ops = (("DEL", "d"), ("DEL", "e"), ("LC", "b"))
    # iso missing a survivor
    assert not verify_vm_witness(C5, K3, VmWitness(ops, (("a", "x"), ("b", "y"))))
    # iso not injective on targets
    assert not verify_vm_witness(
        C5, K3, VmWitness(ops, (("a", "x"), ("b", "x"), ("c", "z")))
    )


def test_hamiltonian_cycles_of_k4():
    cycles = list(enumerate_hamiltonian_cycles(K4))
    assert cycles == [
        ("a", "b", "c", "d"),
        ("a", "b", "d", "c"),
        ("a", "c", "b", "d"),
    ]
    d = hamiltonian_decide(K4)
    assert d.is_yes and d.witness == ("a", "b", "c", "d")


def test_hamiltonian_preconditions():
    with pytest.raises(ValueError):
        hamiltonian_decide(C5)
    two_k4 = SimpleGraph(
        "abcdefgh",
        [(u, v) for u, v in K4.edges]
        + [(chr(ord(u) + 4), chr(ord(v) + 4)) for u, v in K4.edges],
    )
    with pytest.raises(ValueError):
        hamiltonian_decide(two_k4)
    # no vertices: no component, so not connected
    with pytest.raises(ValueError, match="must be connected"):
        hamiltonian_decide(SimpleGraph(()))


def test_hamiltonian_petersen_is_no():
    for R in (petersen(), bridged()):
        d = hamiltonian_decide(R)
        assert d.is_no


def test_star_decide_fixture():
    d = star_vm_decide(worked_graph(), 4)
    assert d.is_yes
    subset, w = d.witness
    assert subset == frozenset("abcd")
    assert w.ops == (("DEL", "e"),)
    assert star_vm_decide(worked_graph(), 5).is_no
    with pytest.raises(ValueError):
        star_vm_decide(worked_graph(), 0)
    with pytest.raises(ValueError):
        star_vm_decide(worked_graph(), 6)


def test_star_decide_k1():
    d = star_vm_decide(worked_graph(), 1)
    assert d.is_yes
    subset, w = d.witness
    assert subset == frozenset("a")
    assert w.ops == tuple(("DEL", v) for v in "bcde")


def test_iso_decide_identity_and_fixture():
    for G in (worked_graph(), C5, prism()):
        d = iso_vm_decide(G, G)
        assert d.is_yes
        subset, w = d.witness
        assert subset == frozenset(G.vertices)
        assert w.ops == ()
        assert verify_vm_witness(G, G, w)
    d = iso_vm_decide(C5, K3, deterministic=True)
    assert d.is_yes
    subset, w = d.witness
    assert subset == frozenset("abc")
    assert w.ops == (("DEL", "d"), ("DEL", "e"), ("LC", "b"))
    assert verify_vm_witness(C5, K3, w)


def test_iso_decide_preconditions():
    with pytest.raises(ValueError):
        iso_vm_decide(C5, SimpleGraph("", []))
    with pytest.raises(ValueError):
        iso_vm_decide(K3, C5)


def test_labeled_decide_needs_h_vertices_in_g():
    with pytest.raises(ValueError):
        labeled_vm_decide(C5, SimpleGraph("az", [("a", "z")]))


def test_labeled_target_orbit_is_kept_but_not_an_overflow(monkeypatch):
    searches = []
    orbit_words = solvers._orbit_words

    def counted(G, cap, stop_at=None):
        searches.append(cap)
        return orbit_words(G, cap, stop_at)

    monkeypatch.setattr(solvers, "_orbit_words", counted)
    solvers._labeled_target.cache_clear()
    G, H = worked_graph(), complete_graph("abc")
    # an overflow is not kept: the same small cap searches again, and the
    # default cap still answers afterwards
    assert labeled_vm_decide(G, H, orbit_cap=1).is_unknown
    assert labeled_vm_decide(G, H, orbit_cap=1).is_unknown
    assert len(searches) == 2
    first = labeled_vm_decide(G, H)
    assert first.is_yes and len(searches) == 3
    # the second decision on the same target runs no orbit search
    assert labeled_vm_decide(G, H) == first and len(searches) == 3
    # a kept orbit does not answer for a smaller cap
    assert labeled_vm_decide(G, H, orbit_cap=1).is_unknown
    assert len(searches) == 4


def _is_star(M):
    n = len(M.vertices)
    if n == 1:
        return True
    return len(M.edges) == n - 1 and max(M.degree(v) for v in M.vertices) == n - 1


def test_deciders_agree_with_closure_on_three_vertices():
    for G in all_labeled_graphs("abc"):
        closure = vertex_minor_closure(G)
        for H in all_labeled_graphs("abc"):
            d = labeled_vm_decide(G, H)
            assert d.is_yes == (H in closure)
            if d.is_yes:
                assert verify_vm_witness(G, H, d.witness)
        for H in all_labeled_graphs("ab"):
            assert labeled_vm_decide(G, H).is_yes == (H in closure)
        for H in all_labeled_graphs("xy"):
            want = any(
                len(M.vertices) == 2 and find_isomorphism(M, H) for M in closure
            )
            assert iso_vm_decide(G, H).is_yes == want
        for k in (1, 2, 3):
            want = any(len(M.vertices) == k and _is_star(M) for M in closure)
            assert star_vm_decide(G, k).is_yes == want


def test_deciders_agree_with_closure_on_worked_graph():
    G = worked_graph()
    closure = vertex_minor_closure(G)
    targets = [
        complete_graph("abc"),
        path_graph("bce"),
        star_graph("abcd"),
        SimpleGraph("abde", [("a", "b"), ("d", "e")]),
    ]
    for H in targets:
        d = labeled_vm_decide(G, H)
        assert d.is_yes == (H in closure)
        if d.is_yes:
            assert verify_vm_witness(G, H, d.witness)


@st.composite
def labeled_graphs(draw, labels):
    pairs = [p for p in combinations(labels, 2) if draw(st.booleans())]
    return SimpleGraph(labels, pairs)


# derandomized and without an example database, like the other property
# tests; one closure of a 6-vertex graph takes up to about 0.3 s
@settings(derandomize=True, database=None, max_examples=50, deadline=None)
@given(labeled_graphs("abcdef"), st.data())
def test_labeled_decide_agrees_with_closure_on_six_vertices(G, data):
    closure = vertex_minor_closure(G)
    members = sorted(closure, key=lambda M: (M.vertices, M.sorted_edges()))
    inside = data.draw(st.sampled_from(members))
    labels = data.draw(st.lists(st.sampled_from("abcdef"), min_size=1, unique=True))
    anywhere = data.draw(labeled_graphs(sorted(labels)))
    for H in (inside, anywhere):
        d = labeled_vm_decide(G, H)
        assert d.is_yes == (H in closure), (G, H, d)
        if d.is_yes:
            assert verify_vm_witness(G, H, d.witness)


def _deleted(rows, v):
    """The reference deletion: v's row cleared and v masked out of every row."""
    return tuple(0 if i == v else r & ~(1 << v) for i, r in enumerate(rows))


def _moved(rows, perm):
    """The same graph's rows with position x moved to perm[x]."""
    out = [0] * len(rows)
    for x, r in enumerate(rows):
        out[perm[x]] = sum(1 << perm[j] for j in range(len(rows)) if r >> j & 1)
    return tuple(out)


def _pivot_child(rows, v):
    nb = rows[v]
    u = (nb & -nb).bit_length() - 1
    return _deleted(_lc_rows(_lc_rows(_lc_rows(rows, v), u), v), v)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(st.integers(1, 12).flatmap(lambda n: labeled_graphs([f"v{i:02d}" for i in range(n)])))
def test_one_pass_children_match_complement_then_delete(G):
    eng = solvers._ElimSearch(G, (), accept=lambda rows: None)
    rows = G.rows
    for v, lv in enumerate(G.vertices):
        nb = rows[v]
        want = [((), _deleted(rows, v))]
        if nb.bit_count() >= 2:
            want.append(((("LC", lv),), _deleted(_lc_rows(rows, v), v)))
        if nb:
            lu = G.vertices[(nb & -nb).bit_length() - 1]
            want.append(((("LC", lv), ("LC", lu), ("LC", lv)), _pivot_child(rows, v)))
        assert eng._options(rows, v) == want, (G, lv)
    # the pivot takes v's least neighbour, so every edge uv gets its turn
    # with u swapped into position 0
    for v, u in permutations(range(len(rows)), 2):
        if rows[v] >> u & 1:
            perm = list(range(len(rows)))
            perm[0], perm[u] = u, 0
            moved = _moved(rows, perm)
            assert eng._options(moved, perm[v])[-1][1] == _pivot_child(moved, perm[v])


def test_closure_cap():
    with pytest.raises(ResourceLimitError):
        vertex_minor_closure(worked_graph(), node_cap=5)


def test_budget_turns_unknown():
    d = star_vm_decide(worked_graph(), 4, budget=0)
    assert d.is_unknown and "budget" in d.detail
    d = iso_vm_decide(worked_graph(), K3, budget=0)
    assert d.is_unknown
    d = iso_vm_decide(worked_graph(), path_graph("xyz"), orbit_cap=1)
    assert d.is_unknown and d.detail.startswith("orbit of H overflowed")
    d = labeled_vm_decide(worked_graph(), complete_graph("abc"), budget=0)
    assert d.is_unknown


def test_budgeted_decisions_are_worker_independent():
    # a budgeted scan ends at its first subset that does not say NO, so each
    # budget gives the unbudgeted answer or UNKNOWN at a subset no later
    # than the unbudgeted one, at every worker count.  Petersen's first
    # 5-subset and first 4-subset are the least YES for the star and K4 and
    # need budgets 275 and 35.
    G = petersen()
    for decide in (lambda **kw: star_vm_decide(G, 5, **kw),
                   lambda **kw: iso_vm_decide(G, K4, **kw)):
        want = decide()
        seen = set()
        for budget in range(0, 601, 50):
            one = decide(budget=budget, workers=1)
            assert one == decide(budget=budget, workers=2), budget
            seen.add(one.status)
            if one.is_unknown:
                assert one.witness is None
                assert open_subset(one.detail) <= tuple(sorted(want.witness[0])), budget
            else:
                assert one == want, budget
        assert seen == {"yes", "unknown"}


def test_deterministic_mode_is_worker_independent():
    base = star_vm_decide(worked_graph(), 4, deterministic=True, workers=1)
    assert base == star_vm_decide(worked_graph(), 4, deterministic=True, workers=2)
    assert base == star_vm_decide(worked_graph(), 4, deterministic=True, workers=1)
    one = iso_vm_decide(C5, K3, deterministic=True, workers=1)
    two = iso_vm_decide(C5, K3, deterministic=True, workers=2)
    assert one == two


def _circle_of_k4_expansion():
    return alternance_graph(induced_word(find_euler_tour(k3_expand(K4))))


# a witness depends on which orbit member a leaf matches first, so these
# guard the order of the orbit buckets in both modes and at both worker counts
ISO_PINS = [
    (lambda: C5, K3, frozenset("abc"),
     (("DEL", "d"), ("DEL", "e"), ("LC", "b")),
     (("a", "y"), ("b", "x"), ("c", "z"))),
    (worked_graph, K4, frozenset("abcd"),
     (("DEL", "e"), ("LC", "a")),
     (("a", "a"), ("b", "b"), ("c", "c"), ("d", "d"))),
    (_circle_of_k4_expansion, cycle_graph("vwxyz"),
     frozenset(("a^(b)", "a^(c)", "a^(d)", "b^(c)", "b^(d)")),
     (("DEL", "b^(a)"), ("DEL", "c^(a)"), ("DEL", "c^(b)"), ("DEL", "c^(d)"),
      ("DEL", "d^(a)"), ("DEL", "d^(b)"), ("DEL", "d^(c)"),
      ("LC", "b^(c)"), ("LC", "a^(b)")),
     (("a^(b)", "v"), ("a^(c)", "z"), ("a^(d)", "y"), ("b^(c)", "w"),
      ("b^(d)", "x"))),
]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("deterministic", [False, True])
@pytest.mark.parametrize("make_g, H, subset, ops, iso", ISO_PINS)
def test_iso_decide_witnesses_are_pinned(make_g, H, subset, ops, iso,
                                         deterministic, workers):
    d = iso_vm_decide(make_g(), H, deterministic=deterministic, workers=workers)
    detail = f"V' = {{{' '.join(sorted(subset))}}}"
    assert d == Decision("yes", (subset, VmWitness(ops, iso)), detail)


CIRCLE_NO = Decision("no", None, "G is a circle graph and H is not, and circle "
                     "graphs are closed under vertex-minors")


def test_elimination_tree_is_pinned(monkeypatch):
    # a kernel edit may change the search tree while the witnesses hold;
    # (nodes, memo states, runs) summed over each decision's searches pin it
    run = solvers._ElimSearch.run
    total = [0, 0, 0]

    def counted(self):
        try:
            return run(self)
        finally:
            total[0] += self.nodes
            total[1] += len(self.memo)
            total[2] += 1

    monkeypatch.setattr(solvers._ElimSearch, "run", counted)
    G = _circle_of_k4_expansion()
    star = reduce_starvm_to_isovm(G, 8)[1]  # the elimination route of the star step
    iso_vm_decide(G, star)
    assert total == [3156, 1223, 88]
    # iso_vm_decide answers W5 without a search, so the scan it skips pins
    # the tree of a scan that never stops early
    task, subsets = _iso_scan(G, wheel5())
    total[:] = [0, 0, 0]
    assert scan_subsets(task, orbit_least(G, subsets), 1) is None
    assert total == [27657, 10679, 190]
    total[:] = [0, 0, 0]
    assert iso_vm_decide(G, wheel5()) == CIRCLE_NO
    assert total == [0, 0, 0]


def test_circle_graphs_have_no_vertex_minor_that_is_not_one():
    # the NO without a scan is the scan's NO: W5, W7, BW3 and the members of
    # W5's orbit are not circle graphs (Bouchet 1994)
    rng = random.Random(33)
    graphs = [_circle_of_k4_expansion()]
    for _ in range(30):
        letters = [f"x{i}" for i in range(rng.randint(7, 10))] * 2
        rng.shuffle(letters)
        graphs.append(alternance_graph(Dow(letters)))
    targets = [wheel(5), wheel(7), bw3(), *sorted(lc_orbit(wheel(5)), key=repr)]
    for G in graphs:
        scanned = []  # a scan's answer depends only on H's isomorphism class
        for H in targets:
            if len(H.vertices) > len(G.vertices):
                continue
            assert iso_vm_decide(G, H) == CIRCLE_NO, (G, H)
            if all(find_isomorphism(H, M) is None for M in scanned):
                assert scan_subsets(*_iso_scan(G, H), 1) is None, (G, H)
                scanned.append(H)
    # a G that is not a circle graph scans; W7 is a least obstruction, so it
    # has no W5 vertex-minor
    W5 = wheel5()
    pendant = SimpleGraph([*W5.vertices, "x"], [*W5.sorted_edges(), ("w1", "x")])
    got = [iso_vm_decide(G, W5) for G in (W5, wheel(7), pendant)]
    assert [d.status for d in got] == ["yes", "no", "yes"]
    assert got[1].detail == "exhausted all candidate subsets"
    for G, d in zip((W5, wheel(7), pendant), got):
        assert d.witness == _vm(scan_subsets(*_iso_scan(G, W5), 1)), G


def test_word_of_gives_up_with_a_resource_limit(monkeypatch):
    G = alternance_graph(induced_word(find_euler_tour(k3_expand(petersen()))))
    want = iso_vm_decide(G, reduce_starvm_to_isovm(G, 2)[1])  # the elimination route
    monkeypatch.setattr(words, "_WORD_WORK", 10)
    with pytest.raises(ResourceLimitError):
        words.word_of(G)
    routes = []

    def counted(*args, **kwargs):
        routes.append(args)
        return iso_vm_decide(*args, **kwargs)

    monkeypatch.setattr(solvers, "iso_vm_decide", counted)
    solvers._word_multigraph.cache_clear()
    try:
        # a graph whose word search gives up takes the elimination route
        assert solvers._word_multigraph(G) is None
        assert star_vm_decide(G, 2) == want
        assert len(routes) == 1
        # and an H whose word search gives up is scanned, not answered NO
        d = iso_vm_decide(cycle_graph("abcdefg"), wheel5())
        assert d == Decision("no", None, "exhausted all candidate subsets")
    finally:
        solvers._word_multigraph.cache_clear()


def _word_route_pairs():
    """(G, k) for the corpus circle graphs at 2 <= k <= 5, K4's expansion at
    every k >= 2 and the prism's at k = 12 and 13."""
    pairs = [(G, k) for G in _corpus_circle_graphs()
             for k in range(2, min(5, len(G.vertices)) + 1)]
    G = _circle_of_k4_expansion()
    pairs += [(G, k) for k in range(2, len(G.vertices) + 1)]
    G = alternance_graph(induced_word(find_euler_tour(k3_expand(prism()))))
    return pairs + [(G, 12), (G, 13)]


@pytest.mark.parametrize("workers", [1, 2])
def test_word_route_agrees_with_elimination(workers):
    # a circle graph's star step is a SOET scan of its word's multigraph; the
    # elimination route gives the same answer, subset and witness
    pairs = _word_route_pairs()
    yes = 0
    for G, k in pairs:
        assert solvers._word_multigraph(G) is not None, G
        d = star_vm_decide(G, k, workers=workers)
        e = iso_vm_decide(G, reduce_starvm_to_isovm(G, k)[1], workers=workers)
        assert (d.status, d.witness) == (e.status, e.witness), (G, k)
        yes += d.is_yes
    assert (len(pairs), yes) == (165, 62)


def test_budgeted_word_route_is_the_unbudgeted_yes_or_unknown_no_later():
    G = alternance_graph(induced_word(find_euler_tour(k3_expand(prism()))))
    want = star_vm_decide(G, 12)
    seen = set()
    for budget in (0, 10, 100, 1000, 10_000):
        d = star_vm_decide(G, 12, budget=budget)
        seen.add(d.status)
        if d.is_unknown:
            assert open_subset(d.detail) <= tuple(sorted(want.witness[0])), budget
        else:
            assert d == want, budget
    assert seen == {"yes", "unknown"}


def test_oracle_matches_labeled_elimination():
    F = multigraph_from_word(Dow("abcdaebced"))
    G0 = alternance_graph(induced_word(find_euler_tour(F)))
    targets = [
        star_graph("abcd"),
        complete_graph("abc"),
        SimpleGraph("ab", [("a", "b")]),
        SimpleGraph("abcd", [("a", "b"), ("c", "d")]),
    ]
    for H in targets:
        d = vm_oracle_via_tours(F, H)
        assert d.status == labeled_vm_decide(G0, H).status
        if d.is_yes:
            assert verify_vm_witness(G0, H, d.witness)


def test_oracle_limit_and_bad_target():
    F = multigraph_from_word(Dow("abcdaebced"))
    assert vm_oracle_via_tours(F, star_graph("abcd"), limit=1).is_unknown
    with pytest.raises(ValueError):
        vm_oracle_via_tours(F, SimpleGraph("z", []))


def _scanned_oracle_decision(words, H):
    """The oracle's answer by a plain scan of the classes in enumeration order."""
    for word in words:
        if alternance_graph(induced_subword(word, H.vertices)) == H:
            return Decision("yes", None, f"tour {word.to_text()}")
    return Decision("no", None, "all tour classes enumerated")


def test_indexed_oracle_matches_the_tour_scan():
    calls = 0
    for n in (1, 2, 3, 4):
        for F in all_four_regular_multigraphs(n):
            words = [induced_word(U) for U in enumerate_euler_tours(F)]
            G0 = alternance_graph(induced_word(find_euler_tour(F)))
            for size in range(1, min(3, n) + 1):
                for S in combinations(F.vertices, size):
                    for H in all_labeled_graphs(S):
                        want = _scanned_oracle_decision(words, H)
                        d = vm_oracle_via_tours(F, H)
                        assert (d.status, d.detail) == (want.status, want.detail)
                        assert not d.is_yes or verify_vm_witness(G0, H, d.witness)
                        calls += 1
            if len(words) > 1:
                # An overflow is not cached: a repeat misses the cache, and
                # the unlimited call still decides.
                H = SimpleGraph(F.vertices[:1], [])
                hits = solvers._tour_index.cache_info().hits
                for _ in range(2):
                    assert vm_oracle_via_tours(F, H, limit=1).is_unknown
                assert solvers._tour_index.cache_info().hits == hits
                assert vm_oracle_via_tours(F, H).status == "yes"
    assert calls > 500, calls


def _elimination_leaves(G, keep):
    """Every leaf (ops, survivor) of the elimination tree over keep.

    The whole tree, with no memo, no pruning and no early return: at each
    victim v in label order, nothing, LC v, or the pivot on v with its least
    neighbor, then DEL v.  The oracle for the elimination search's order.
    """
    victims = [v for v in G.vertices if v not in keep]
    leaves = []

    def walk(S, i, ops):
        if i == len(victims):
            leaves.append((ops, S))
            return
        v = victims[i]
        options = [((), S)]
        if S.degree(v) >= 2:
            options.append(((("LC", v),), local_complement(S, v)))
        if S.degree(v):
            u = min(S.neighbors(v))
            piv = local_complement(local_complement(local_complement(S, v), u), v)
            options.append(((("LC", v), ("LC", u), ("LC", v)), piv))
        for o, T in options:
            walk(delete_vertex(T, v), i + 1, ops + o + (("DEL", v),))

    walk(G, 0, ())
    return leaves


def _least_accepting(leaves, finish):
    """The least ops + finish(S) over the leaves S that finish accepts."""
    found = [ops + extra for ops, S in leaves if (extra := finish(S)) is not None]
    return min(found, default=None)


def _finish_star(S):
    kind, _ = classify_star_or_complete(S)
    if kind == "complete" and len(S.vertices) >= 3:
        return (("LC", S.vertices[0]),)
    return () if kind != "neither" else None


def _finish_labeled(H):
    def finish(S):
        word = lc_word_between(H, S)
        return None if word is None else tuple(("LC", x) for x in reversed(word))

    return finish


def _corpus_circle_graphs():
    for n in range(1, 6):
        for F in all_four_regular_multigraphs(n):
            yield alternance_graph(induced_word(find_euler_tour(F)))


def test_witnesses_are_the_least_of_the_whole_tree():
    # both modes share one search, so the fast mode's witnesses are least too
    stars = labeled = 0
    for G in _corpus_circle_graphs():
        n = len(G.vertices)
        trees = {W: _elimination_leaves(G, W)
                 for k in range(2, n + 1) for W in combinations(G.vertices, k)}
        for k in range(2, n + 1):
            want = None
            for W in combinations(G.vertices, k):
                ops = _least_accepting(trees[W], _finish_star)
                if ops is not None:
                    want = (frozenset(W), ops)
                    break
            d = star_vm_decide(G, k)
            got = None if d.is_no else (d.witness[0], d.witness[1].ops)
            assert got == want, (G, k)
            stars += 1
        for k in (2, 3):
            for W in combinations(G.vertices, k):
                for H in all_labeled_graphs(W):
                    want = _least_accepting(trees[W], _finish_labeled(H))
                    d = labeled_vm_decide(G, H)
                    assert (None if d.is_no else d.witness.ops) == want, (G, H)
                    labeled += 1
    assert (stars, labeled) == (152, 3300)


def test_deep_elimination_is_decided():
    # 1,198 victims, a search deeper than the default recursion limit
    P = path_graph([f"v{i:04d}" for i in range(1200)])
    H = path_graph(["v0000", "v0001"])
    d = labeled_vm_decide(P, H)
    assert d.is_yes and len(d.witness.ops) == 1198
    assert verify_vm_witness(P, H, d.witness)
    K1 = SimpleGraph(["x"], [])
    d = iso_vm_decide(P, K1)
    assert d.is_yes and d.witness[0] == {"v0000"}
    assert verify_vm_witness(P, K1, d.witness[1])
