import pickle
import random
from collections import Counter, deque
from itertools import combinations, permutations

import pytest

from vmkit import (
    Dow,
    MultiGraph,
    SimpleGraph,
    connected_components,
    delete_vertex,
    find_isomorphism,
    is_regular,
    k3_expand,
    local_complement,
    multigraph_from_word,
)
from vmkit import graphs
from vmkit.graphs import automorphisms, isomorphisms
from corpus_helpers import (
    all_four_regular_multigraphs,
    all_labeled_graphs,
    complete_graph,
    cycle_graph,
    k33,
    path_graph,
    petersen,
    prism,
    star_graph,
)


def test_simple_graph_basics():
    G = SimpleGraph("cab", [("a", "b"), ("c", "a")])
    assert G.vertices == ("a", "b", "c")
    assert G.has_edge("b", "a") and G.has_edge("a", "c")
    assert not G.has_edge("b", "c")
    assert G.neighbors("a") == {"b", "c"}
    assert G.degree("a") == 2 and G.degree("b") == 1
    assert G.sorted_edges() == (("a", "b"), ("a", "c"))


def test_simple_graph_rejects_bad_input():
    with pytest.raises(ValueError):
        SimpleGraph(["a", ""], [])
    with pytest.raises(ValueError):
        SimpleGraph("ab", [("a", "a")])
    with pytest.raises(ValueError):
        SimpleGraph("ab", [("a", "z")])
    with pytest.raises(ValueError):
        SimpleGraph("ab", []).neighbors("z")


def test_simple_graph_equality_and_hash():
    G1 = SimpleGraph("ab", [("a", "b")])
    G2 = SimpleGraph("ba", [("b", "a")])
    assert G1 == G2 and hash(G1) == hash(G2)
    assert G1 != SimpleGraph("ab", [])
    assert len({G1, G2}) == 1


def test_simple_graph_pickles():
    G = petersen()
    assert pickle.loads(pickle.dumps(G)) == G


def test_multigraph_edge_ids_and_degrees():
    F = MultiGraph("ab", [("a", "b"), ("b", "a"), ("a", "a")])
    assert F.edges == (("a", "b"), ("a", "b"), ("a", "a"))
    assert F.edges[2] == ("a", "a")
    assert F.incident("a") == (0, 1, 2)
    assert F.incident("b") == (0, 1)
    assert F.degree("a") == 4 and F.degree("b") == 2
    S = SimpleGraph("ab", [("a", "b")])
    assert (F.vertices, F.rows) == (S.vertices, S.rows)
    assert F.loops == 0b01
    assert is_regular(F, 4) is False
    with pytest.raises(ValueError, match="'z' is not a vertex"):
        MultiGraph("ab", [("a", "b"), ("a", "z")])


def test_multigraph_rows_and_loops_match_the_edges():
    corpus = [F for n in range(1, 6) for F in all_four_regular_multigraphs(n)]
    assert len(corpus) == 45
    expansions = [k3_expand(R) for R in (complete_graph("abcd"), prism(), k33(), petersen())]
    traced = [multigraph_from_word(Dow(w)) for w in ("aabb", "abab", "abcabc", "aabcbc",
                                                      "adcbaebced")]
    for F in corpus + expansions + traced:
        # the support as it was built from the edge list
        support = SimpleGraph(F.vertices, {e for e in F.edges if e[0] != e[1]})
        assert (F.vertices, F.rows) == (support.vertices, support.rows), F
        pos = {v: i for i, v in enumerate(F.vertices)}
        assert F.loops == sum(1 << pos[a] for a in {a for a, b in F.edges if a == b}), F
        back = pickle.loads(pickle.dumps(F))
        assert (back.rows, back.loops) == (F.rows, F.loops), F


def test_multigraph_tables_match_a_recount():
    # random multigraphs on 1-8 vertices: loops, parallel edges, isolated
    # vertices and no edges at all; the first carries two loops at one vertex
    rng = random.Random(20261020)
    cases = [MultiGraph("ab", [("a", "a"), ("a", "b"), ("a", "a")])]
    for _ in range(300):
        vs = [f"v{i}" for i in range(rng.randint(1, 8))]
        edges = [(rng.choice(vs), rng.choice(vs)) for _ in range(rng.randint(0, 12))]
        cases.append(MultiGraph(vs, edges))
    for F in cases:
        for v in F.vertices:
            ids = tuple(e for e, pair in enumerate(F.edges) if v in pair)
            assert F.incident(v) == ids, (F, v)
            assert F.degree(v) == sum(pair.count(v) for pair in F.edges), (F, v)
        back = pickle.loads(pickle.dumps(F))
        assert (back._ends, back._inc, back._deg) == (F._ends, F._inc, F._deg), F
        for method in (F.incident, F.degree):
            with pytest.raises(ValueError, match="no vertex 'z'"):
                method("z")
    assert cases[0].incident("a") == (0, 1, 2) and cases[0].degree("a") == 5
    assert any(not F.edges for F in cases)
    assert any(F.degree(v) == 0 for F in cases if F.edges for v in F.vertices)


def test_multigraph_equality():
    F1 = MultiGraph("ab", [("a", "b"), ("a", "a")])
    F2 = MultiGraph("ab", [("b", "a"), ("a", "a")])
    assert F1 == F2
    assert F1 != MultiGraph("ab", [("a", "a"), ("a", "b")])  # ids differ


def test_connected_components():
    G = SimpleGraph("abcde", [("a", "b"), ("c", "d")])
    comps = connected_components(G)
    assert set(map(frozenset, comps)) == {
        frozenset("ab"),
        frozenset("cd"),
        frozenset("e"),
    }


def _bfs_reach(rows, seed, wall):
    """The vertices reached from the seed vertices over rows, expanding none in wall."""
    reached = {i for i in range(len(rows)) if seed >> i & 1}
    queue = deque(i for i in sorted(reached) if not wall >> i & 1)
    while queue:
        x = queue.popleft()
        for y in range(len(rows)):
            if rows[x] >> y & 1 and y not in reached:
                reached.add(y)
                if not wall >> y & 1:
                    queue.append(y)
    return reached


def test_reach_matches_a_set_based_search():
    # random symmetric rows, loops included as the SOET walk's unused-edge
    # rows have them; goals that are reached and goals that are not
    rng = random.Random(20261020)
    kinds = Counter()
    for _ in range(3000):
        n = rng.randint(1, 9)
        rows = [0] * n
        for i in range(n):
            for j in range(i, n):
                if rng.random() < 0.3:
                    rows[i] |= 1 << j
                    rows[j] |= 1 << i
        full = (1 << n) - 1
        seed = rng.randint(1, full)
        # no wall (the elimination kernel's component test), one that may
        # hold seeds, and one beside the seeds
        wall = rng.choice((0, rng.randint(0, full), rng.randint(0, full) & ~seed))
        goal = rng.choice((-1, 1 << rng.randrange(n), rng.randint(1, full)))
        mask = sum(1 << i for i in _bfs_reach(rows, seed, wall))
        got = graphs._reach(rows, seed, goal, wall)
        if goal & ~mask:  # no goal, or one not reached: the whole search runs
            assert got == mask, (rows, seed, goal, wall)
        else:  # a goal that is reached may cut the search short
            assert got & ~mask == 0 and got & (seed | goal) == seed | goal
        kinds["no wall" if not wall else "seed in wall" if seed & wall else "wall"] += 1
        kinds["no goal" if goal == -1 else "not reached" if goal & ~mask else "reached"] += 1
    assert min(kinds.values()) > 300, kinds


def test_restrict_matches_a_set_based_restriction():
    # random symmetric rows; keep empty, full, contiguous or not
    rng = random.Random(20261020)
    kinds = Counter()
    for _ in range(2000):
        n = rng.randint(0, 12)
        rows = [0] * n
        for i, j in combinations(range(n), 2):
            if rng.random() < 0.4:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
        keep = rng.choice((sorted(rng.sample(range(n), rng.randint(0, n))), list(range(n)), []))
        pos = {p: a for a, p in enumerate(keep)}
        want = tuple(sum(1 << pos[j] for j in range(n) if rows[p] >> j & 1 and j in pos)
                     for p in keep)
        assert graphs._restrict(tuple(rows), keep) == want, (rows, keep)
        kinds["empty" if not keep else "full" if len(keep) == n
              else "contiguous" if keep[-1] - keep[0] == len(keep) - 1 else "gaps"] += 1
    assert min(kinds.values()) > 100, kinds


def test_find_isomorphism_basics():
    C5a = cycle_graph("abcde")
    C5b = cycle_graph("vwxyz")
    iso = find_isomorphism(C5a, C5b)
    assert iso is not None
    for u in C5a.vertices:
        for v in C5a.vertices:
            if u < v:
                assert C5a.has_edge(u, v) == C5b.has_edge(iso[u], iso[v])
    assert find_isomorphism(C5a, path_graph("vwxyz" "q")) is None
    assert find_isomorphism(star_graph("abc"), path_graph("xyz")) is not None


def test_find_isomorphism_identity_is_least():
    G = cycle_graph("abcd")
    assert find_isomorphism(G, G) == {v: v for v in G.vertices}


# Plain edge-set reference for the row kernel: sorted label pairs in a set.


def _ref_neighbors(edges, v):
    return {a for e in edges if v in e for a in e} - {v}


def _ref_lc(edges, v):
    out = set(edges)
    out ^= set(combinations(sorted(_ref_neighbors(edges, v)), 2))
    return out


def _ref_delete(edges, v):
    return {e for e in edges if v not in e}


def _agrees(G, vertices, edges):
    assert G.vertices == tuple(sorted(vertices))
    assert G.edges == edges and G.sorted_edges() == tuple(sorted(edges))
    for v in vertices:
        nb = _ref_neighbors(edges, v)
        assert G.neighbors(v) == nb and G.degree(v) == len(nb)
        for u in vertices:
            assert G.has_edge(u, v) == ((u, v) in edges or (v, u) in edges)


def test_row_kernel_matches_edge_sets():
    # every labeled graph on 1 to 5 vertices, every vertex; labels given
    # out of order so that rows follow the sorted labels, not the input
    for n in range(1, 6):
        labels = ("v2", "a", "v10", "b1", "b")[:n]
        pairs = [tuple(sorted(p)) for p in combinations(labels, 2)]
        for m in range(1 << len(pairs)):
            edges = {p for i, p in enumerate(pairs) if m >> i & 1}
            G = SimpleGraph(labels, edges)
            _agrees(G, labels, edges)
            for v in labels:
                _agrees(local_complement(G, v), labels, _ref_lc(edges, v))
                rest = [u for u in labels if u != v]
                _agrees(delete_vertex(G, v), rest, _ref_delete(edges, v))


def test_find_isomorphism_is_the_least_bijection():
    # all ordered pairs of labeled graphs on 4 vertices against a brute
    # force over the 24 bijections in lexicographic order of their images
    gl, hl = "abcd", "wxyz"
    gpairs, hpairs = list(combinations(gl, 2)), list(combinations(hl, 2))
    graphs = []
    for m in range(1 << 6):
        ge = {frozenset(p) for i, p in enumerate(gpairs) if m >> i & 1}
        he = {frozenset(p) for i, p in enumerate(hpairs) if m >> i & 1}
        graphs.append((SimpleGraph(gl, ge), ge, SimpleGraph(hl, he), he))
    images = list(permutations(hl))
    for G, ge, _, _ in graphs:
        for _, _, H, he in graphs:
            want = None
            for img in images:
                f = dict(zip(gl, img))
                if {frozenset((f[u], f[v])) for u, v in ge} == he:
                    want = f
                    break
            assert find_isomorphism(G, H) == want


def test_isomorphisms_list_every_automorphism_in_order():
    # every labeled graph on up to 5 vertices against a brute force over
    # all vertex permutations in lexicographic order of their images
    for n in range(6):
        labels = "abcde"[:n]
        perms = list(permutations(labels))
        for G in all_labeled_graphs(labels):
            want = []
            for img in perms:
                f = dict(zip(labels, img))
                if all(G.has_edge(f[u], f[v]) for u, v in G.edges):
                    want.append(f)
            got = list(isomorphisms(G, G))
            assert got == want, G
            pos = {v: i for i, v in enumerate(labels)}
            assert automorphisms(G) == tuple(
                tuple(pos[f[v]] for v in labels) for f in want[1:])


def _edge_multiset(edges, f):
    return Counter(tuple(sorted((f[u], f[v]))) for u, v in edges)


def test_multigraph_automorphisms_keep_multiplicities_and_loops():
    corpus = [F for n in range(1, 6) for F in all_four_regular_multigraphs(n)]
    assert len(corpus) == 45
    for F in corpus:
        vs = F.vertices
        want = _edge_multiset(F.edges, {v: v for v in vs})
        brute = [img for img in permutations(range(len(vs)))
                 if _edge_multiset(F.edges, {v: vs[i] for v, i in zip(vs, img)}) == want]
        assert brute[0] == tuple(range(len(vs)))
        assert automorphisms(F) == tuple(brute[1:]), F
    # parallel edges and loops cut the support's group down
    F = MultiGraph("abc", [("a", "b"), ("a", "b"), ("b", "c"), ("c", "a"),
                           ("a", "a")])
    support = SimpleGraph(F.vertices, {e for e in F.edges if e[0] != e[1]})
    assert F.rows == support.rows and len(automorphisms(support)) == 5
    assert automorphisms(F) == ()


def test_automorphisms_are_capped(monkeypatch):
    # K_8 has 8! automorphisms; a capped prefix of them is listed
    K8 = complete_graph("abcdefgh")
    auts = automorphisms(K8)
    assert len(auts) == graphs._AUTOMORPHISM_CAP - 1
    assert list(auts) == sorted(auts)
    assert auts[0] == (0, 1, 2, 3, 4, 5, 7, 6)
    # a bound on the search's steps also cuts the list to a prefix
    P = petersen()
    full = automorphisms(P)
    assert len(full) == 119
    monkeypatch.setattr(graphs, "_AUTOMORPHISM_STEPS", 200)
    part = automorphisms(P)
    assert 0 < len(part) < len(full) and part == full[:len(part)]
