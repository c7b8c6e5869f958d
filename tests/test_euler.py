import random
from itertools import combinations, islice

import pytest

import vmkit.euler as euler

from vmkit import (
    Dow,
    EulerianTour,
    MultiGraph,
    ResourceLimitError,
    SimpleGraph,
    SoetCertificate,
    canonical_tour,
    enumerate_euler_tours,
    find_euler_tour,
    induced_word,
    is_soet,
    iso_soet_decide,
    k3_expand,
    multigraph_from_word,
    reduce_isosoet_to_starvm,
    reduce_starvm_to_isovm,
    soet_search,
    star_vm_decide,
    tour_from_word,
    vm_oracle_via_tours,
)

from corpus_helpers import (
    all_four_regular_multigraphs,
    complete_graph,
    k33,
    open_subset,
    petersen,
    prism,
)

X0 = Dow.from_text("adcbaebced")
FX0 = multigraph_from_word(X0)
SOET_WORD = Dow.from_text("abcdaebced")


def test_tour_validation():
    F = MultiGraph("ab", [("a", "b")] * 4)
    U = EulerianTour(F, ("a", "b", "a", "b"), (0, 1, 2, 3))
    assert induced_word(U).letters == ("b", "a", "b", "a")
    with pytest.raises(ValueError):
        EulerianTour(F, ("a", "b", "a", "b"), (0, 1, 2, 2))  # edge reused
    with pytest.raises(ValueError):
        EulerianTour(F, ("a", "a", "a", "b"), (0, 1, 2, 3))  # not incident
    with pytest.raises(ValueError):
        EulerianTour(F, ("a", "b"), (0, 1, 2, 3))


def test_find_euler_tour_requirements():
    with pytest.raises(ValueError):
        find_euler_tour(MultiGraph("a", []))
    odd = MultiGraph("ab", [("a", "b")])
    with pytest.raises(ValueError) as err:
        find_euler_tour(odd)
    assert "odd" in str(err.value)
    disconnected = MultiGraph("abcd", [("a", "b"), ("a", "b"), ("c", "d"), ("c", "d")])
    with pytest.raises(ValueError):
        find_euler_tour(disconnected)


def test_find_euler_tour_fixture():
    U = find_euler_tour(FX0)
    # deterministic Hierholzer output; the word is a rotation of the source
    w = induced_word(U)
    doubled = X0.letters + X0.letters
    assert any(doubled[r : r + 10] == w.letters for r in range(10))


def test_tour_from_word_round_trip():
    U = tour_from_word(FX0, SOET_WORD)
    assert induced_word(U).letters == SOET_WORD.letters
    bad = Dow.from_text("abab")
    with pytest.raises(ValueError):
        tour_from_word(FX0, bad)


def test_canonical_tour_is_class_invariant():
    U = find_euler_tour(FX0)
    C = canonical_tour(U)
    assert canonical_tour(C) == C
    # rotating the tour must not change the canonical representative
    vs, es = U.vertex_seq, U.edge_seq
    rot = EulerianTour(FX0, vs[3:] + vs[:3], es[3:] + es[:3])
    assert canonical_tour(rot) == C
    rev = EulerianTour(FX0, (vs[0],) + tuple(reversed(vs[1:])), tuple(reversed(es)))
    assert canonical_tour(rev) == C


def _class_key_by_all_rotations(vertex_seq, edge_seq):
    rvs = (vertex_seq[0],) + tuple(reversed(vertex_seq[1:]))
    res = tuple(reversed(edge_seq))
    return min((e[i:] + e[:i], v[i:] + v[:i])
               for v, e in ((vertex_seq, edge_seq), (rvs, res)) for i in range(len(e)))


def test_class_key_is_the_least_of_all_rotations():
    rnd = random.Random(1)
    bases = [F for n in range(1, 6) for F in all_four_regular_multigraphs(n)]
    bases += [k3_expand(complete_graph("abcd")), k3_expand(prism())]
    cases = 0
    for F in bases:
        for U in [find_euler_tour(F), *islice(enumerate_euler_tours(F), 30)]:
            for _ in range(5):
                i = rnd.randrange(F.n_edges)
                vs, es = U.vertex_seq[i:] + U.vertex_seq[:i], U.edge_seq[i:] + U.edge_seq[:i]
                if rnd.random() < 0.5:
                    vs, es = (vs[0],) + tuple(reversed(vs[1:])), tuple(reversed(es))
                assert euler._class_key(vs, es) == _class_key_by_all_rotations(vs, es)
                cases += 1
    assert cases > 3000


def test_enumerate_tour_classes_two_vertex_bundle():
    F = MultiGraph("ab", [("a", "b")] * 4)
    classes = list(enumerate_euler_tours(F))
    assert len(classes) == 6
    keys = {canonical_tour(U) for U in classes}
    assert len(keys) == 6


def test_enumerate_limit():
    F = multigraph_from_word(X0)
    with pytest.raises(ResourceLimitError):
        list(enumerate_euler_tours(F, limit=2))


@pytest.mark.parametrize("limit", [0, -1])
def test_enumerate_rejects_a_limit_below_one(limit):
    F = multigraph_from_word(X0)
    with pytest.raises(ValueError, match="limit must be positive"):
        list(enumerate_euler_tours(F, limit=limit))
    with pytest.raises(ValueError, match="limit must be positive"):
        vm_oracle_via_tours(F, SimpleGraph("a", []), limit=limit)


def test_is_soet_fixture():
    Vp = frozenset("abcd")
    yes = tour_from_word(FX0, SOET_WORD)
    assert is_soet(yes, Vp) == ("a", "b", "c", "d")
    no = tour_from_word(FX0, X0)
    assert is_soet(no, Vp) is None


def test_is_soet_rotation_invariant():
    Vp = frozenset("abcd")
    U = tour_from_word(FX0, SOET_WORD)
    vs, es = U.vertex_seq, U.edge_seq
    for r in range(10):
        rot = EulerianTour(FX0, vs[r:] + vs[:r], es[r:] + es[:r])
        assert is_soet(rot, Vp) is not None


def test_soet_certificate_revalidates():
    Vp = frozenset("abcd")
    U = tour_from_word(FX0, SOET_WORD)
    cert = SoetCertificate(U, Vp, is_soet(U, Vp))
    assert cert.visit_word == ("a", "b", "c", "d")
    with pytest.raises(ValueError):
        SoetCertificate(tour_from_word(FX0, X0), Vp, ("a", "b", "c", "d"))
    with pytest.raises(ValueError, match="visit word mismatch"):
        SoetCertificate(U, Vp, ("b", "a", "c", "d"))


def test_soet_search_fixture():
    cert = soet_search(FX0, frozenset("abcd"))
    assert cert is not None
    assert is_soet(cert.tour, frozenset("abcd")) is not None
    assert soet_search(FX0, frozenset("abce")) is None


def test_soet_search_deterministic_mode():
    Vp = frozenset("abcd")
    det1 = soet_search(FX0, Vp)
    det2 = soet_search(FX0, Vp)
    assert det1 == det2
    assert det1.tour == canonical_tour(det1.tour)


def test_soet_search_validation_and_budget():
    with pytest.raises(ValueError):
        soet_search(FX0, frozenset())
    with pytest.raises(ValueError):
        soet_search(FX0, frozenset("az"))
    with pytest.raises(ValueError):
        soet_search(MultiGraph("ab", [("a", "b")] * 2), frozenset("a"))
    with pytest.raises(ResourceLimitError):
        soet_search(FX0, frozenset("abcd"), budget=3)


def _message(call, *args):
    with pytest.raises(ValueError) as err:
        call(*args)
    return str(err.value)


def test_each_instance_contract_has_one_message():
    two_regular = MultiGraph("ab", [("a", "b")] * 2)
    disconnected = MultiGraph("abcd", [("a", "b")] * 4 + [("c", "d")] * 4)
    for F in (two_regular, disconnected):
        # k = 0 too: the multigraph's fault is reported before the bad k
        msg = _message(iso_soet_decide, F, 0)
        assert _message(reduce_isosoet_to_starvm, F, 0) == msg
        assert _message(soet_search, F, frozenset("a")) == msg
    for k in (0, len(FX0.vertices) + 1):
        assert _message(iso_soet_decide, FX0, k) == _message(reduce_isosoet_to_starvm, FX0, k)
    U = find_euler_tour(FX0)
    for subset in (frozenset(), frozenset("az")):
        assert _message(is_soet, U, subset) == _message(soet_search, FX0, subset)
    G = prism()
    for k in (0, len(G.vertices) + 1):
        assert _message(star_vm_decide, G, k) == _message(reduce_starvm_to_isovm, G, k)


def test_soet_search_agrees_with_tour_enumeration():
    # every subset of every connected 4-regular multigraph on at most 5
    # vertices, loops included, against the classes that enumeration finds
    cases = 0
    for n in range(1, 6):
        for F in all_four_regular_multigraphs(n):
            classes = list(enumerate_euler_tours(F))
            for k in range(1, n + 1):
                for subset in combinations(F.vertices, k):
                    Vp = frozenset(subset)
                    hits = [U for U in classes if is_soet(U, Vp) is not None]
                    det = soet_search(F, Vp)
                    assert (det is not None) == bool(hits), (F, Vp)
                    if hits:
                        least = min(hits, key=lambda U: (U.edge_seq, U.vertex_seq))
                        assert det.tour == least, (F, Vp)
                    cases += 1
    assert cases == 1053


def test_soet_search_step_counts():
    # the least budget that lets each search finish; a change to the pruning
    # must keep these, or `budget` would mean another amount of work
    K4X = k3_expand(complete_graph("abcd"))
    yes = frozenset(f"{u}^({v})" for u, v in ("ab", "ac", "ba", "bd", "ca", "cd", "db", "dc"))
    no = frozenset(f"{u}^({v})" for u, v in ("ab", "ac", "ba", "bc", "ca", "cd", "db", "dc"))
    # the prism's least YES subset at k = 12, the heaviest search of `chain`
    prism_yes = frozenset(f"{u}^({v})" for u, v in (
        "ab", "ac", "ba", "be", "ca", "cf", "de", "df", "eb", "ed", "fc", "fd"))
    for F, Vp, steps, answer in (
        (FX0, frozenset("abcd"), 30, True),
        (FX0, frozenset("abce"), 0, False),  # rejected before any step
        (K4X, yes, 550, True),
        (K4X, no, 259, False),
        (k3_expand(prism()), prism_yes, 3506, True),
    ):
        found = soet_search(F, Vp, budget=steps)
        assert (found is not None) == answer
        if steps:
            with pytest.raises(ResourceLimitError):
                soet_search(F, Vp, budget=steps - 1)


def test_single_vertex_subset_always_works():
    # a 4-regular tour visits each vertex exactly twice
    for v in "abcde":
        cert = soet_search(FX0, frozenset(v))
        assert cert is not None and cert.visit_word == (v,)


def test_iso_soet_decide_fixture():
    got = iso_soet_decide(FX0, 4)
    assert got is not None
    subset, cert = got
    assert subset == frozenset("abcd")
    assert iso_soet_decide(FX0, 5) is None
    with pytest.raises(ValueError):
        iso_soet_decide(FX0, 0)


def test_iso_soet_decide_budget_and_workers():
    with pytest.raises(ResourceLimitError):
        iso_soet_decide(FX0, 4, budget=2)
    a = iso_soet_decide(FX0, 4, workers=1)
    # the keyword is accepted and ignored: every answer is canonical
    b = iso_soet_decide(FX0, 4, deterministic=True, workers=2)
    assert a == b


def test_budgeted_iso_soet_decide_is_worker_independent():
    # the K3-expansion of K4, k = 8: the unbudgeted scan says yes at a
    # subset whose search takes 550 steps, after subsets that say NO within
    # 176, 180 and 259.  A budgeted scan ends at its first subset that does
    # not say NO, so each budget gives the unbudgeted answer or names a
    # subset no later than its subset, at every worker count.
    K4X = k3_expand(complete_graph("abcd"))
    assert K4X.vertices == tuple(sorted(K4X.vertices))
    want = iso_soet_decide(K4X, 8)
    named = set()
    for budget in range(0, 601, 50):
        outcomes = []
        for workers in (1, 2):
            try:
                outcomes.append(iso_soet_decide(K4X, 8, budget=budget, workers=workers))
            except ResourceLimitError as e:
                outcomes.append(str(e))
        one, two = outcomes
        assert one == two, budget
        if isinstance(one, str):
            assert open_subset(one) <= tuple(sorted(want[0])), budget
            named.add(one)
        else:
            assert one == want, budget
    # UNKNOWN at two subsets before the answer and at the answer's own
    assert len(named) == 3


@pytest.mark.parametrize("workers", [1, 2])
def test_only_quick_no_survivors_are_searched(workers, monkeypatch):
    search = euler.soet_search

    def survivors_only(F, subset, **kwargs):
        assert not euler._soet_quick_no(F, frozenset(subset)), sorted(subset)
        return search(F, subset, **kwargs)

    monkeypatch.setattr(euler, "soet_search", survivors_only)
    # quick-no rejects every 13-subset of the prism's expansion
    assert iso_soet_decide(k3_expand(prism()), 13, workers=workers) is None
    subset, cert = iso_soet_decide(k3_expand(complete_graph("abcd")), 8,
                                   workers=workers)
    assert subset == frozenset(("a^(b)", "a^(c)", "b^(a)", "b^(d)",
                                "c^(a)", "c^(d)", "d^(b)", "d^(c)"))
    assert cert.visit_word == ("a^(b)", "b^(a)", "b^(d)", "d^(b)",
                               "d^(c)", "c^(d)", "c^(a)", "a^(c)")
    assert cert.tour.edge_seq == (0, 12, 3, 5, 20, 9, 10, 22, 7, 14, 2, 16,
                                  17, 1, 13, 4, 21, 11, 23, 8, 18, 19, 6, 15)


def test_candidates_are_the_quick_no_survivors_in_order():
    # iso_soet_decide's pruned generator against the filter it replaces
    corpus = [F for n in range(1, 6) for F in all_four_regular_multigraphs(n)]
    assert len(corpus) == 45
    expansions = [k3_expand(R) for R in (complete_graph("abcd"), prism(), k33())]
    for F in corpus + expansions:
        for k in range(1, len(F.vertices) + 1):
            want = [s for s in combinations(F.vertices, k)
                    if not euler._soet_quick_no(F, frozenset(s))]
            assert list(euler._soet_candidates(F, k)) == want, (F, k)


def test_candidates_at_scale():
    # C(30, 20), about 30 M subsets, of which the generator's cuts leave these
    F = k3_expand(petersen())
    assert sum(1 for _ in euler._soet_candidates(F, 20)) == 55_134


def test_deep_tour_walks_are_decided():
    # a doubled 600-cycle has 1,200 edges, a walk deeper than the default
    # recursion limit; both walks keep explicit stacks
    vs = [f"v{i:03d}" for i in range(600)]
    F = MultiGraph(vs, [(vs[i], vs[(i + 1) % 600]) for i in range(600)] * 2)
    U = next(enumerate_euler_tours(F))
    assert EulerianTour(F, U.vertex_seq, U.edge_seq) == U
    cert = soet_search(F, {"v000", "v001"})
    assert cert is not None
    assert is_soet(cert.tour, cert.subset) == cert.visit_word
    assert cert.subset == {"v000", "v001"}
