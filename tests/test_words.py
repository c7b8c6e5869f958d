import random

import pytest
from hypothesis import given, settings, strategies as st

from vmkit import (
    Dow,
    DowClass,
    SimpleGraph,
    alternance_graph,
    alternances,
    find_euler_tour,
    induced_subword,
    induced_word,
    k3_expand,
    lc_orbit,
    local_complement,
    delete_vertex,
    mirror,
    multigraph_from_word,
    word_delete,
    word_local_complement,
)
from vmkit import words
from vmkit.words import word_of

from corpus_helpers import (
    all_dow_classes,
    all_four_regular_multigraphs,
    all_labeled_graphs,
    bw3,
    complete_graph,
    induced,
    petersen,
    prism,
    wheel,
    worked_graph,
)


X0 = Dow.from_text("adcbaebced")


def test_dow_validation():
    with pytest.raises(ValueError):
        Dow(("a", "b", "a"))
    with pytest.raises(ValueError):
        Dow(("a", "a", "b", "b", "b", "b"))
    assert Dow.from_text("a b a b").letters == ("a", "b", "a", "b")
    assert Dow.from_text("abab").letters == ("a", "b", "a", "b")


def test_worked_example_alternances():
    # the five alternances of adcbaebced
    want = {
        frozenset("ab"),
        frozenset("ac"),
        frozenset("ad"),
        frozenset("be"),
        frozenset("ce"),
    }
    assert alternances(X0) == want
    assert alternance_graph(X0) == worked_graph()


def test_alternance_invariance_under_rotation_and_mirror():
    for w in all_dow_classes(4):
        base = alternances(w)
        rot = Dow(w.letters[3:] + w.letters[:3])
        assert alternances(rot) == base
        assert alternances(mirror(w)) == base


def test_canonicalize_is_class_invariant():
    w = X0
    cls = DowClass(w)
    for r in range(len(w.letters)):
        rot = Dow(w.letters[r:] + w.letters[:r])
        assert DowClass(rot) == cls
        assert DowClass(mirror(rot)) == cls
    assert DowClass(Dow.from_text("abab")) != DowClass(Dow.from_text("aabb"))


def test_word_local_complement_matches_graph_op():
    for w in all_dow_classes(3) + all_dow_classes(4):
        G = alternance_graph(w)
        for v in sorted({*w.letters}):
            assert alternance_graph(word_local_complement(w, v)) == local_complement(G, v)


def test_word_delete_matches_graph_op():
    for w in all_dow_classes(3) + all_dow_classes(4):
        G = alternance_graph(w)
        for v in sorted({*w.letters}):
            assert alternance_graph(word_delete(w, v)) == delete_vertex(G, v)


def test_induced_subword_matches_induced_subgraph():
    w = X0
    G = alternance_graph(w)
    assert alternance_graph(induced_subword(w, set("abd"))) == induced(G, "abd")
    sub = induced_subword(w, set("abcd"))
    assert sub.letters == tuple("adcbabcd")


def test_multigraph_from_word_fixture():
    F = multigraph_from_word(X0)
    assert F.edges == (
        ("a", "d"), ("c", "d"), ("b", "c"), ("a", "b"), ("a", "e"),
        ("b", "e"), ("b", "c"), ("c", "e"), ("d", "e"), ("a", "d"),
    )
    # every vertex occurs twice in the word, so the multigraph is 4-regular
    assert all(F.degree(v) == 4 for v in F.vertices)


def test_multigraph_from_word_rotation_gives_same_multiset():
    w2 = Dow.from_text("abcdaebced")
    F1 = multigraph_from_word(X0)
    F2 = multigraph_from_word(w2)
    assert sorted(F1.edges) == sorted(F2.edges)


def test_word_ops_reject_missing_letter():
    with pytest.raises(ValueError):
        word_local_complement(X0, "z")
    with pytest.raises(ValueError):
        word_delete(X0, "z")


# derandomized and without an example database: the same examples every run
# and no .hypothesis/ directory in the checkout
PROPERTY = settings(derandomize=True, database=None, max_examples=300, deadline=None)


@st.composite
def dows(draw, max_letters=10):
    letters = "abcdefghij"[: draw(st.integers(0, max_letters))]
    return Dow(draw(st.permutations(list(letters) * 2)))


def _alternate(X, u, v):
    p1, p2 = [i for i, x in enumerate(X.letters) if x == u]
    return [X.letters[i] for i in range(p1 + 1, p2)].count(v) == 1


@PROPERTY
@given(dows(), st.data())
def test_word_operations_commute_with_alternance_graph(X, data):
    letters = sorted(X.vertex_set())
    G = alternance_graph(X)
    assert G.edges == {(u, v) for u in letters for v in letters
                       if u < v and _alternate(X, u, v)}
    if letters:
        v = data.draw(st.sampled_from(letters))
        assert alternance_graph(word_local_complement(X, v)) == local_complement(G, v)
        assert alternance_graph(word_delete(X, v)) == delete_vertex(G, v)
    keep = data.draw(st.lists(st.booleans(), min_size=len(letters), max_size=len(letters)))
    W = {v for v, k in zip(letters, keep) if k}
    assert alternance_graph(induced_subword(X, W)) == induced(G, W)


def _cube():
    return SimpleGraph("abcdefgh", [tuple(e) for e in
                                    "ab bc cd da ef fg gh he ae bf cg dh".split()])


def _has_checked_word(G):
    X = word_of(G)
    return X is not None and alternance_graph(X) == G


def test_word_of_finds_a_word_of_every_circle_graph():
    for R in (complete_graph("abcd"), prism(), _cube(), petersen()):
        assert _has_checked_word(alternance_graph(induced_word(find_euler_tour(k3_expand(R)))))
    for n in range(1, 6):
        for F in all_four_regular_multigraphs(n):
            assert _has_checked_word(alternance_graph(induced_word(find_euler_tour(F))))
    rng = random.Random(29)
    for _ in range(300):
        letters = [f"x{i}" for i in range(rng.randint(0, 25))] * 2
        rng.shuffle(letters)
        assert _has_checked_word(alternance_graph(Dow(letters)))
    # no graph on five vertices has W5, W7 or BW3 as a vertex-minor
    assert all(map(_has_checked_word, all_labeled_graphs("abcde")))


def test_word_of_refuses_the_circle_graph_obstructions():
    # Bouchet (1994): a graph is a circle graph exactly when it has no
    # vertex-minor isomorphic to W5, W7 or BW3
    for G in (wheel(5), wheel(7), bw3()):
        assert word_of(G) is None
    assert all(word_of(M) is None for M in lc_orbit(wheel(5)))


def test_word_of_raises_on_a_word_that_does_not_check(monkeypatch):
    # None means "not a circle graph"; a full word whose alternance graph is
    # not G is a bug
    monkeypatch.setattr(words, "alternance_graph", lambda X: complete_graph("xyz"))
    with pytest.raises(RuntimeError, match="internal error"):
        word_of(complete_graph("abcd"))
