import random

import pytest

from vmkit import (
    ResourceLimitError,
    SimpleGraph,
    apply_lc_word,
    classify_star_or_complete,
    lc_equivalent,
    lc_orbit,
    lc_word_between,
    local_complement,
)
from corpus_helpers import all_labeled_graphs, complete_graph, cycle_graph, star_graph


def test_local_complement_fixture():
    G = star_graph("abc")  # center a
    assert local_complement(G, "a") == complete_graph("abc")
    assert local_complement(complete_graph("abc"), "a") == G


def test_local_complement_is_involution():
    rng = random.Random(3)
    for _ in range(30):
        n = rng.randint(2, 6)
        labels = "abcdef"[:n]
        edges = [e for e in complete_graph(labels).edges if rng.random() < 0.5]
        G = SimpleGraph(labels, edges)
        v = rng.choice(labels)
        assert local_complement(local_complement(G, v), v) == G


def test_pivot_is_symmetric_on_edges():
    # tau_u tau_v tau_u equals tau_v tau_u tau_v whenever uv is an edge
    for G in all_labeled_graphs("abcd"):
        for u, v in G.edges:
            assert apply_lc_word(G, (u, v, u)) == apply_lc_word(G, (v, u, v))


def test_apply_lc_word_names_bad_step():
    G = star_graph("abc")
    with pytest.raises(ValueError) as err:
        apply_lc_word(G, ("a", "z"))
    assert "1" in str(err.value)


def test_orbit_of_star_is_star_plus_complete():
    S = star_graph("abcd")
    orbit = lc_orbit(S)
    assert complete_graph("abcd") in orbit
    for center in "abcd":
        assert SimpleGraph("abcd", [(center, x) for x in "abcd" if x != center]) in orbit
    assert len(orbit) == 5


def test_lc_equivalent_and_word_between():
    A = star_graph("abcd")
    B = complete_graph("abcd")
    assert lc_equivalent(A, B)
    w = lc_word_between(A, B)
    assert apply_lc_word(A, w) == B
    C5 = cycle_graph("abcde")
    assert lc_word_between(C5, star_graph("abcde")) is None
    with pytest.raises(ValueError):
        lc_equivalent(A, star_graph("wxyz"))


def test_orbit_cap_raises():
    with pytest.raises(ResourceLimitError):
        lc_orbit(cycle_graph("abcdef"), node_cap=3)


def test_classify_star_or_complete():
    assert classify_star_or_complete(complete_graph("abcd")) == ("complete", None)
    assert classify_star_or_complete(star_graph("dabc")) == ("star", "d")
    assert classify_star_or_complete(SimpleGraph("ab", [("a", "b")])) == ("complete", None)
    assert classify_star_or_complete(cycle_graph("abcd")) == ("neither", None)
    assert classify_star_or_complete(SimpleGraph("abc", [("a", "b")])) == ("neither", None)
