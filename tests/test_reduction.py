import pytest

from vmkit import (
    EulerianTour,
    SimpleGraph,
    SoetCertificate,
    alternance_graph,
    build_soet_from_ham,
    canonical_cycle,
    enumerate_hamiltonian_cycles,
    extract_ham_from_soet,
    find_euler_tour,
    induced_word,
    is_regular,
    is_soet,
    k3_expand,
    reduce_cubham_to_isosoet,
    reduce_isosoet_to_starvm,
    reduce_starvm_to_isovm,
    soet_subset_for_cycle,
    validate_ham_cycle,
)
from corpus_helpers import complete_graph, worked_graph, k33, prism


K4 = complete_graph("abcd")


def test_k3_expand_shape():
    F = k3_expand(K4)
    assert len(F.vertices) == 12
    assert F.n_edges == 24  # 3 per triangle, 2 per original edge
    assert is_regular(F, 4)
    assert F.has_vertex("a^(b)")
    with pytest.raises(ValueError):
        k3_expand(worked_graph())  # not cubic
    with pytest.raises(ValueError):
        k3_expand(SimpleGraph(["x^(y)", "u", "v"], []))
    with pytest.raises(ValueError, match="port labels ambiguous"):
        k3_expand(complete_graph(["a^(b)", "b", "c", "d"]))


def test_reduce_cubham_to_isosoet():
    F, k = reduce_cubham_to_isosoet(K4)
    assert k == 8
    assert F == k3_expand(K4)
    with pytest.raises(ValueError):
        reduce_cubham_to_isosoet(
            SimpleGraph("abcdefgh", [(u, v) for u, v in
                        [("a","b"),("b","c"),("a","c"),("d","e"),("e","f"),("d","f")]])
        )


def test_validate_ham_cycle():
    validate_ham_cycle(K4, ("a", "b", "c", "d"))
    with pytest.raises(ValueError):
        validate_ham_cycle(K4, ("a", "b", "c"))
    with pytest.raises(ValueError):
        validate_ham_cycle(K4, ("a", "b", "c", "z"))
    with pytest.raises(ValueError):
        validate_ham_cycle(K4, ("a", "b", "a", "d"))
    with pytest.raises(ValueError):
        validate_ham_cycle(prism(), ("a", "b", "c", "d", "e", "f"))


def test_canonical_cycle():
    assert canonical_cycle(("b", "c", "d", "a")) == ("a", "b", "c", "d")
    assert canonical_cycle(("a", "d", "c", "b")) == ("a", "b", "c", "d")


def test_build_soet_round_trip_k4():
    for cyc in enumerate_hamiltonian_cycles(K4):
        cert = build_soet_from_ham(K4, cyc)
        assert cert.subset == soet_subset_for_cycle(cyc)
        assert len(cert.subset) == 8
        assert is_soet(cert.tour, cert.subset) is not None
        assert extract_ham_from_soet(K4, cert) == canonical_cycle(cyc)
        # the same tour rotated so that its visit word opens on a triangle pair
        vs, es = cert.tour.vertex_seq, cert.tour.edge_seq
        for r in range(len(es)):
            tour = EulerianTour(cert.tour.base, vs[r:] + vs[:r], es[r:] + es[:r])
            s = is_soet(tour, cert.subset)
            if s[0].split("^(")[0] == s[1].split("^(")[0]:
                break
        else:
            pytest.fail("no rotation opens the visit word on a triangle pair")
        rotated = SoetCertificate(tour, cert.subset, s)
        assert extract_ham_from_soet(K4, rotated) == canonical_cycle(cyc)


def test_build_soet_round_trip_six_vertex():
    for R in (prism(), k33()):
        for cyc in enumerate_hamiltonian_cycles(R):
            cert = build_soet_from_ham(R, cyc)
            assert extract_ham_from_soet(R, cert) == canonical_cycle(cyc)


def test_extract_rejects_foreign_cert():
    cert = build_soet_from_ham(K4, ("a", "b", "c", "d"))
    with pytest.raises(ValueError):
        extract_ham_from_soet(prism(), cert)


def test_reduce_isosoet_to_starvm():
    F, k = reduce_cubham_to_isosoet(K4)
    G, k2 = reduce_isosoet_to_starvm(F, k)
    assert k2 == k
    assert G == alternance_graph(induced_word(find_euler_tour(F)))
    with pytest.raises(ValueError):
        reduce_isosoet_to_starvm(F, 0)


def test_reduce_starvm_to_isovm():
    G, H = reduce_starvm_to_isovm(worked_graph(), 4)
    assert G == worked_graph()
    assert H.vertices == ("h0", "h1", "h2", "h3")
    assert H.edges == SimpleGraph(H.vertices, [("h0", x) for x in ("h1", "h2", "h3")]).edges
    # fresh labels dodge collisions with existing vertices
    clash = SimpleGraph(["h0", "h1", "x", "y"], [])
    _, H2 = reduce_starvm_to_isovm(clash, 2)
    assert not set(H2.vertices) & set(clash.vertices)
