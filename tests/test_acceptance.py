"""Acceptance gate: the ten criteria, each timed against its stated limit.

Every criterion emits its artifacts to a per-session directory with one
worker; criterion 10 reruns the first eight with two workers and demands
byte-identical files, and their digests must match artifact_digests.txt.
"""

import hashlib
import random
import time
from itertools import combinations
from pathlib import Path

import pytest

from vmkit import (
    Dow,
    DowClass,
    SimpleGraph,
    alternance_graph,
    alternances,
    delete_vertex,
    enumerate_hamiltonian_cycles,
    extract_ham_from_soet,
    build_soet_from_ham,
    canonical_cycle,
    find_euler_tour,
    hamiltonian_decide,
    induced_subword,
    induced_word,
    is_soet,
    iso_soet_decide,
    iso_vm_decide,
    labeled_vm_decide,
    lc_orbit,
    local_complement,
    multigraph_from_word,
    reduce_cubham_to_isosoet,
    reduce_isosoet_to_starvm,
    reduce_starvm_to_isovm,
    serialize_graph,
    serialize_subset,
    serialize_tour,
    serialize_witness,
    soet_search,
    star_vm_decide,
    tour_from_word,
    validate_ham_cycle,
    verify_vm_witness,
    vm_oracle_via_tours,
    word_delete,
    word_local_complement,
)

from corpus_helpers import (
    all_connected_cubic_graphs,
    all_dow_classes,
    all_four_regular_multigraphs,
    all_labeled_graphs,
    complete_graph,
    induced,
    worked_graph,
    petersen,
    star_graph,
)


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def _fourreg_corpus():
    out = []
    for n in range(1, 6):
        out.extend(all_four_regular_multigraphs(n))
    return out


def _report(num, elapsed, limit):
    print(f"criterion {num}: PASS ({elapsed:.4f}s, limit {limit:g}s)")
    assert elapsed < limit


# ---------------------------------------------------------------- emitters
# Each emitter performs one criterion's computation, writes its artifact
# file, and returns (elapsed core seconds, data for the assertions).


def emit_c1(outdir, workers):
    w = Dow("adcbaebced")
    t0 = time.perf_counter()
    alts = alternances(w)
    elapsed = time.perf_counter() - t0
    (outdir / "c1.txt").write_text(serialize_graph(alternance_graph(w)))
    return elapsed, alts


def emit_c2(outdir, workers):
    lines = []
    results = []
    total = 0.0
    for text in ("abcdaebced", "adcbaebced"):
        F = multigraph_from_word(Dow(text))
        U = tour_from_word(F, Dow(text))
        t0 = time.perf_counter()
        s = is_soet(U, frozenset("abcd"))
        total += time.perf_counter() - t0
        results.append(s)
        lines.append(f"{text} abcd -> {' '.join(s) if s else 'none'}")
    (outdir / "c2.txt").write_text("\n".join(lines) + "\n")
    return total, results


def emit_c3(outdir, workers):
    t0 = time.perf_counter()
    classes = []
    checks = 0
    for n in range(1, 5):
        classes.extend(all_dow_classes(n))
    for w in classes:
        G = alternance_graph(w)
        letters = sorted(set(w.letters))
        for v in letters:
            assert alternance_graph(word_local_complement(w, v)) == local_complement(
                G, v
            )
            assert alternance_graph(word_delete(w, v)) == delete_vertex(G, v)
            checks += 2
        for r in range(len(letters) + 1):
            for sub in combinations(letters, r):
                assert alternance_graph(induced_subword(w, sub)) == induced(G, sub)
                checks += 1
    elapsed = time.perf_counter() - t0
    reps = sorted("".join(DowClass(w).canonical.letters) for w in classes)
    text = f"classes {len(classes)}\nchecks {checks}\n" + "\n".join(reps) + "\n"
    (outdir / "c3.txt").write_text(text)
    return elapsed, (len(classes), checks)


def emit_c4(outdir, workers):
    t0 = time.perf_counter()
    lines = []
    facts = []
    for k in range(3, 8):
        labels = [chr(ord("a") + i) for i in range(k)]
        orbit = lc_orbit(star_graph(labels))
        expected = {complete_graph(labels)}
        for center in labels:
            expected.add(
                SimpleGraph(labels, [(center, x) for x in labels if x != center])
            )
        facts.append((k, set(orbit), expected))
        lines.append(f"k={k} size={len(set(orbit))}")
        for M in sorted(
            set(orbit), key=lambda m: tuple(sorted(tuple(sorted(e)) for e in m.edges))
        ):
            lines.append("  " + (" ".join(f"{u}-{v}" for u, v in M.sorted_edges()) or "-"))
    elapsed = time.perf_counter() - t0
    (outdir / "c4.txt").write_text("\n".join(lines) + "\n")
    return elapsed, facts


def emit_c5(outdir, workers):
    corpus = _fourreg_corpus()
    t0 = time.perf_counter()
    lines = []
    pairs = 0
    for i, F in enumerate(corpus):
        G = alternance_graph(induced_word(find_euler_tour(F)))
        for k in range(1, min(5, len(F.vertices)) + 1):
            found = iso_soet_decide(F, k, workers=workers)
            d = star_vm_decide(G, k, workers=workers)
            # the elimination route stays the oracle of the word route
            e = iso_vm_decide(G, reduce_starvm_to_isovm(G, k)[1], workers=workers)
            assert (found is not None) == d.is_yes == e.is_yes, (i, k)
            assert d.witness == e.witness, (i, k)
            pairs += 1
            if found is None:
                lines.append(f"F{i:02d} k={k} no")
            else:
                subset, cert = found
                assert is_soet(cert.tour, cert.subset) == cert.visit_word
                lines.append(
                    f"F{i:02d} k={k} yes subset={serialize_subset(subset)} "
                    f"cert={_digest(serialize_tour(cert.tour))} "
                    f"witness={_digest(serialize_witness(d.witness[1]))}"
                )
    elapsed = time.perf_counter() - t0
    (outdir / "c5.txt").write_text("\n".join(lines) + "\n")
    return elapsed, pairs


def emit_c6(outdir, workers):
    corpus = _fourreg_corpus()
    t0 = time.perf_counter()
    lines = []
    pairs = 0
    for i, F in enumerate(corpus):
        G0 = alternance_graph(induced_word(find_euler_tour(F)))
        verdicts = []
        for size in range(1, min(4, len(F.vertices)) + 1):
            for S in combinations(F.vertices, size):
                for H in all_labeled_graphs(S):
                    a = vm_oracle_via_tours(F, H)
                    b = labeled_vm_decide(G0, H)
                    assert a.status == b.status, (i, H)
                    if a.is_yes:
                        assert verify_vm_witness(G0, H, a.witness)
                        assert verify_vm_witness(G0, H, b.witness)
                    verdicts.append(a.status[0])
                    pairs += 1
        lines.append(f"F{i:02d} pairs={len(verdicts)} {_digest(''.join(verdicts))}")
    elapsed = time.perf_counter() - t0
    (outdir / "c6.txt").write_text("\n".join(lines) + "\n")
    return elapsed, pairs


def emit_c7(outdir, workers):
    cubics = [("n4", g) for g in all_connected_cubic_graphs(4)]
    cubics += [("n6", g) for g in all_connected_cubic_graphs(6)]
    t0 = time.perf_counter()
    lines = []
    rt = 0
    for tag, R in cubics:
        dh = hamiltonian_decide(R)
        F, k = reduce_cubham_to_isosoet(R)
        found = iso_soet_decide(F, k, workers=workers)
        G, k2 = reduce_isosoet_to_starvm(F, k)
        ds = star_vm_decide(G, k2, workers=workers)
        assert dh.is_yes and found is not None and ds.is_yes, tag
        subset, cert = found
        assert is_soet(cert.tour, cert.subset) == cert.visit_word
        H = reduce_starvm_to_isovm(G, k2)[1]
        assert verify_vm_witness(G, H, ds.witness[1])
        cycle = extract_ham_from_soet(R, cert)
        validate_ham_cycle(R, cycle)
        assert canonical_cycle(cycle) == cycle
        for cyc in enumerate_hamiltonian_cycles(R):
            cert2 = build_soet_from_ham(R, cyc)
            assert is_soet(cert2.tour, cert2.subset) == cert2.visit_word
            assert extract_ham_from_soet(R, cert2) == canonical_cycle(cyc)
            rt += 1
        lines.append(
            f"{tag} cycle={' '.join(dh.witness)} subset={serialize_subset(subset)} "
            f"cert={_digest(serialize_tour(cert.tour))} "
            f"star={serialize_subset(ds.witness[0])} "
            f"witness={_digest(serialize_witness(ds.witness[1]))} "
            f"extracted={' '.join(cycle)}"
        )
    elapsed = time.perf_counter() - t0
    (outdir / "c7.txt").write_text("\n".join(lines) + "\n")
    return elapsed, (len(cubics), rt)


def emit_c8(outdir, workers):
    lam = reduce_cubham_to_isosoet(complete_graph("abcd"))[0]
    pool = []
    for F in _fourreg_corpus():
        if len(F.vertices) < 4:
            continue
        pool.append(F)
    pool.append(lam)
    tri = {}
    for i, F in enumerate(pool):
        S = SimpleGraph(F.vertices, {e for e in F.edges if e[0] != e[1]})  # the simple support
        found = [
            c
            for c in combinations(S.vertices, 3)
            if S.has_edge(c[0], c[1]) and S.has_edge(c[0], c[2]) and S.has_edge(c[1], c[2])
        ]
        if found:
            tri[i] = found
    rng = random.Random(20260819)
    cases = []
    # every corner triangle of the K4 expansion, padded to size 4
    li = len(pool) - 1
    for t in tri[li]:
        extra = min(v for v in lam.vertices if v not in t)
        cases.append((li, frozenset(t) | {extra}))
    while len(cases) < 1000:
        i = rng.choice(sorted(tri))
        F = pool[i]
        t = rng.choice(tri[i])
        size = rng.randint(4, len(F.vertices))
        rest = [v for v in F.vertices if v not in t]
        Vp = frozenset(t) | frozenset(rng.sample(rest, size - 3))
        cases.append((i, Vp))
    t0 = time.perf_counter()
    for i, Vp in cases:
        assert soet_search(pool[i], Vp) is None, (i, sorted(Vp))
    elapsed = time.perf_counter() - t0
    lines = [f"F{i:02d} {serialize_subset(Vp)} no" for i, Vp in cases]
    (outdir / "c8.txt").write_text("\n".join(lines) + "\n")
    return elapsed, len(cases)


EMITTERS = {
    "c1": emit_c1,
    "c2": emit_c2,
    "c3": emit_c3,
    "c4": emit_c4,
    "c5": emit_c5,
    "c6": emit_c6,
    "c7": emit_c7,
    "c8": emit_c8,
}


@pytest.fixture(scope="session")
def run1(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance_w1")


def _ensure(run1, name, workers=1):
    if not (run1 / f"{name}.txt").exists():
        EMITTERS[name](run1, workers)


# ---------------------------------------------------------------- criteria


def test_criterion_01_worked_example_alternances(run1):
    elapsed, alts = emit_c1(run1, 1)
    assert alts == {
        frozenset(p) for p in ("ab", "ac", "ad", "be", "ce")
    }
    _report(1, elapsed, 0.001)


def test_criterion_02_soet_fixture(run1):
    elapsed, (yes, no) = emit_c2(run1, 1)
    assert yes is not None and tuple(sorted(yes)) == ("a", "b", "c", "d")
    assert no is None
    _report(2, elapsed, 0.001)


def test_criterion_03_commutation_suite(run1):
    elapsed, (classes, checks) = emit_c3(run1, 1)
    assert classes == 1 + 2 + 10 + 82
    assert checks > 0
    _report(3, elapsed, 30.0)


def test_criterion_04_star_orbits(run1):
    elapsed, facts = emit_c4(run1, 1)
    for k, orbit, expected in facts:
        assert orbit == expected, k
        assert len(orbit) == k + 1
    _report(4, elapsed, 10.0)


def test_criterion_05_soet_star_bridge(run1):
    elapsed, pairs = emit_c5(run1, 1)
    assert pairs == 197
    _report(5, elapsed, 600.0)


def test_criterion_06_oracle_agreement(run1):
    elapsed, pairs = emit_c6(run1, 1)
    assert pairs == 13097
    _report(6, elapsed, 900.0)


def test_criterion_07_reduction_equivalence(run1):
    elapsed, (graphs, roundtrips) = emit_c7(run1, 1)
    assert graphs == 3 and roundtrips > 0
    _report(7, elapsed, 600.0)


def test_criterion_08_triangle_obstruction(run1):
    elapsed, cases = emit_c8(run1, 1)
    assert cases == 1000
    _report(8, elapsed, 300.0)


def test_criterion_09_petersen_negative_control(run1):
    # The SOET route also says NO on Petersen's expansion at k = 2|V| = 20,
    # but it takes seconds; to keep Tier-1 short, the negative control runs
    # through the Hamiltonicity oracle only.
    t0 = time.perf_counter()
    d = hamiltonian_decide(petersen())
    elapsed = time.perf_counter() - t0
    assert d.is_no
    (run1 / "c9.txt").write_text("petersen no\n")
    _report(9, elapsed, 10.0)


def test_criterion_10_worker_determinism(run1, tmp_path):
    run2 = tmp_path / "acceptance_w2"
    run2.mkdir()
    for name in sorted(EMITTERS):
        _ensure(run1, name)
        EMITTERS[name](run2, 2)
    for name in sorted(EMITTERS):
        a = (run1 / f"{name}.txt").read_bytes()
        b = (run2 / f"{name}.txt").read_bytes()
        assert a == b, f"{name} artifacts differ between 1 and 2 workers"
    print("criterion 10: PASS (byte-identical artifacts, 1 vs 2 workers)")


def test_artifacts_match_recorded_digests(run1):
    # artifact_digests.txt is the output of artifact_digests.py; a change
    # to any one-worker artifact of criteria 1-8 must re-record it on purpose
    recorded = {}
    for line in (Path(__file__).parent / "artifact_digests.txt").read_text().splitlines():
        digest, path = line.split()
        name, workers, _ = path.split("/")
        if workers == "1":
            recorded[name] = digest
    for name in sorted(EMITTERS):
        _ensure(run1, name)
        got = hashlib.sha256((run1 / f"{name}.txt").read_bytes()).hexdigest()
        assert got == recorded[name], f"{name} artifact differs from its recorded digest"
