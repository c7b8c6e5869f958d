"""The benchmark's workloads: inputs made from a seed, decisions and checks.

setup(name, seed, workdir) imports vmkit, builds the workload's inputs and
writes its input files, and returns a list of items.  An item is a short
sequence of decisions, made one after another by a single caller, and a
check over their outcomes.  The seed fixes the order in which the inputs are
visited; the set of decisions, and so every exact counter, is the same for
every seed.

Decisions look vmkit's functions up when they are called, not at setup, so
that the wrappers of a traced pass see them.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
from itertools import combinations, permutations

WORKLOADS = ("chain", "corpus", "exhaust")


class Item:
    """Decisions (label, zero-argument callable) and a check of their outcomes.

    check receives one (value, error) pair per decision and returns
    {decision index: message} for the decisions that failed.
    """

    __slots__ = ("calls", "check")

    def __init__(self, calls, check):
        self.calls = calls
        self.check = check


def setup(name, seed, workdir):
    import vmkit  # noqa: F401  (timed as part of set-up)

    rng = random.Random(seed)
    return {"chain": _chain, "corpus": _corpus, "exhaust": _exhaust}[name](rng, workdir)


# ------------------------------------------------------------------ graphs


def _graph(labels, edges):
    import vmkit

    return vmkit.SimpleGraph(labels, [tuple(e) for e in edges.split()])


def k4():
    return _graph("abcd", "ab ac ad bc bd cd")


def prism():
    return _graph("abcdef", "ab bc ac de ef df ad be cf")


def wheel5():
    import vmkit

    rim = ["w1", "w2", "w3", "w4", "w5"]
    edges = [("w0", x) for x in rim] + [(rim[i], rim[(i + 1) % 5]) for i in range(5)]
    return vmkit.SimpleGraph(["w0"] + rim, edges)


def circle_graph(F):
    """The circle graph of F's deterministic Eulerian tour."""
    import vmkit

    return vmkit.alternance_graph(vmkit.induced_word(vmkit.find_euler_tour(F)))


def _failed_if(cond, idx, msg):
    return {idx: msg} if cond else {}


def _errors(outcomes, labels):
    return {i: f"{labels[i]} raised {err}" for i, (_, err) in enumerate(outcomes) if err}


# ------------------------------------------------------------------- chain


def _cli(argv):
    import vmkit.cli

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return vmkit.cli.run_command([str(a) for a in argv])


def _subset_arg(cert_path):
    with open(cert_path) as fh:
        return fh.readline().split(None, 1)[1].strip()


def _chain(rng, workdir):
    """The reduction chain through the CLI on files, for K4 and the prism,
    fast mode, one worker.

    One decision is the whole chain on one cubic graph R: pipeline R,
    expand R, soet-solve F 2|V|, soet-verify, vm-solve-star G 2|V| --target H
    and vm-verify G H W, where G is the circle graph of F's deterministic
    tour, written at set-up.  Its outcome is the list of exit codes.
    """
    import vmkit

    graphs = [("k4", k4()), ("prism", prism())]
    rng.shuffle(graphs)
    items = []
    for name, R in graphs:
        d = os.path.join(workdir, name)
        os.makedirs(d)
        p = {x: os.path.join(d, x) for x in ("R", "F", "G", "H", "W", "cert", "pipe")}
        with open(p["R"], "w") as fh:
            fh.write(vmkit.serialize_graph(R))
        with open(p["G"], "w") as fh:
            fh.write(vmkit.serialize_graph(circle_graph(vmkit.k3_expand(R))))
        k = 2 * len(R.vertices)
        commands = [
            lambda p=p: ["pipeline", p["R"], "-o", p["pipe"]],
            lambda p=p: ["expand", p["R"], "-o", p["F"]],
            lambda p=p, k=k: ["soet-solve", p["F"], k, "-o", p["cert"]],
            lambda p=p: ["soet-verify", p["F"], p["cert"], _subset_arg(p["cert"])],
            lambda p=p, k=k: ["vm-solve-star", p["G"], k, "--target", p["H"], "-o", p["W"]],
            lambda p=p: ["vm-verify", p["G"], p["H"], p["W"]],
        ]
        calls = [(f"chain({name})", lambda commands=commands: [_cli(c()) for c in commands])]
        items.append(Item(calls, lambda out, R=R, p=p, name=name: _check_chain(out, R, p, name)))
    return items


def _check_chain(outcomes, R, p, name):
    """Every command says YES (exit 0); the certificate yields a Hamiltonian
    cycle of R that validate_ham_cycle accepts."""
    import vmkit

    codes, err = outcomes[0]
    if err:
        return {0: f"chain({name}) raised {err}"}
    if any(codes):
        return {0: f"chain({name}) exit codes {codes}, expected all 0 (YES)"}
    try:
        with open(p["F"]) as fh:
            F = vmkit.parse_graph(fh.read())
        if F != vmkit.k3_expand(R):
            return {0: f"chain({name}): expand wrote another multigraph"}
        with open(p["cert"]) as fh:
            first, body = fh.read().split("\n", 1)
        subset = vmkit.parse_subset(first.split(None, 1)[1], F.vertices)
        tour = vmkit.parse_tour(body, F)
        word = vmkit.is_soet(tour, subset)
        if word is None or len(subset) != 2 * len(R.vertices):
            return {0: f"chain({name}): the certificate is not a SOET of size 2|V|"}
        cert = vmkit.SoetCertificate(tour, subset, word)
        vmkit.validate_ham_cycle(R, vmkit.extract_ham_from_soet(R, cert))
    except (ValueError, RuntimeError, IndexError) as e:
        return {0: f"chain({name}): certificate replay failed: {e!r}"}
    return {}


# ------------------------------------------------------------------ corpus


def _connected(labels, edges):
    adj = {v: set() for v in labels}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    seen = {labels[0]}
    stack = [labels[0]]
    while stack:
        for y in adj[stack.pop()] - seen:
            seen.add(y)
            stack.append(y)
    return len(seen) == len(labels)


def four_regular_multigraphs(n):
    """Connected 4-regular multigraphs on n vertices (loops and parallel
    edges allowed), one per isomorphism class, in a fixed order."""
    import vmkit

    labels = "abcde"[:n]
    slots = [(v, v) for v in labels] + list(combinations(labels, 2))
    # the vertices whose last slot is slot idx: their degree is final there
    final = [[w for w in labels if idx == max(i for i, s in enumerate(slots) if w in s)]
             for idx in range(len(slots))]
    # for each relabeling q, where the upper triangle of the relabeled
    # multiplicity matrix reads the row-major original
    triangles = [[q[i] * n + q[j] for i in range(n) for j in range(i, n)]
                 for q in permutations(range(n))]
    found = {}

    def canonical(edges):
        """The least upper triangle of the multiplicity matrix over all
        relabelings: equal exactly for isomorphic multigraphs."""
        mult = [0] * (n * n)
        for u, v in edges:
            i, j = labels.index(u), labels.index(v)
            mult[i * n + j] += 1
            if i != j:
                mult[j * n + i] += 1
        return min(tuple(map(mult.__getitem__, t)) for t in triangles)

    def build(idx, deg, edges):
        if idx == len(slots):
            if _connected(labels, edges):
                found.setdefault(canonical(edges), edges)
            return
        u, v = slots[idx]
        top = (4 - deg[u]) // 2 if u == v else min(4 - deg[u], 4 - deg[v])
        for count in range(top + 1):
            deg[u] += count
            deg[v] += count
            if all(deg[w] == 4 for w in final[idx]):
                build(idx + 1, deg, edges + [(u, v)] * count)
            deg[u] -= count
            deg[v] -= count

    build(0, {v: 0 for v in labels}, [])
    graphs = [vmkit.MultiGraph(labels, sorted(e)) for e in found.values()]
    return sorted(graphs, key=lambda F: (F.n_edges, F.edges))


def _labeled_graphs(labels):
    import vmkit

    pairs = list(combinations(labels, 2))
    for m in range(1 << len(pairs)):
        yield vmkit.SimpleGraph(labels, [e for i, e in enumerate(pairs) if m >> i & 1])


def _corpus(rng, workdir):
    """Criteria 5 and 6 over the 45 connected 4-regular multigraphs with at
    most five vertices: deterministic mode, one worker, library calls."""
    import vmkit

    corpus = [F for n in range(1, 6) for F in four_regular_multigraphs(n)]
    groups = []
    for F in corpus:
        G = circle_graph(F)
        items = []
        for k in range(1, min(5, len(F.vertices)) + 1):
            star = vmkit.reduce_starvm_to_isovm(G, k)[1]
            items.append(_bridge_item(F, G, k, star))
        for size in range(1, min(4, len(F.vertices)) + 1):
            for S in combinations(F.vertices, size):
                items.extend(_labeled_item(F, G, H) for H in _labeled_graphs(S))
        rng.shuffle(items)
        groups.append(items)
    sizes = (len(corpus), sum(len(g) for g in groups))
    if sizes != (45, 197 + 13097):
        raise RuntimeError(f"corpus has {sizes[0]} graphs and {sizes[1]} items")
    # Each multigraph's items stay together: vm_oracle_via_tours caches the
    # tour classes of the last 32 multigraphs, so interleaving them would
    # make the work depend on the seed.
    rng.shuffle(groups)
    return [item for g in groups for item in g]


def _bridge_item(F, G, k, star):
    import vmkit

    calls = [
        ("iso_soet_decide", lambda: vmkit.iso_soet_decide(F, k, deterministic=True)),
        ("star_vm_decide", lambda: vmkit.star_vm_decide(G, k, deterministic=True)),
    ]

    def check(outcomes):
        bad = _errors(outcomes, ["iso_soet_decide", "star_vm_decide"])
        if bad:
            return bad
        found, d = outcomes[0][0], outcomes[1][0]
        if d.is_unknown:
            return {1: "star_vm_decide returned UNKNOWN"}
        if (found is not None) != d.is_yes:
            msg = f"ISO-SOET and star vertex-minor disagree at k = {k}"
            return {0: msg, 1: msg}
        if found is not None:
            subset, cert = found
            bad.update(_failed_if(
                len(subset) != k or vmkit.is_soet(cert.tour, cert.subset) != cert.visit_word,
                0, "SOET certificate failed its replay"))
            bad.update(_failed_if(
                not vmkit.verify_vm_witness(G, star, d.witness[1]),
                1, "star witness failed its replay"))
        return bad

    return Item(calls, check)


def _labeled_item(F, G0, H):
    import vmkit

    labels = ["vm_oracle_via_tours", "labeled_vm_decide"]
    calls = [
        (labels[0], lambda: vmkit.vm_oracle_via_tours(F, H)),
        (labels[1], lambda: vmkit.labeled_vm_decide(G0, H)),
    ]

    def check(outcomes):
        bad = _errors(outcomes, labels)
        if bad:
            return bad
        a, b = outcomes[0][0], outcomes[1][0]
        for i, d in enumerate((a, b)):
            if d.is_unknown:
                bad[i] = f"{labels[i]} returned UNKNOWN"
        if bad:
            return bad
        if a.status != b.status:
            msg = f"oracle says {a.status}, elimination says {b.status}"
            return {0: msg, 1: msg}
        if a.is_yes:
            for i, d in enumerate((a, b)):
                bad.update(_failed_if(not vmkit.verify_vm_witness(G0, H, d.witness),
                                      i, f"{labels[i]} witness failed its replay"))
        return bad

    return Item(calls, check)


# ----------------------------------------------------------------- exhaust


def _exhaust(rng, workdir):
    """Three NO instances whose subset scans never stop early, deterministic
    mode, two workers (no more than the CPUs this process may use)."""
    import vmkit

    w = min(2, len(os.sched_getaffinity(0)))
    F_prism = vmkit.k3_expand(prism())
    G_prism = circle_graph(F_prism)
    G_k4 = circle_graph(vmkit.k3_expand(k4()))
    W5 = wheel5()
    specs = [
        ("iso_soet_decide(F_prism, 13)",
         lambda: vmkit.iso_soet_decide(F_prism, 13, deterministic=True, workers=w),
         lambda r: r is None),
        ("star_vm_decide(G_prism, 13)",
         lambda: vmkit.star_vm_decide(G_prism, 13, deterministic=True, workers=w),
         lambda r: r.is_no),
        ("iso_vm_decide(G_K4, W5)",
         lambda: vmkit.iso_vm_decide(G_k4, W5, deterministic=True, workers=w),
         lambda r: r.is_no),
    ]
    rng.shuffle(specs)
    items = []
    for label, call, is_no in specs:
        def check(outcomes, label=label, is_no=is_no):
            value, err = outcomes[0]
            if err:
                return {0: f"{label} raised {err}"}
            return _failed_if(not is_no(value), 0, f"{label} did not answer NO")

        items.append(Item([(label, call)], check))
    return items
