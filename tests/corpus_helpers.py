"""Shared fixtures and exhaustive generators for the test suite."""

from functools import cache
from itertools import combinations, permutations

from vmkit import Dow, DowClass, MultiGraph, SimpleGraph, connected_components, delete_vertex


def worked_graph():
    return SimpleGraph("abcde", [("a", "b"), ("a", "c"), ("a", "d"), ("b", "e"), ("c", "e")])


def complete_graph(labels):
    labels = list(labels)
    return SimpleGraph(labels, combinations(labels, 2))


def cycle_graph(labels):
    labels = list(labels)
    n = len(labels)
    return SimpleGraph(labels, [(labels[i], labels[(i + 1) % n]) for i in range(n)])


def path_graph(labels):
    labels = list(labels)
    return SimpleGraph(labels, zip(labels, labels[1:]))


def star_graph(labels):
    labels = list(labels)
    return SimpleGraph(labels, [(labels[0], x) for x in labels[1:]])


def petersen():
    outer = "abcde"
    inner = "fghij"
    edges = [(outer[i], outer[(i + 1) % 5]) for i in range(5)]
    edges += [(outer[i], inner[i]) for i in range(5)]
    edges += [(inner[i], inner[(i + 2) % 5]) for i in range(5)]
    return SimpleGraph(outer + inner, edges)


def bridged():
    """Two K4s, each with one edge subdivided, the two new vertices joined
    by a bridge: with petersen(), one of the two smallest connected cubic
    graphs that have no Hamiltonian cycle."""
    edges = [("e", "j")]
    for a, b, c, d, mid in ("abcde", "fghij"):
        edges += [(a, mid), (mid, b), (a, c), (a, d), (b, c), (b, d), (c, d)]
    return SimpleGraph("abcdefghij", edges)


def wheel(n):
    """The hub w0 joined to each vertex of the rim cycle w1 ... wn."""
    rim = [f"w{i}" for i in range(1, n + 1)]
    return SimpleGraph(["w0"] + rim, [("w0", x) for x in rim] + list(zip(rim, rim[1:] + rim[:1])))


def wheel5():
    return wheel(5)


def bw3():
    """W3 with each rim edge subdivided: the centre c sees x1, x2, x3 of the
    6-cycle x1 y1 x2 y2 x3 y3."""
    rim = ["x1", "y1", "x2", "y2", "x3", "y3"]
    return SimpleGraph(["c"] + rim, [("c", "x1"), ("c", "x2"), ("c", "x3")]
                       + list(zip(rim, rim[1:] + rim[:1])))


def prism():
    return SimpleGraph(
        "abcdef",
        [("a", "b"), ("b", "c"), ("a", "c"),
         ("d", "e"), ("e", "f"), ("d", "f"),
         ("a", "d"), ("b", "e"), ("c", "f")],
    )


def k33():
    return SimpleGraph("abcdef", [(u, v) for u in "abc" for v in "def"])


def open_subset(message):
    """The vertices of the subset that a budgeted scan's UNKNOWN names."""
    names = message.removeprefix("subset {").removesuffix("} exhausted the budget")
    return tuple(names.split())


def induced(G, W):
    """The subgraph of G induced on W, by deleting the other vertices one by one."""
    for v in set(G.vertices) - set(W):
        G = delete_vertex(G, v)
    return G


def all_labeled_graphs(labels):
    """Every simple graph on exactly these labels."""
    labels = list(labels)
    pairs = list(combinations(labels, 2))
    for m in range(1 << len(pairs)):
        yield SimpleGraph(labels, [p for i, p in enumerate(pairs) if m >> i & 1])


def all_dow_classes(n):
    """All double-occurrence words on n letters, one per rotation/mirror class.

    Words are built as chord matchings of 2n positions with letters named in
    first-occurrence order, then deduplicated by canonical representative.
    """
    letters = "abcdefgh"[:n]
    seen = set()
    out = []

    def build(positions, assignment):
        if not positions:
            w = Dow(tuple(assignment[i] for i in range(2 * n)))
            key = DowClass(w).canonical.letters
            if key not in seen:
                seen.add(key)
                out.append(w)
            return
        first = positions[0]
        letter = letters[len(assignment) // 2]
        for second in positions[1:]:
            nxt = dict(assignment)
            nxt[first] = letter
            nxt[second] = letter
            build(tuple(p for p in positions[1:] if p != second), nxt)

    build(tuple(range(2 * n)), {})
    return out


def _iso_canon(labels, edges):
    """Least relabeling of an edge multiset; an isomorphism class key."""
    labels = list(labels)
    best = None
    for perm in permutations(labels):
        relab = dict(zip(labels, perm))
        key = tuple(sorted(tuple(sorted((relab[u], relab[v]))) for u, v in edges))
        if best is None or key < best:
            best = key
    return best


def _connected_on(labels, edges):
    adj = {v: set() for v in labels}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    seen = {labels[0]}
    stack = [labels[0]]
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return len(seen) == len(labels)


@cache
def all_four_regular_multigraphs(n, connected=True):
    """Connected 4-regular multigraphs on n vertices up to isomorphism, as a
    tuple built once per (n, connected) and shared by every caller.

    Loops and parallel edges included; loops count 2 toward the degree.
    """
    labels = list("abcde"[:n])
    slots = [(v, v) for v in labels]
    slots += list(combinations(labels, 2))
    found = {}

    def build(idx, deg, edges):
        if idx == len(slots):
            if any(deg[v] != 4 for v in labels):
                return
            if connected and not _connected_on(labels, edges):
                return
            key = _iso_canon(labels, edges)
            if key not in found:
                found[key] = MultiGraph(labels, sorted(edges))
            return
        u, v = slots[idx]
        if u == v:
            top = (4 - deg[u]) // 2
        else:
            top = min(4 - deg[u], 4 - deg[v])
        for count in range(top + 1):
            if u == v:
                deg[u] += 2 * count
            else:
                deg[u] += count
                deg[v] += count
            build(idx + 1, deg, edges + [(u, v)] * count)
            if u == v:
                deg[u] -= 2 * count
            else:
                deg[u] -= count
                deg[v] -= count

    build(0, {v: 0 for v in labels}, [])
    return tuple(sorted(found.values(), key=lambda F: (F.n_edges, F.edges)))


def all_connected_cubic_graphs(n):
    """Connected cubic simple graphs on n labeled vertices, one per iso class."""
    labels = list("abcdef"[:n])
    found = {}
    for G in all_labeled_graphs(labels):
        if any(G.degree(v) != 3 for v in labels):
            continue
        if len(connected_components(G)) != 1:
            continue
        key = _iso_canon(labels, [tuple(sorted(e)) for e in G.edges])
        if key not in found:
            found[key] = G
    return sorted(found.values(), key=lambda G: sorted(G.edges))
