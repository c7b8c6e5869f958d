"""Labeled simple graphs and multigraphs with a deterministic vertex order.

Vertex labels are non-empty strings ordered lexicographically.  Simple graphs
are immutable and hashable; multigraphs carry dense integer edge ids assigned
in input order, and those ids are identity-bearing (tours reference them).
"""

from __future__ import annotations


def _check_labels(vertices):
    seen = set()
    out = []
    for v in vertices:
        if not isinstance(v, str) or not v:
            raise ValueError(f"vertex label must be a non-empty string, got {v!r}")
        if v not in seen:
            seen.add(v)
            out.append(v)
    return seen


class SimpleGraph:
    """Finite labeled simple graph (no loops, no parallel edges)."""

    def __init__(self, vertices, edges=()):
        vset = _check_labels(vertices)
        self.vertices = tuple(sorted(vset))
        self._vset = frozenset(vset)
        es = set()
        for u, v in edges:
            if u == v:
                raise ValueError(f"loop at {u!r} not allowed in a simple graph")
            if u not in vset:
                raise ValueError(f"edge endpoint {u!r} is not a vertex")
            if v not in vset:
                raise ValueError(f"edge endpoint {v!r} is not a vertex")
            es.add((u, v) if u < v else (v, u))
        self.edges = frozenset(es)
        self._adj = None

    def _adjacency(self):
        if self._adj is None:
            adj = {v: set() for v in self.vertices}
            for u, v in self.edges:
                adj[u].add(v)
                adj[v].add(u)
            self._adj = {v: frozenset(ns) for v, ns in adj.items()}
        return self._adj

    def has_vertex(self, v):
        return v in self._vset

    def neighbors(self, v):
        if v not in self._vset:
            raise ValueError(f"no vertex {v!r}")
        return self._adjacency()[v]

    def degree(self, v):
        return len(self.neighbors(v))

    def has_edge(self, u, v):
        key = (u, v) if u < v else (v, u)
        return key in self.edges

    def sorted_edges(self):
        return tuple(sorted(self.edges))

    def __eq__(self, other):
        if not isinstance(other, SimpleGraph):
            return NotImplemented
        return self.vertices == other.vertices and self.edges == other.edges

    def __hash__(self):
        return hash((self.vertices, self.edges))

    def __repr__(self):
        es = " ".join(f"{u}-{v}" for u, v in self.sorted_edges())
        return f"SimpleGraph[{' '.join(self.vertices)}; {es}]"

    def __getstate__(self):
        return (self.vertices, tuple(sorted(self.edges)))

    def __setstate__(self, state):
        vs, es = state
        self.__init__(vs, es)


class MultiGraph:
    """Labeled multigraph.  Loops and parallel edges allowed.

    Edges are stored as sorted label pairs in a tuple; the index of an edge in
    that tuple is its EdgeId.  Loops contribute 2 to the degree.
    """

    def __init__(self, vertices, edges=()):
        vset = _check_labels(vertices)
        self.vertices = tuple(sorted(vset))
        self._vset = frozenset(vset)
        es = []
        for u, v in edges:
            if u not in vset:
                raise ValueError(f"edge endpoint {u!r} is not a vertex")
            if v not in vset:
                raise ValueError(f"edge endpoint {v!r} is not a vertex")
            es.append((u, v) if u <= v else (v, u))
        self.edges = tuple(es)
        self._inc = None

    @property
    def n_edges(self):
        return len(self.edges)

    def has_vertex(self, v):
        return v in self._vset

    def edge_ends(self, eid):
        return self.edges[eid]

    def _incidence(self):
        if self._inc is None:
            inc = {v: [] for v in self.vertices}
            for eid, (u, v) in enumerate(self.edges):
                inc[u].append(eid)
                if v != u:
                    inc[v].append(eid)
            self._inc = {v: tuple(ids) for v, ids in inc.items()}
        return self._inc

    def incident(self, v):
        """Edge ids touching v, ascending.  A loop appears once."""
        if v not in self._vset:
            raise ValueError(f"no vertex {v!r}")
        return self._incidence()[v]

    def degree(self, v):
        d = 0
        for eid in self.incident(v):
            a, b = self.edges[eid]
            d += 2 if a == b else 1
        return d

    def simple_support(self):
        """Underlying simple graph: one edge per adjacent distinct pair."""
        pairs = {e for e in self.edges if e[0] != e[1]}
        return SimpleGraph(self.vertices, pairs)

    def __eq__(self, other):
        if not isinstance(other, MultiGraph):
            return NotImplemented
        return self.vertices == other.vertices and self.edges == other.edges

    def __hash__(self):
        return hash((self.vertices, self.edges))

    def __repr__(self):
        es = " ".join(f"{u}-{v}" for u, v in self.edges)
        return f"MultiGraph[{' '.join(self.vertices)}; {es}]"

    def __getstate__(self):
        return (self.vertices, self.edges)

    def __setstate__(self, state):
        vs, es = state
        self.__init__(vs, es)


def induced_subgraph(G: SimpleGraph, W) -> SimpleGraph:
    """Subgraph of G induced on the vertex set W."""
    W = set(W)
    missing = sorted(W - set(G.vertices))
    if missing:
        raise ValueError(f"not a vertex of the graph: {missing[0]!r}")
    return SimpleGraph(W, (e for e in G.edges if e[0] in W and e[1] in W))


def is_regular(F, d: int) -> bool:
    """True when every vertex has degree exactly d (loops count twice)."""
    return all(F.degree(v) == d for v in F.vertices)


def adjacency_components(adj):
    """Connected components of the graph given as {vertex: neighbours}.

    Returns a tuple of frozensets ordered by least member.
    """
    comps = []
    left = set(adj)
    while left:
        start = min(left)
        comp = {start}
        frontier = [start]
        while frontier:
            x = frontier.pop()
            for y in adj[x]:
                if y not in comp:
                    comp.add(y)
                    frontier.append(y)
        left -= comp
        comps.append(frozenset(comp))
    return tuple(comps)


def connected_components(F):
    """Partition of the vertices into connected components.

    Works for SimpleGraph and MultiGraph alike; returns a tuple of frozensets
    ordered by least member.
    """
    if isinstance(F, SimpleGraph):
        adj = {v: F.neighbors(v) for v in F.vertices}
    else:
        adj = {v: set() for v in F.vertices}
        for u, v in F.edges:
            adj[u].add(v)
            adj[v].add(u)
    return adjacency_components(adj)


def find_isomorphism(G: SimpleGraph, H: SimpleGraph):
    """Edge-preserving bijection from V(G) to V(H), or None.

    Plain backtracking with degree pruning.  Among all isomorphisms this
    returns the one whose image sequence over G's sorted vertices is
    lexicographically least, so repeated runs are reproducible and
    find_isomorphism(G, G) is the least automorphism.
    """
    gs, hs = G.vertices, H.vertices
    if len(gs) != len(hs) or len(G.edges) != len(H.edges):
        return None
    gdeg = sorted(G.degree(v) for v in gs)
    hdeg = sorted(H.degree(v) for v in hs)
    if gdeg != hdeg:
        return None

    mapping = {}
    used = set()

    def place(i):
        if i == len(gs):
            return True
        g = gs[i]
        dg = G.degree(g)
        for h in hs:
            if h in used or H.degree(h) != dg:
                continue
            ok = True
            for prev in gs[:i]:
                if G.has_edge(g, prev) != H.has_edge(h, mapping[prev]):
                    ok = False
                    break
            if not ok:
                continue
            mapping[g] = h
            used.add(h)
            if place(i + 1):
                return True
            del mapping[g]
            used.discard(h)
        return False

    return dict(mapping) if place(0) else None
