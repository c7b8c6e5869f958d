"""Labeled simple graphs and multigraphs with a fixed vertex order.

Vertex labels are non-empty strings ordered lexicographically.  Adjacency
bitmask rows are the one adjacency representation of both graph classes;
labels and label-pair edges are their public face.  Simple graphs are
immutable and hashable.  Multigraphs carry dense integer edge ids assigned
in input order, and those ids are identity-bearing (tours reference them);
their rows are those of the simple support, and a loop mask sits beside them,
with each edge's end positions and each position's incident edge ids and degree.
_reach is the package's one reachability search over such rows.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import islice


def _check_labels(vertices):
    seen = set()
    for v in vertices:
        if not isinstance(v, str) or not v:
            raise ValueError(f"vertex label must be a non-empty string, got {v!r}")
        seen.add(v)
    return seen


def _bits(m):
    """Positions of the set bits of m, ascending."""
    while m:
        b = m & -m
        m ^= b
        yield b.bit_length() - 1


@lru_cache(maxsize=1024)
def _index_of(vertices):
    """{label: position} for a sorted vertex tuple, shared by its graphs."""
    return {v: i for i, v in enumerate(vertices)}


def _reach(rows, seed, goal=-1, wall=0):
    """Mask of the vertices joined to the seed mask, or less once goal is in it.

    Vertices of the wall mask, seeds included, join it but are not passed through.
    """
    comp = seed
    frontier = seed & ~wall
    while frontier and goal & ~comp:
        nxt = 0
        while frontier:
            b = frontier & -frontier
            frontier ^= b
            nxt |= rows[b.bit_length() - 1]
        frontier = nxt & ~comp
        comp |= frontier
        frontier &= ~wall
    return comp


class SimpleGraph:
    """Finite labeled simple graph (no loops, no parallel edges).

    The state is the sorted vertex tuple and its rows: rows[i] is the
    neighbour mask of vertices[i], bit j standing for vertices[j].  edges,
    the frozenset of sorted label pairs, is derived on first use.
    """

    __slots__ = ("vertices", "rows", "_index", "_edges")

    def __init__(self, vertices, edges=()):
        vs = tuple(sorted(_check_labels(vertices)))
        index = _index_of(vs)
        rows = [0] * len(vs)
        for u, v in edges:
            i = index.get(u)
            j = index.get(v)
            if i is None or j is None or i == j:
                if u == v:
                    raise ValueError(f"loop at {u!r} not allowed in a simple graph")
                bad = u if i is None else v
                raise ValueError(f"edge endpoint {bad!r} is not a vertex")
            rows[i] |= 1 << j
            rows[j] |= 1 << i
        self.vertices, self.rows, self._index, self._edges = vs, tuple(rows), index, None

    @classmethod
    def _from_rows(cls, vertices, rows):
        """The graph on the sorted vertex tuple with these rows, unchecked."""
        G = cls.__new__(cls)
        G.__setstate__((vertices, rows))
        return G

    def _pos(self, v):
        i = self._index.get(v)
        if i is None:
            raise ValueError(f"no vertex {v!r}")
        return i

    @property
    def edges(self):
        if self._edges is None:
            self._edges = frozenset(self.sorted_edges())
        return self._edges

    def has_vertex(self, v):
        return v in self._index

    def neighbors(self, v):
        vs = self.vertices
        return frozenset(vs[j] for j in _bits(self.rows[self._pos(v)]))

    def degree(self, v):
        return self.rows[self._pos(v)].bit_count()

    def has_edge(self, u, v):
        i, j = self._index.get(u), self._index.get(v)
        return i is not None and j is not None and bool(self.rows[i] >> j & 1)

    def sorted_edges(self):
        vs = self.vertices
        return tuple(
            (vs[i], vs[j]) for i, r in enumerate(self.rows) for j in _bits(r >> i << i)
        )

    def __eq__(self, other):
        if not isinstance(other, SimpleGraph):
            return NotImplemented
        return self.vertices == other.vertices and self.rows == other.rows

    def __hash__(self):
        return hash((self.vertices, self.rows))

    def __repr__(self):
        es = " ".join(f"{u}-{v}" for u, v in self.sorted_edges())
        return f"SimpleGraph[{' '.join(self.vertices)}; {es}]"

    def __getstate__(self):
        return (self.vertices, self.rows)

    def __setstate__(self, state):
        self.vertices, self.rows = state
        self._index = _index_of(self.vertices)
        self._edges = None


class MultiGraph:
    """Labeled multigraph.  Loops and parallel edges allowed.

    Edges are stored as sorted label pairs in a tuple; the index of an edge in
    that tuple is its EdgeId.  Loops contribute 2 to the degree.  Beside the
    edges sit the simple support's rows, as SimpleGraph keeps them over the
    sorted vertex tuple, and loops, the mask of the vertices with a loop.
    Three private tables, built with them, hold the same edges by position:
    _ends[eid] is the edge's sorted position pair, _inc[i] the ids of the
    edges at position i, ascending with a loop once, and _deg[i] its degree.
    """

    def __init__(self, vertices, edges=()):
        self.vertices = vs = tuple(sorted(_check_labels(vertices)))
        self._index = index = _index_of(vs)
        rows = [0] * len(vs)
        inc = [[] for _ in vs]
        deg = [0] * len(vs)
        loops = 0
        es, ends = [], []
        for eid, (u, v) in enumerate(edges):
            i, j = index.get(u), index.get(v)
            if i is None or j is None:
                bad = u if i is None else v
                raise ValueError(f"edge endpoint {bad!r} is not a vertex")
            if i == j:
                loops |= 1 << i
            else:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
                inc[j].append(eid)
            inc[i].append(eid)
            deg[i] += 1
            deg[j] += 1
            es.append((u, v) if u <= v else (v, u))
            ends.append((i, j) if i <= j else (j, i))
        self.edges, self.rows, self.loops = tuple(es), tuple(rows), loops
        self._ends, self._inc, self._deg = tuple(ends), tuple(map(tuple, inc)), tuple(deg)

    @property
    def n_edges(self):
        return len(self.edges)

    def has_vertex(self, v):
        return v in self._index

    _pos = SimpleGraph._pos

    def incident(self, v):
        """Edge ids touching v, ascending.  A loop appears once."""
        return self._inc[self._pos(v)]

    def degree(self, v):
        return self._deg[self._pos(v)]

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


def _restrict(rows, keep):
    """Rows of the subgraph induced on the ascending positions keep."""
    new = [0] * len(rows)  # new[p]: the bit of position p among the kept
    mask = 0
    for a, p in enumerate(keep):
        new[p] = 1 << a
        mask |= 1 << p
    out = []
    for p in keep:
        r, x = rows[p] & mask, 0
        while r:
            b = r & -r
            r ^= b
            x |= new[b.bit_length() - 1]
        out.append(x)
    return tuple(out)


def is_regular(F, d: int) -> bool:
    """True when every vertex has degree exactly d (loops count twice)."""
    return all(F.degree(v) == d for v in F.vertices)


def connected_components(F):
    """Partition of the vertices into connected components.

    Works for SimpleGraph and MultiGraph alike; returns a tuple of frozensets
    ordered by least member.
    """
    comps = []
    left = (1 << len(F.vertices)) - 1
    while left:
        comp = _reach(F.rows, left & -left)
        comps.append(frozenset(F.vertices[i] for i in _bits(comp)))
        left &= ~comp
    return tuple(comps)


def isomorphisms(G: SimpleGraph, H: SimpleGraph):
    """Every edge-preserving bijection from V(G) to V(H), as label dicts.

    They come in lexicographic order of their image sequences over G's
    sorted vertices; isomorphisms(G, G) lists G's automorphisms.
    """
    for img in _row_maps(G.rows, H.rows):
        yield {g: H.vertices[h] for g, h in zip(G.vertices, img)}


def _row_maps(gr, hr, steps=None):
    """The isomorphisms between two row tuples as image position tuples.

    Backtracking over the rows with degree pruning, without recursion,
    trying images in ascending order so the maps come out in lexicographic
    order.  With steps, the search stops after that many backtracking steps.
    """
    n = len(gr)
    gdeg = [r.bit_count() for r in gr]
    hdeg = [r.bit_count() for r in hr]
    if len(hr) != n or sorted(gdeg) != sorted(hdeg):
        return
    if not n:
        yield ()
        return
    img = []  # img[i]: the H position of G position i

    def images():
        # for the next position i: unused H positions of i's degree that
        # are adjacent to exactly the images of i's earlier neighbours
        i = len(img)
        used = sum(1 << h for h in img)
        want = sum(1 << img[p] for p in _bits(gr[i] & ((1 << i) - 1)))
        return iter([h for h in range(n) if hdeg[h] == gdeg[i]
                     and not used >> h & 1 and hr[h] & used == want])

    levels = [images()]  # levels[i]: the images left to try for position i
    while levels and steps != 0:
        if steps is not None:
            steps -= 1
        h = next(levels[-1], None)
        if h is None:
            levels.pop()  # no image left at this level: backtrack
            if img:
                img.pop()
        elif len(img) == n - 1:
            yield (*img, h)
        else:
            img.append(h)
            levels.append(images())


def find_isomorphism(G: SimpleGraph, H: SimpleGraph):
    """Edge-preserving bijection from V(G) to V(H), or None.

    The first of isomorphisms(G, H): the one whose image sequence over G's
    sorted vertices is lexicographically least, so repeated runs are
    reproducible and find_isomorphism(G, G) is the least automorphism.
    """
    return next(isomorphisms(G, H), None)


# Maps and backtracking steps spent per graph: K_n alone has n! maps, and a
# 30-vertex K3-expansion of a cubic graph can take seconds to exhaust.
_AUTOMORPHISM_CAP = 128
_AUTOMORPHISM_STEPS = 50_000


def automorphisms(F):
    """Non-identity automorphisms of a SimpleGraph or MultiGraph.

    Each is a tuple p mapping vertex position i to position p[i].  Those of
    a multigraph are the automorphisms of its simple support that map its
    edge multiset, loops included, onto itself.  Only the first
    _AUTOMORPHISM_CAP maps of the support, in lexicographic order, that the
    first _AUTOMORPHISM_STEPS steps of the search reach are examined, so
    the list may be a part of the group; the identity, the least of them,
    is left out.
    """
    maps = islice(_row_maps(F.rows, F.rows, _AUTOMORPHISM_STEPS), 1, _AUTOMORPHISM_CAP)
    if isinstance(F, SimpleGraph):
        return tuple(maps)
    keep = sorted(F._ends)
    return tuple(p for p in maps
                 if sorted(tuple(sorted((p[i], p[j]))) for i, j in keep) == keep)
