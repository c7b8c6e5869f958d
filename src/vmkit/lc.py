"""Local complementation, vertex deletion, LC orbits, star classification.

Local complementation at v complements the subgraph induced on the
neighborhood of v and is an involution.  The orbit of a graph under local
complementations at arbitrary vertices is always finite and is explored by
plain breadth-first search with a state cap.
"""

from .errors import ResourceLimitError
from .graphs import SimpleGraph, _restrict

DEFAULT_NODE_CAP = 1_000_000


def _lc_rows(rows, v):
    """Rows after local complementation at position v."""
    m = rows[v]
    out = list(rows)
    rest = m
    while rest:
        b = rest & -rest
        rest ^= b
        out[b.bit_length() - 1] ^= m ^ b
    return tuple(out)


def local_complement(G: SimpleGraph, v: str) -> SimpleGraph:
    """Complement the edges among the neighbors of v."""
    return SimpleGraph._from_rows(G.vertices, _lc_rows(G.rows, G._pos(v)))


def apply_lc_word(G: SimpleGraph, word) -> SimpleGraph:
    """Apply local complementations left to right."""
    for i, v in enumerate(word):
        if not G.has_vertex(v):
            raise ValueError(f"position {i}: no vertex {v!r}")
        G = local_complement(G, v)
    return G


def delete_vertex(G: SimpleGraph, v: str) -> SimpleGraph:
    i = G._pos(v)
    rest = [j for j in range(len(G.rows)) if j != i]
    return SimpleGraph._from_rows(G.vertices[:i] + G.vertices[i + 1 :], _restrict(G.rows, rest))


def _orbit_words(G, node_cap, stop_at=None):
    """BFS over the LC orbit.

    Returns {rows of an orbit member: word reaching it}.  If stop_at (such
    rows) is given the search returns early once it is found.
    """
    if node_cap <= 0:
        raise ValueError("node_cap must be positive")
    start = G.rows
    words = {start: ()}
    queue = [start]
    while queue:
        if stop_at is not None and stop_at in words:
            return words
        nxt = []
        for rows in queue:
            w = words[rows]
            for i, v in enumerate(G.vertices):
                if rows[i].bit_count() < 2:
                    continue  # tau_v is the identity there
                img = _lc_rows(rows, i)
                if img not in words:
                    if len(words) >= node_cap:
                        raise ResourceLimitError(
                            f"LC orbit exceeded {node_cap} states",
                            count=len(words),
                        )
                    words[img] = w + (v,)
                    nxt.append(img)
        queue = nxt
    return words


def lc_orbit(G: SimpleGraph, node_cap: int = DEFAULT_NODE_CAP):
    """All graphs LC-equivalent to G, as a set of SimpleGraph."""
    words = _orbit_words(G, node_cap)
    return {SimpleGraph._from_rows(G.vertices, rows) for rows in words}


def lc_equivalent(G: SimpleGraph, H: SimpleGraph, node_cap: int = DEFAULT_NODE_CAP) -> bool:
    """Whether H lies in the LC orbit of G.  Vertex sets must agree."""
    return lc_word_between(G, H, node_cap) is not None


def lc_word_between(G: SimpleGraph, H: SimpleGraph, node_cap: int = DEFAULT_NODE_CAP):
    """An LC word w with apply_lc_word(G, w) == H, or None."""
    if G.vertices != H.vertices:
        raise ValueError("LC-equivalence needs identical vertex sets")
    words = _orbit_words(G, node_cap, stop_at=H.rows)
    return words.get(H.rows)


def classify_star_or_complete(G: SimpleGraph):
    """Classify G as ("complete", None), ("star", center) or ("neither", None).

    Needs at least two vertices.  K2 is both a star and complete; it is
    reported as complete (completeness is checked first).
    """
    n = len(G.vertices)
    if n < 2:
        raise ValueError("classification needs at least 2 vertices")
    if len(G.edges) == n * (n - 1) // 2:
        return ("complete", None)
    if len(G.edges) == n - 1:
        centers = [v for v in G.vertices if G.degree(v) == n - 1]
        if centers and all(G.degree(v) == 1 for v in G.vertices if v != centers[0]):
            return ("star", centers[0])
    return ("neither", None)
