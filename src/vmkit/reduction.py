"""The reduction chain from cubic Hamiltonicity down to vertex-minor search.

CUBHAM on a cubic graph R maps to ISO-SOET on the K3-expansion of R with
subset size 2|V(R)|; ISO-SOET on a 4-regular multigraph maps to star
vertex-minor search on the circle graph of any of its Eulerian tours; star
search is a special case of ISO-VERTEXMINOR.  Alongside the instance maps
this module carries the two certificate maps, which are checked at both ends:
a Hamiltonian cycle lifts to an explicit SOET certificate, and a SOET
certificate of the right size collapses back to a Hamiltonian cycle.
"""

from .euler import (SoetCertificate, _class_key, _require_isosoet, find_euler_tour, induced_word,
                    is_soet, tour_from_word)
from .graphs import MultiGraph, SimpleGraph, connected_components
from .words import Dow, alternance_graph


def require_cubic(R: SimpleGraph):
    for v in R.vertices:
        if R.degree(v) != 3:
            raise ValueError(f"vertex {v!r} has degree {R.degree(v)}, expected 3")


def require_connected_cubic(R: SimpleGraph):
    """Raise ValueError unless R is a connected cubic graph, CUBHAM's input."""
    require_cubic(R)
    if len(connected_components(R)) != 1:
        raise ValueError("the cubic graph must be connected")


def validate_ham_cycle(R: SimpleGraph, cycle):
    """Raise ValueError unless cycle lists V(R) once around adjacent vertices."""
    cycle = tuple(cycle)
    if len(set(cycle)) != len(cycle):
        raise ValueError("cycle repeats a vertex")
    if set(cycle) != set(R.vertices):
        stray = sorted(set(cycle) ^ set(R.vertices))[0]
        raise ValueError(f"cycle and vertex set disagree at {stray!r}")
    if len(cycle) < 3:
        raise ValueError("a Hamiltonian cycle needs at least 3 vertices")
    for i, u in enumerate(cycle):
        w = cycle[(i + 1) % len(cycle)]
        if not R.has_edge(u, w):
            raise ValueError(f"cycle step {u!r} to {w!r} is not an edge")


def canonical_cycle(cycle):
    """Least rotation or reflection, starting at the least vertex."""
    cycle = tuple(cycle)
    return _class_key(cycle, cycle)[0]


def decorate(v: str, x: str) -> str:
    """The copy of vertex v facing its neighbor x in the expansion."""
    return f"{v}^({x})"


def _owner(label: str) -> str:
    return label.split("^(", 1)[0]


def k3_expand(R: SimpleGraph) -> MultiGraph:
    """The K3-expansion of a cubic graph R.

    Each vertex v becomes a triangle on the three labels v^(x) for x ranging
    over the neighbors of v, and each edge {u, v} of R becomes two parallel
    edges joining u^(v) to v^(u).  The result is 4-regular.  Triangle edges
    get the lower ids (vertices in label order, each triangle's edges
    sorted), then each edge of R in sorted order contributes its double pair.
    """
    require_cubic(R)
    for v in R.vertices:
        if "^(" in v:
            raise ValueError(f"vertex label {v!r} would make port labels ambiguous")
    vertices = [decorate(v, x) for v in R.vertices for x in R.neighbors(v)]
    edges = []
    for v in R.vertices:
        ports = [decorate(v, x) for x in sorted(R.neighbors(v))]
        edges.extend(sorted((a, b) for i, a in enumerate(ports) for b in ports[i + 1 :]))
    for u, v in sorted(R.edges):
        pair = tuple(sorted((decorate(u, v), decorate(v, u))))
        edges.extend((pair, pair))
    return MultiGraph(vertices, edges)


def soet_subset_for_cycle(cycle):
    """The 2k cycle-facing port labels for a Hamiltonian cycle."""
    k = len(cycle)
    out = []
    for i, x in enumerate(cycle):
        out.append(decorate(x, cycle[(i - 1) % k]))
        out.append(decorate(x, cycle[(i + 1) % k]))
    return frozenset(out)


def build_soet_from_ham(R: SimpleGraph, cycle) -> SoetCertificate:
    """Lift a Hamiltonian cycle of R to a SOET on the K3-expansion.

    Two trails follow the cycle through every triangle: the first cuts
    straight across between the two cycle-facing ports, the second detours
    through the third port, picking up the doubled edges of each chord of the
    cycle by an immediate out-and-back the first time the chord's triangle
    pair comes up.  Concatenated they traverse every edge exactly once and
    visit the 2k cycle-facing ports twice in the same order.
    """
    lam = k3_expand(R)
    validate_ham_cycle(R, cycle)
    cycle = tuple(cycle)
    k = len(cycle)

    def third(i):
        x = cycle[i]
        rest = set(R.neighbors(x)) - {cycle[(i - 1) % k], cycle[(i + 1) % k]}
        return rest.pop()

    first = []
    second = []
    handled = set()
    for i, x in enumerate(cycle):
        prev = cycle[(i - 1) % k]
        nxt = cycle[(i + 1) % k]
        v = third(i)
        first += [decorate(x, prev), decorate(x, nxt)]
        second += [decorate(x, prev), decorate(x, v)]
        chord = frozenset((x, v))
        if chord not in handled:
            handled.add(chord)
            second += [decorate(v, x), decorate(x, v)]
        second.append(decorate(x, nxt))
    trail = first + second
    word = Dow(tuple(trail[1:]) + (trail[0],))
    tour = tour_from_word(lam, word)
    subset = soet_subset_for_cycle(cycle)
    return SoetCertificate(tour, subset, is_soet(tour, subset))


def extract_ham_from_soet(R: SimpleGraph, cert: SoetCertificate):
    """Read a Hamiltonian cycle of R off a SOET certificate on its expansion.

    The certificate must live on k3_expand(R) with subset size 2|V(R)|.
    Those premises make the visit word pair up inside triangles and the
    triangle owners trace a Hamiltonian cycle; if that promise breaks, a
    RuntimeError reports the certificate as inconsistent rather than
    returning a wrong cycle.
    """
    lam = k3_expand(R)
    if cert.tour.base != lam:
        raise ValueError("certificate base is not the K3-expansion of R")
    n = len(R.vertices)
    if len(cert.subset) != 2 * n:
        raise ValueError(f"subset size {len(cert.subset)} is not {2 * n}")
    s = cert.visit_word
    owners = [_owner(x) for x in s]
    if owners[0] != owners[1]:
        s = s[1:] + s[:1]
        owners = owners[1:] + owners[:1]
    cyc = []
    for j in range(n):
        if owners[2 * j] != owners[2 * j + 1]:
            raise RuntimeError("visit word does not pair up within triangles")
        cyc.append(owners[2 * j])
    if len(set(cyc)) != n:
        raise RuntimeError("triangle owners repeat along the visit word")
    try:
        validate_ham_cycle(R, cyc)
    except ValueError as e:
        raise RuntimeError(f"owner cycle is not Hamiltonian: {e}") from e
    return canonical_cycle(cyc)


def reduce_cubham_to_isosoet(R: SimpleGraph):
    """Map a connected cubic graph R to the ISO-SOET instance it decides."""
    require_connected_cubic(R)
    return k3_expand(R), 2 * len(R.vertices)


def reduce_isosoet_to_starvm(F: MultiGraph, k: int):
    """Map an ISO-SOET instance to star vertex-minor search on a circle graph.

    Any Eulerian tour serves; find_euler_tour's is used.  F allows a SOET
    over some k-subset exactly when the tour's alternance graph has a star on
    k vertices as a vertex-minor.
    """
    _require_isosoet(F, k)
    G = alternance_graph(induced_word(find_euler_tour(F)))
    return G, k


def reduce_starvm_to_isovm(G: SimpleGraph, k: int):
    """Map star vertex-minor search to a plain ISO-VERTEXMINOR instance."""
    if not 1 <= k <= len(G.vertices):
        raise ValueError(f"k must be between 1 and {len(G.vertices)}")
    taken = set(G.vertices)
    stem = "h"
    while any(f"{stem}{i}" in taken for i in range(k)):
        stem += "_"
    labels = [f"{stem}{i}" for i in range(k)]
    H = SimpleGraph(labels, [(labels[0], x) for x in labels[1:]])
    return G, H
