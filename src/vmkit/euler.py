"""Eulerian tours of multigraphs and semi-ordered Eulerian tours (SOETs).

A tour is a pair of aligned sequences (vertex_seq, edge_seq) of equal length
L = number of edges: edge_seq[i] joins vertex_seq[i] to vertex_seq[(i+1) % L],
and every edge id appears exactly once.  Tours that differ by rotation or by
reversal are regarded as the same closed walk; canonical_tour picks a fixed
representative of the class.

A tour U is semi-ordered with respect to a nonempty vertex subset V' when the
subsequence of visits to V' around the tour reads as some word s repeated
twice.  s, of length |V'|, is the visit word.  Whether this holds does not
depend on the rotation or direction in which the tour is read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import combinations

from .errors import ResourceLimitError
from .graphs import MultiGraph, _reach, connected_components, is_regular
from .parallel import scan_subsets
from .words import Dow


@dataclass(frozen=True)
class EulerianTour:
    """A closed walk using every edge of the base multigraph exactly once."""

    base: MultiGraph
    vertex_seq: tuple
    edge_seq: tuple

    def __post_init__(self):
        object.__setattr__(self, "vertex_seq", tuple(self.vertex_seq))
        object.__setattr__(self, "edge_seq", tuple(self.edge_seq))
        L = self.base.n_edges
        if L == 0:
            raise ValueError("the base multigraph has no edges")
        if len(self.vertex_seq) != L or len(self.edge_seq) != L:
            raise ValueError("vertex_seq and edge_seq must both have length n_edges")
        if sorted(self.edge_seq) != list(range(L)):
            raise ValueError("edge_seq must use every edge id exactly once")
        for i, eid in enumerate(self.edge_seq):
            a, b = self.base.edge_ends(eid)
            u = self.vertex_seq[i]
            w = self.vertex_seq[(i + 1) % L]
            if not ((u == a and w == b) or (u == b and w == a)):
                raise ValueError(f"step {i}: edge {eid} does not join {u!r} to {w!r}")


def induced_word(U: EulerianTour) -> Dow:
    """The double-occurrence word of arrivals along the tour.

    Letter i is the vertex reached by edge_seq[i].  On a 4-regular base every
    vertex is reached exactly twice, so the result is a DOW.
    """
    return Dow(U.vertex_seq[1:] + (U.vertex_seq[0],))


def _class_key(vertex_seq, edge_seq):
    """Least (edge_seq, vertex_seq) pair over all rotations and reversal.

    Edge ids are distinct, so in each direction the least rotation is the
    one that starts at the least id.
    """
    rvs = (vertex_seq[0],) + tuple(reversed(vertex_seq[1:]))
    res = tuple(reversed(edge_seq))
    cands = []
    for seq_v, seq_e in ((vertex_seq, edge_seq), (rvs, res)):
        i = seq_e.index(min(seq_e))
        cands.append((seq_e[i:] + seq_e[:i], seq_v[i:] + seq_v[:i]))
    return min(cands)


def canonical_tour(U: EulerianTour) -> EulerianTour:
    """The fixed representative of U's class under rotation and reversal."""
    es, vs = _class_key(U.vertex_seq, U.edge_seq)
    return EulerianTour(U.base, vs, es)


def _check_eulerian_preconditions(F: MultiGraph):
    if F.n_edges == 0:
        raise ValueError("the multigraph has no edges")
    for v in F.vertices:
        if F.degree(v) % 2:
            raise ValueError(f"vertex {v!r} has odd degree {F.degree(v)}")
    comps = connected_components(F)
    if len(comps) > 1:
        stray = sorted(comps[1])[0]
        raise ValueError(f"multigraph is disconnected: no tour reaches {stray!r}")


def _require_isosoet(F: MultiGraph, k: int):
    """Raise ValueError unless (F, k) is an ISO-SOET instance."""
    if not is_regular(F, 4):
        raise ValueError("ISO-SOET needs a 4-regular multigraph")
    _check_eulerian_preconditions(F)
    n = len(F.vertices)
    if not 1 <= k <= n:
        raise ValueError(f"k must be between 1 and {n}")


def _require_subset(F: MultiGraph, vertex_subset) -> frozenset:
    """vertex_subset as a frozenset, checked to be a nonempty subset of V(F)."""
    Vp = frozenset(vertex_subset)
    if not Vp:
        raise ValueError("the vertex subset must be nonempty")
    missing = sorted(v for v in Vp if not F.has_vertex(v))
    if missing:
        raise ValueError(f"not a vertex of the multigraph: {missing[0]!r}")
    return Vp


def find_euler_tour(F: MultiGraph) -> EulerianTour:
    """An Eulerian tour, by Hierholzer's splicing method.

    Closed walks always leave along the least unused edge id and get spliced
    into the tour at the earliest revisitable position, so the result depends
    only on F.
    """
    _check_eulerian_preconditions(F)
    ends = F.edges
    inc = {v: F.incident(v) for v in F.vertices}
    ptr = {v: 0 for v in F.vertices}
    used = [False] * F.n_edges

    def next_unused(v):
        ids = inc[v]
        i = ptr[v]
        while i < len(ids) and used[ids[i]]:
            i += 1
        ptr[v] = i
        return ids[i] if i < len(ids) else None

    def closed_walk(start):
        vs = [start]
        es = []
        cur = start
        while True:
            eid = next_unused(cur)
            if eid is None:
                break
            used[eid] = True
            a, b = ends[eid]
            cur = b if cur == a else a
            es.append(eid)
            vs.append(cur)
        if cur != start:
            raise AssertionError("open walk despite even degrees")
        return vs, es

    tour_v, tour_e = closed_walk(ends[0][0])
    i = 0
    while i < len(tour_v) - 1:
        if next_unused(tour_v[i]) is not None:
            sub_v, sub_e = closed_walk(tour_v[i])
            tour_v[i + 1 : i + 1] = sub_v[1:]
            tour_e[i:i] = sub_e
        else:
            i += 1
    return EulerianTour(F, tuple(tour_v[:-1]), tuple(tour_e))


def tour_from_word(F: MultiGraph, X: Dow) -> EulerianTour:
    """A tour of F whose induced word is exactly X.

    Parallel edges with the same endpoints are assigned ascending ids in
    reading order.  Raises ValueError when X cannot be traced in F.
    """
    if len(X) != F.n_edges:
        raise ValueError(f"word length {len(X)} does not match {F.n_edges} edges")
    letters = X.letters
    vseq = (letters[-1],) + letters[:-1]
    by_pair = {}
    for eid, pair in enumerate(F.edges):
        by_pair.setdefault(pair, []).append(eid)
    taken = set()
    eseq = []
    L = len(letters)
    for i in range(L):
        u, w = vseq[i], vseq[(i + 1) % L]
        pair = (u, w) if u <= w else (w, u)
        eid = next((e for e in by_pair.get(pair, ()) if e not in taken), None)
        if eid is None:
            raise ValueError(f"step {i}: no unused edge joins {u!r} to {w!r}")
        taken.add(eid)
        eseq.append(eid)
    return EulerianTour(F, vseq, tuple(eseq))


def enumerate_euler_tours(F: MultiGraph, limit=None):
    """Yield one representative tour per class, in discovery order.

    The walk is anchored: it always traverses edge 0 first, leaving from that
    edge's lesser endpoint.  Every class of tours contains such a
    representative, and duplicates (possible when edge 0 is a loop) are
    removed with the canonical class key.  If limit is given, finding a
    further class beyond that many raises ResourceLimitError; a limit below 1
    raises ValueError.
    """
    if limit is not None and limit < 1:
        raise ValueError("limit must be positive")
    _check_eulerian_preconditions(F)
    L = F.n_edges
    ends = F.edges
    inc = {v: F.incident(v) for v in F.vertices}
    seen = set()
    used = [False] * L
    vseq = [ends[0][0]]
    eseq = []
    levels = [iter((0,))]  # levels[i]: the edges left to try for step i
    while levels:
        for eid in levels[-1]:
            if used[eid]:
                continue
            a, b = ends[eid]
            nxt = b if vseq[-1] == a else a
            if len(eseq) < L - 1:
                used[eid] = True
                eseq.append(eid)
                vseq.append(nxt)
                levels.append(iter(inc[nxt]))
                break
            # the last edge: even degrees close the walk at the anchor
            key = _class_key(tuple(vseq), (*eseq, eid))
            if key in seen:
                continue
            if limit is not None and len(seen) >= limit:
                raise ResourceLimitError(
                    f"more than {limit} tour classes", count=len(seen)
                )
            seen.add(key)
            yield EulerianTour(F, key[1], key[0])
        else:  # no edge left at this step: backtrack
            levels.pop()
            if eseq:
                used[eseq.pop()] = False
                vseq.pop()


def is_soet(U: EulerianTour, vertex_subset):
    """The visit word of U over vertex_subset, or None when U is not a SOET.

    vertex_subset must be a nonempty subset of the base's vertices, each of
    which must be visited exactly twice by the tour.
    """
    Vp = _require_subset(U.base, vertex_subset)
    # induced_word already guarantees every vertex is visited exactly twice
    word = induced_word(U)
    sub = tuple(x for x in word.letters if x in Vp)
    k = len(Vp)
    for i in range(k):
        if sub[i] != sub[i + k]:
            return None
    return sub[:k]


@dataclass(frozen=True)
class SoetCertificate:
    """A checked witness that `tour` is semi-ordered over `subset`."""

    tour: EulerianTour
    subset: frozenset
    visit_word: tuple

    def __post_init__(self):
        object.__setattr__(self, "subset", frozenset(self.subset))
        object.__setattr__(self, "visit_word", tuple(self.visit_word))
        s = is_soet(self.tour, self.subset)
        if s is None:
            raise ValueError("the tour is not semi-ordered over the subset")
        if s != self.visit_word:
            raise ValueError(f"visit word mismatch: tour reads {s!r}")


def _soet_quick_no(F, Vp):
    """Sound early rejection from the structure of F restricted to V'.

    Consecutive visits in a tour traverse an edge, so any edge of F inside V'
    forces its endpoints to be cyclically adjacent in the visit word.  For
    |V'| >= 2 a loop inside V' is therefore fatal, and for |V'| >= 3 the
    simple support of F[V'] must fit inside a |V'|-cycle: maximum degree two
    and no shorter cycle.
    """
    k = len(Vp)
    if k < 2:
        return False
    pos = {v: i for i, v in enumerate(Vp)}
    rows = [0] * k  # the support of F[V'] over the positions of V'
    for a, b in F.edges:
        i = pos.get(a)
        j = pos.get(b)
        if i is None or j is None:
            continue
        if i == j:
            return True  # a loop inside V'
        rows[i] |= 1 << j
        rows[j] |= 1 << i
    if k < 3:
        return False
    deg2 = 0  # the positions with two neighbours inside V'
    for i, r in enumerate(rows):
        d = r.bit_count()
        if d > 2:
            return True
        if d == 2:
            deg2 |= 1 << i
    full = (1 << k) - 1
    left = deg2
    while left:
        comp = _reach(rows, left & -left)
        if comp != full and not comp & ~deg2:
            return True  # a cycle through fewer than all of V'
        left &= ~comp
    return False


def _soet_candidates(F, k):
    """The k-subsets of V(F) that _soet_quick_no passes, in the order of
    combinations(F.vertices, k).

    Each of the filter's reasons stays once more vertices are added: a loop
    inside V', a vertex with three support neighbours, and a cycle shorter
    than k.  So a subset is built vertex by vertex, in ascending order, and
    a branch is cut at its first violation.  While a partial subset passes,
    its support is a set of disjoint paths; end[i] is the other end of the
    path that ends at i.
    """
    V = F.vertices
    if k >= 2:
        loops = {a for a, b in F.edges if a == b}
        V = [v for v in V if v not in loops]
    if k < 3:
        yield from combinations(V, k)
        return
    n = len(V)
    pos = {v: i for i, v in enumerate(V)}
    adj = [0] * n  # the support of F[V] over the positions of V
    for a, b in F.edges:
        if a in pos and b in pos:
            adj[pos[a]] |= 1 << pos[b]
            adj[pos[b]] |= 1 << pos[a]
    end = list(range(n))
    chosen, undo = [], []  # undo[d]: the (i, end[i]) pairs to restore
    P = edges = 0  # the chosen positions, and the support edges among them
    nxt = [0]  # nxt[d]: the next position to try at depth d
    while nxt:
        d, j = len(chosen), nxt[-1]
        if j > n - k + d:  # too few positions left: take back the last one
            nxt.pop()
            if chosen:
                i = chosen.pop()
                P ^= 1 << i
                edges -= (adj[i] & P).bit_count()
                for x, e in undo.pop():
                    end[x] = e
            continue
        nxt[-1] = j + 1
        nb = adj[j] & P
        ends = []  # j's neighbours in P, each a path end
        while nb:
            u = (nb & -nb).bit_length() - 1
            nb &= nb - 1
            if len(ends) == 2 or (adj[u] & P).bit_count() == 2:
                break  # a vertex with three support neighbours
            ends.append(u)
        else:
            closes = len(ends) == 2 and end[ends[0]] == ends[1]
            if d + 1 == k:
                if not closes or edges == d - 1:  # a cycle must take all of V'
                    yield tuple(V[i] for i in chosen) + (V[j],)
            elif not closes:
                # the ends of the path through j
                x = end[ends[0]] if ends else j
                y = end[ends[1]] if len(ends) == 2 else j
                undo.append(((y, end[y]), (x, end[x])))
                end[x], end[y] = y, x
                chosen.append(j)
                P |= 1 << j
                edges += len(ends)
                nxt.append(j + 1)


def soet_search(F: MultiGraph, vertex_subset, budget=None):
    """A SOET of F over the given subset, or None when none exists.

    F must be connected and 4-regular.  The search walks anchored tours
    (edge 0 first) and prunes on the visit-word constraints, on Fleury's
    bridge rule, and on reachability of the next forced visit.  Every unused
    edge is reachable from the current vertex before each step, so a step
    prev -> cur strands no edge exactly when it took a loop, left prev
    without unused edges, or else when cur still reaches prev over unused
    edges.

    The walk tries edges in ascending id order, so its first hit is the
    least SOET in lexicographic order of edge_seq among those leaving its
    anchor, the lesser endpoint of edge 0.  Reversing a tour keeps it a SOET
    and moves it to the other end of edge 0, so a hit is followed by a
    second walk anchored there (none when edge 0 is a loop), and the
    certificate is built on the lesser canonical tour of the two hits: the
    least SOET class, the same on every call.

    Parallel edges (loops included) are taken in ascending id order: an
    edge is skipped while its next-lesser twin, the parallel edge of the
    next lesser id, is unused.  Swapping two parallel edges in a tour keeps
    its vertex sequence, so it stays a SOET and passes every pruning test,
    which read only the vertex sequence and the endpoints of unused edges;
    and putting the lesser id first makes edge_seq lesser.  So the least
    SOET from each anchor never takes an edge before its twin: each walk's
    first hit is the one it would be without the rule, and a NO still
    exhausts every vertex sequence.  `budget` caps the extension steps of
    both walks together; exceeding it raises ResourceLimitError, leaving
    the question open.
    """
    Vp = _require_subset(F, vertex_subset)
    k = len(Vp)
    _require_isosoet(F, k)
    if _soet_quick_no(F, Vp):
        return None

    req = None  # the distinct neighbours inside V' of each V' vertex
    if k >= 3:
        S = F.simple_support()
        req = {v: S.neighbors(v) & Vp for v in Vp}

    L = F.n_edges
    ends = F.edges
    # (edge id, far end) pairs at each vertex, edge ids ascending
    nbrs = {v: [(e, ends[e][1] if ends[e][0] == v else ends[e][0])
                for e in F.incident(v)] for v in F.vertices}
    # each edge's next-lesser parallel twin, or L: a slot that stays used
    twin = [L] * L
    last = {}
    for e, pair in enumerate(ends):
        twin[e] = last.get(pair, L)
        last[pair] = e
    nodes = 0

    def reaches(cur, targets, blocked):
        # can cur reach a target over unused edges without passing `blocked`
        seen = {cur}
        stack = [cur]
        while stack:
            for eid, y in nbrs[stack.pop()]:
                if used[eid]:
                    continue
                if y in targets:
                    return True
                if y not in blocked and y not in seen:
                    seen.add(y)
                    stack.append(y)
        return False

    def rest_connected(cur):
        prev = vseq[-2]
        return (prev == cur or all(used[e] for e, _ in nbrs[prev])
                or reaches(cur, {prev}, ()))

    def gap_ok(cur):
        # can the next forced V' arrival be reached without another V' visit
        done = len(visits)
        if done >= 2 * k:
            return True
        targets = (Vp - firstseen) if done < k else {visits[done - k]}
        return reaches(cur, targets, Vp)

    def admissible(nxt):
        pos = len(visits)
        if pos < k:
            if nxt in firstseen:
                return False
            if req is not None:
                if pos >= 2 and not req[visits[pos - 1]] <= {visits[pos - 2], nxt}:
                    return False
                if pos == k - 1:
                    if not req[nxt] <= {visits[pos - 1], visits[0]}:
                        return False
                    if not req[visits[0]] <= {visits[1], nxt}:
                        return False
            return True
        return visits[pos - k] == nxt

    def walk(anchor):
        nonlocal nodes
        levels = [iter(nbrs[anchor][:1])]  # levels[i]: the steps left at step i
        while True:
            for eid, nxt in levels[-1]:
                if used[eid] or not used[twin[eid]]:
                    continue
                nodes += 1
                if budget is not None and nodes > budget:
                    raise ResourceLimitError(
                        f"SOET search exceeded {budget} steps", count=nodes
                    )
                if nxt in Vp and not admissible(nxt):
                    continue
                used[eid] = True
                eseq.append(eid)
                vseq.append(nxt)
                if nxt in Vp:
                    if len(visits) < k:
                        firstseen.add(nxt)
                    visits.append(nxt)
                if not (rest_connected(nxt) and gap_ok(nxt)):
                    levels.append(iter(()))  # pruned: the step is taken back next
                elif len(eseq) < L:
                    levels.append(iter(nbrs[nxt]))
                else:  # even degrees close the walk at the anchor
                    return EulerianTour(F, tuple(vseq[:-1]), tuple(eseq))
                break
            else:  # no step left here: take back the one that led here
                levels.pop()
                if not eseq:
                    return None
                eid = eseq.pop()
                nxt = vseq.pop()
                if nxt in Vp:
                    visits.pop()
                    if len(visits) < k:
                        firstseen.discard(nxt)
                used[eid] = False

    hits = []
    for anchor in dict.fromkeys(ends[0]):
        used = [False] * L + [True]
        vseq = [anchor]
        eseq = []
        visits = []
        firstseen = set()
        U = walk(anchor)
        if U is None:
            return None  # the walk exhausted every tour from its anchor
        hits.append(canonical_tour(U))
    U = min(hits, key=lambda U: (U.edge_seq, U.vertex_seq))
    return SoetCertificate(U, Vp, is_soet(U, Vp))


def _soet_subset_task(F, budget, subset):
    return soet_search(F, subset, budget=budget)


def iso_soet_decide(F: MultiGraph, k: int, budget=None, deterministic=False, workers=1):
    """Does some k-subset of V(F) admit a SOET?

    Returns (subset, SoetCertificate) for the lexicographically first subset
    that admits one, scanning subsets in lexicographic order, with the least
    SOET class of that subset; None when all subsets are exhausted without a
    hit.  When a budget is given and some subset search dies on it while no
    other subset says yes, the outcome is unsettled and ResourceLimitError
    is raised.  Every answer is canonical and does not depend on the worker
    count; `deterministic` is accepted and ignored.  Subsets that
    _soet_quick_no would reject are never generated (see _soet_candidates).
    """
    _require_isosoet(F, k)
    task = partial(_soet_subset_task, F, budget)
    return scan_subsets(task, _soet_candidates(F, k), workers, F)
