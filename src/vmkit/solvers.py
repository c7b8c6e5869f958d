"""Exact deciders for the vertex-minor problem family, with checked witnesses.

Every YES answer is backed by a VmWitness (an operation sequence plus an
isomorphism of the final graph onto the target) that verify_vm_witness
replays independently; a failure of that replay is a bug, never a wrong
answer, and raises RuntimeError.  NO answers are produced only by exhausting
a finite search space; hitting a budget or cap yields UNKNOWN instead.

The elimination search deletes the complement of a candidate subset in a
fixed label order, trying three graphs before each deletion of v: the
current one, the local complement at v, and the pivot on v with its least
remaining neighbor.  That normal form is a standard fact of the local
equivalence toolkit rather than something established here, so the test
suite revalidates it against an unrestricted breadth-first oracle
(vertex_minor_closure) on every small graph before it is trusted at size.

star_vm_decide has two routes.  On a circle graph G, with a word X that
words.word_of finds, it takes the paper's second reduction backwards: the
SOET scan of multigraph_from_word(X) finds the least subset, and one
elimination search on that subset gives the witness.  A NO from this route
exhausts the word multigraph's SOET candidates, so it rests on the paper's
theorem, which the tests check against the elimination route.  Otherwise
star vertex-minor search is ISO-VERTEXMINOR with the star on k vertices as
the target, the paper's last reduction, and star_vm_decide hands its
instance to iso_vm_decide.  Both routes give the same answer and witness.

iso_vm_decide says NO without a scan when G is a circle graph and H is not,
since circle graphs are closed under vertex-minors.  word_of says "no word"
only after an exhausted search; when it gives up, the scans run instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import combinations

from .errors import ResourceLimitError
from .euler import enumerate_euler_tours, find_euler_tour, induced_word, iso_soet_decide
from .graphs import SimpleGraph, _reach, _restrict, connected_components, find_isomorphism
from .lc import DEFAULT_NODE_CAP, _orbit_words, delete_vertex, lc_word_between, local_complement
from .parallel import orbit_least, scan_subsets
from .reduction import reduce_starvm_to_isovm, require_connected_cubic
from .words import alternance_graph, multigraph_from_word, word_of


@dataclass(frozen=True)
class Decision:
    """Outcome of a decider: yes with a witness, no, or unknown."""

    status: str
    witness: object = None
    detail: str = ""

    def __post_init__(self):
        if self.status not in ("yes", "no", "unknown"):
            raise ValueError(f"bad status {self.status!r}")

    @property
    def is_yes(self):
        return self.status == "yes"

    @property
    def is_no(self):
        return self.status == "no"

    @property
    def is_unknown(self):
        return self.status == "unknown"


@dataclass(frozen=True)
class VmWitness:
    """Operation sequence plus isomorphism, the NP certificate made concrete.

    ops is a tuple of ("LC", v) and ("DEL", v) pairs applied to G left to
    right; iso is a tuple of (surviving vertex, H vertex) pairs mapping the
    final graph onto H.
    """

    ops: tuple
    iso: tuple

    def __post_init__(self):
        ops = tuple((str(t), str(v)) for t, v in self.ops)
        for t, _ in ops:
            if t not in ("LC", "DEL"):
                raise ValueError(f"unknown op {t!r}")
        object.__setattr__(self, "ops", ops)
        object.__setattr__(
            self, "iso", tuple(sorted((str(a), str(b)) for a, b in self.iso))
        )

    def iso_map(self):
        return dict(self.iso)


def verify_vm_witness(G: SimpleGraph, H: SimpleGraph, w: VmWitness) -> bool:
    """Replay w.ops on G and check w.iso maps the result onto H.

    Malformed ops (a vertex absent at its step) raise ValueError naming the
    step; a well-formed witness that simply proves nothing returns False.
    """
    cur = G
    for i, (tag, v) in enumerate(w.ops):
        if not cur.has_vertex(v):
            raise ValueError(f"step {i}: no vertex {v!r}")
        cur = local_complement(cur, v) if tag == "LC" else delete_vertex(cur, v)
    m = w.iso_map()
    if len(m) != len(w.iso) or set(m) != set(cur.vertices):
        return False
    if sorted(m.values()) != list(H.vertices):
        return False
    return SimpleGraph(H.vertices, [(m[u], m[v]) for u, v in cur.sorted_edges()]) == H


def _require_verified(G, H, w):
    if not verify_vm_witness(G, H, w):
        raise RuntimeError("internal error: constructed witness failed verification")
    return w


def enumerate_hamiltonian_cycles(R: SimpleGraph):
    """All Hamiltonian cycles of R, canonical tuples in lexicographic order.

    Each cycle appears once: rooted at the least vertex, oriented so the
    second vertex is smaller than the last.
    """
    vs = R.vertices
    n = len(vs)
    if n < 3:
        return
    start = vs[0]
    path = [start]
    used = {start}
    levels = [iter(sorted(R.neighbors(start)))]  # levels[i]: path[i+1]'s options
    while levels:
        for y in levels[-1]:
            if y in used:
                continue
            if len(path) == n - 1:
                if R.has_edge(y, start) and path[1] < y:
                    yield (*path, y)
                continue
            path.append(y)
            used.add(y)
            levels.append(iter(sorted(R.neighbors(y))))
            break
        else:  # no neighbour left: backtrack
            levels.pop()
            used.discard(path.pop())


def hamiltonian_decide(R: SimpleGraph) -> Decision:
    """Exact Hamiltonicity for connected cubic graphs, least cycle on YES."""
    require_connected_cubic(R)
    for cyc in enumerate_hamiltonian_cycles(R):
        return Decision("yes", cyc, "least Hamiltonian cycle")
    return Decision("no", None, "exhausted all vertex orders")


class _ElimSearch:
    """Three-option elimination over a fixed victim order.

    Graph states are G's adjacency rows with the deleted vertices masked
    out, so identical states reached along different prefixes share one
    failure verdict through the memo.  Victims are deleted in a fixed order,
    so the depth tells which vertices are left, and a state is keyed by
    (depth, rows).  The options at each victim v come as nothing, LC v,
    then the pivot, each followed by ("DEL", v); since "DEL" sorts before
    "LC", leaves are reached in lexicographic order of their ops sequences,
    and the first accepting leaf carries the least one.

    Each child is built in one pass over v's neighbours: deleting v clears
    bit v in their rows alone, and LC v and the pivot change no other rows
    but those of v and its least neighbour.  A state is looked up in the
    memo before its component test, since every memo entry passed that
    test.  A leaf gets no component test: when the target is connected, so
    is every member of its LC orbit, and accept rejects a split survivor.
    """

    def __init__(self, G, keep, accept, budget=None, connected_target=True):
        self.labels = G.vertices
        self.rows0 = G.rows
        self.wmask = sum(1 << G._index[v] for v in set(keep))
        self.victims = [i for i in range(len(G.rows)) if not (self.wmask >> i) & 1]
        self.budget = budget
        self.connected_target = connected_target
        self.accept = accept  # rows -> None | (extra ops tuple, payload)
        self.nodes = 0

    def run(self):
        """The least accepting (ops, payload), or None."""
        self.memo = memo = set()
        want = self.wmask if self.connected_target else 0
        victims = self.victims
        levels = []  # levels[p]: [rows, children left, ops taken] at victims[p]
        rows = self.rows0
        while True:
            p = len(levels)
            if p == len(victims):  # a leaf: accept rejects a split survivor
                got = self.accept(rows)
                if got is not None:  # the ops taken are joined only here
                    ops = tuple(op for v, (*_, taken) in zip(victims, levels)
                                for op in (*taken, ("DEL", self.labels[v])))
                    return ops + tuple(got[0]), got[1]
            elif (p, rows) in memo:
                pass  # failed before, and passed the component test then
            # the kept vertices must share a component; complementation never
            # splits or merges components and deletion never merges them
            elif want and want & ~_reach(rows, want & -want, want):
                pass  # split: no leaf below accepts
            else:
                levels.append([rows, iter(self._options(rows, victims[p])), None])
            while levels:  # the next child at the deepest level with one left
                step = next(levels[-1][1], None)
                if step is not None:
                    break
                rows = levels.pop()[0]
                memo.add((len(levels), rows))
            else:
                return None
            self.nodes += 1
            if self.budget is not None and self.nodes > self.budget:
                raise ResourceLimitError(
                    f"elimination search exceeded {self.budget} steps",
                    count=self.nodes,
                )
            levels[-1][2], rows = step

    def _options(self, rows, v):
        """[(ops, rows after ops and ("DEL", v))] for each option at v."""
        nb = rows[v]
        bv = 1 << v
        out = list(rows)
        out[v] = 0
        rest = nb
        while rest:
            b = rest & -rest
            rest ^= b
            out[b.bit_length() - 1] ^= bv
        children = [((), tuple(out))]
        if not nb:
            return children
        lv = self.labels[v]
        if nb.bit_count() >= 2:  # LC v toggles N(v) in each neighbour's row
            out = list(rows)
            out[v] = 0
            m = nb | bv
            rest = nb
            while rest:
                b = rest & -rest
                rest ^= b
                out[b.bit_length() - 1] ^= m ^ b
            children.append(((("LC", lv),), tuple(out)))
        # LC v, LC u, LC v is the pivot on uv with u and v swapped (Oum 2005):
        # it toggles the pairs across A = Nu - Nv, B = Nv - Nu and C = Nu & Nv,
        # and u takes v's neighbours
        bu = nb & -nb
        u = bu.bit_length() - 1
        nu, nv = rows[u] ^ bv, nb ^ bu
        a, b, c = nu & ~nv, nv & ~nu, nu & nv
        out = list(rows)
        out[v] = 0
        out[u] = nv
        for rest, flip in ((a, b | c | bu), (b, a | c | bu | bv), (c, a | b | bv)):
            while rest:
                x = rest & -rest
                rest ^= x
                out[x.bit_length() - 1] ^= flip
        children.append(((("LC", lv), ("LC", self.labels[u]), ("LC", lv)), tuple(out)))
        return children


@lru_cache(maxsize=1024)
def _word_multigraph(G):
    """multigraph_from_word of a word of G, or None when G is not a circle
    graph or word_of gives up; kept for the last 1,024 graphs."""
    try:
        X = word_of(G)
    except ResourceLimitError:
        return None
    return None if X is None else multigraph_from_word(X)


def star_vm_decide(G: SimpleGraph, k: int, budget=None, deterministic=False, workers=1) -> Decision:
    """Does some k-subset V' of V(G) carry a star on V' as a vertex-minor?

    The paper's last reduction made literal: for k >= 2 this is
    iso_vm_decide(G, H) with H the star on k vertices from
    reduce_starvm_to_isovm, the route taken when G has no word.  The
    star's LC orbit is the k stars plus K_k, so a survivor is accepted
    exactly when it is a star or complete, and the least isomorphism maps
    the center to H's center and the sorted leaves to the leaves in order.

    When G is a circle graph, with a word X that words.word_of finds, the
    paper's second reduction answers instead: F_X = multigraph_from_word(X)
    has X as a tour, so F_X has a SOET over V' exactly when G has a star
    vertex-minor on V'.  iso_soet_decide(F_X, k) scans the candidates, and
    one elimination search on the subset it reports gives the witness.
    Both graphs sort their labels, so that subset is the least one the
    elimination route would accept, and the answer and witness are the
    same.  A NO from this route exhausts F_X's SOET candidates and rests on
    the paper's theorem, which the tests check against the elimination
    route.  `budget` caps each SOET search and the one elimination search,
    and a subset that runs out of it makes the answer UNKNOWN.  k == 1 is
    answered directly, without a budget; `deterministic` is accepted and
    ignored.
    """
    _, H = reduce_starvm_to_isovm(G, k)
    if k == 1:
        v = G.vertices[0]
        ops = tuple(("DEL", u) for u in G.vertices if u != v)
        w = _require_verified(G, H, VmWitness(ops, ((v, H.vertices[0]),)))
        return Decision("yes", (frozenset((v,)), w), "single vertex")
    F = _word_multigraph(G)
    if F is None:
        return iso_vm_decide(G, H, budget=budget, workers=workers)
    try:
        soet = iso_soet_decide(F, k, budget, workers=workers)
        if soet is None:
            return Decision("no", None, "exhausted the SOET candidates of G's word multigraph")
        # the star is connected; a scan of the one subset names it if the
        # budget runs out
        task = partial(_iso_task, G, True, _orbit_buckets(H, DEFAULT_NODE_CAP), budget)
        found = scan_subsets(task, [sorted(soet[0])], 1)
    except ResourceLimitError as e:
        return Decision("unknown", None, str(e))
    if found is None:
        raise RuntimeError("internal error: a SOET subset carries no star vertex-minor")
    return _vm_yes(G, H, *found)


def _orbit_buckets(H, cap):
    """H's LC orbit as {sorted nonzero degrees: [(graph, word), ...]}.

    Each member comes with the LC word reaching it from H; within a bucket
    the members keep the orbit's breadth-first order.
    """
    buckets = {}
    for rows, word in _orbit_words(H, cap).items():
        degrees = tuple(sorted(filter(None, map(int.bit_count, rows))))
        M = SimpleGraph._from_rows(H.vertices, rows)
        buckets.setdefault(degrees, []).append((M, word))
    return buckets


def _iso_task(G, connected, buckets, budget, subset):
    wlabels = tuple(sorted(set(subset)))  # the kept vertices, in position order
    wbits = [G._index[v] for v in wlabels]
    cache = {}

    def accept(rows):
        # isomorphic graphs share their degree sequence, so only the members
        # in the survivor's bucket can match it; at a leaf the victim rows are
        # 0 and |V(H)| vertices are kept, so the nonzero degrees tell it
        bucket = buckets.get(tuple(sorted(filter(None, map(int.bit_count, rows)))))
        if bucket is None:
            return None
        if rows in cache:
            return cache[rows]
        S = SimpleGraph._from_rows(wlabels, _restrict(rows, wbits))
        res = None
        for M, word in bucket:
            psi = find_isomorphism(S, M)
            if psi is None:
                continue
            # undo the word that led from H to M, transported through psi
            inv = {t: s for s, t in psi.items()}
            back = tuple(("LC", inv[x]) for x in reversed(word))
            res = (back, tuple(psi.items()))
            break
        cache[rows] = res
        return res

    return _ElimSearch(G, subset, accept, budget=budget, connected_target=connected).run()


def iso_vm_decide(G: SimpleGraph, H: SimpleGraph, budget=None, deterministic=False,
                  workers=1, orbit_cap=DEFAULT_NODE_CAP) -> Decision:
    """Does G have a vertex-minor isomorphic to H?

    When word_of finds that H is not a circle graph and G has a word, the
    answer is NO without a scan: local complementation and deletion act on
    a word of G as word_local_complement and word_delete, so every
    vertex-minor of a circle graph is a circle graph.  That NO exhausts H's
    chord placements and rests on this closure, and it needs no budget, no
    orbit and no worker.  If word_of gives up on H, the scan runs.

    Otherwise the |V(H)|-subsets of G are scanned in lexicographic order,
    only those inside one component of G when H is connected.  Each gets the
    elimination search, and a leaf survivor S is accepted when S is
    isomorphic to some member of the local complementation orbit of H,
    computed once up front.  That is equivalent to S's own orbit meeting
    the isomorphism class of H, because orbits are equivalence classes.
    The first accepting subset is reported with the least accepting ops
    sequence, replayed as a VmWitness, so every answer is canonical.  Subsets
    that an automorphism of G maps onto an earlier subset are not scanned
    (see parallel.orbit_least).  With a budget, a subset whose search runs
    out of it before any subset says yes ends the scan as UNKNOWN, with a
    detail that names it, so a budgeted YES is always the unbudgeted one.  If
    the orbit of H overflows orbit_cap the decision is UNKNOWN;
    `deterministic` is accepted and ignored.
    """
    if not H.vertices:
        raise ValueError("H must have at least one vertex")
    if len(H.vertices) > len(G.vertices):
        raise ValueError("H must not have more vertices than G")
    try:
        no_word = word_of(H) is None
    except ResourceLimitError:  # word_of gave up on H: the scan answers
        no_word = False
    if no_word and _word_multigraph(G) is not None:
        return Decision("no", None, "G is a circle graph and H is not, and circle "
                        "graphs are closed under vertex-minors")
    try:
        buckets = _orbit_buckets(H, orbit_cap)
    except ResourceLimitError as e:
        return Decision("unknown", None, f"orbit of H overflowed: {e}")
    subsets = combinations(G.vertices, len(H.vertices))
    connected = len(connected_components(H)) == 1
    if connected:
        comps = connected_components(G)
        subsets = (s for s in subsets if any(set(s) <= c for c in comps))
    try:
        found = scan_subsets(partial(_iso_task, G, connected, buckets, budget),
                             orbit_least(G, subsets), workers)
    except ResourceLimitError as e:
        return Decision("unknown", None, str(e))
    if found is None:
        return Decision("no", None, "exhausted all candidate subsets")
    return _vm_yes(G, H, *found)


def _vm_yes(G, H, subset, payload):
    """The YES of a subset and its _iso_task payload, witness verified."""
    ops, iso = payload
    w = _require_verified(G, H, VmWitness(tuple(ops), iso))
    return Decision("yes", (subset, w), f"V' = {{{' '.join(sorted(subset))}}}")


@lru_cache(maxsize=1024)
def _labeled_target(vertices, H, cap):
    """H's orbit words on the vertex tuple, and whether H is connected.

    The orbit is that of H with the vertices outside V(H) isolated.  A
    ResourceLimitError is raised, not cached.
    """
    words = _orbit_words(SimpleGraph(vertices, H.sorted_edges()), cap)
    return words, len(connected_components(H)) == 1


def labeled_vm_decide(G: SimpleGraph, H: SimpleGraph, budget=None,
                      orbit_cap=DEFAULT_NODE_CAP) -> Decision:
    """Is H, labels and all, reachable from G by complementations and deletions?

    The subset is fixed to V(H); a survivor is accepted exactly when its
    rows are those of a member of H's orbit, computed on V(G) with the
    vertices outside V(H) isolated and kept for the last 1,024 targets
    (V(G), H, orbit_cap).  This is the labeled primitive the isomorphic
    deciders are cross-checked against.
    """
    missing = sorted(set(H.vertices) - set(G.vertices))
    if missing:
        raise ValueError(f"H vertex {missing[0]!r} is not a vertex of G")
    try:
        words, connected = _labeled_target(G.vertices, H, orbit_cap)
    except ResourceLimitError as e:
        return Decision("unknown", None, f"orbit of H overflowed: {e}")

    def accept(rows):
        word = words.get(rows)
        if word is None:
            return None
        return tuple(("LC", x) for x in reversed(word)), None

    eng = _ElimSearch(G, H.vertices, accept, budget=budget, connected_target=connected)
    try:
        res = eng.run()
    except ResourceLimitError as e:
        return Decision("unknown", None, f"{e}")
    if res is None:
        return Decision("no", None, "exhausted the elimination tree")
    ops, _ = res
    w = _require_verified(G, H, VmWitness(ops, tuple((v, v) for v in H.vertices)))
    return Decision("yes", w, "labeled elimination")


def vertex_minor_closure(G: SimpleGraph, node_cap: int = DEFAULT_NODE_CAP):
    """Every labeled graph reachable from G by complementations and deletions.

    Plain breadth-first closure, the ground truth the elimination search is
    validated against.  Grows fast; meant for small graphs only.
    """
    seen = {G}
    queue = [G]
    while queue:
        nxt = []
        for cur in queue:
            images = []
            for v in cur.vertices:
                if cur.degree(v) >= 2:
                    images.append(local_complement(cur, v))
                if len(cur.vertices) > 1:
                    images.append(delete_vertex(cur, v))
            for M in images:
                if M not in seen:
                    if len(seen) >= node_cap:
                        raise ResourceLimitError(
                            f"closure exceeded {node_cap} graphs", count=len(seen)
                        )
                    seen.add(M)
                    nxt.append(M)
        queue = nxt
    return frozenset(seen)


@lru_cache(maxsize=32)
def _tour_index(F, limit):
    """G0, F's tour classes in discovery order, and their per-vertex-set indexes.

    Each class is its induced word and alternance graph.  The dict, filled by
    vm_oracle_via_tours, maps a sorted vertex tuple to {restricted rows: the
    first class with those rows}.  More than `limit` classes raise
    ResourceLimitError, which is not cached.
    """
    G0 = alternance_graph(induced_word(find_euler_tour(F)))
    words = [induced_word(U) for U in enumerate_euler_tours(F, limit)]
    return G0, tuple((w, alternance_graph(w)) for w in words), {}


def vm_oracle_via_tours(F, H: SimpleGraph, limit=None) -> Decision:
    """Tour-based labeled vertex-minor oracle over the circle graphs of F.

    Finds the first Eulerian tour class of F, in enumeration order, whose
    induced sub-word over V(H) has alternance graph exactly H.  That graph is
    the tour's alternance graph restricted to V(H), so each multigraph's
    record (kept for the last 32 (F, limit) pairs) holds G0, every class's
    word and alternance graph, and per vertex set an index from restricted
    rows to the first class: a call is one lookup.  Independent of the
    elimination machinery; the YES witness is assembled against G0, the
    alternance graph of find_euler_tour's tour, and checked like any other.
    More than `limit` classes make the answer UNKNOWN.
    """
    want = set(H.vertices)
    missing = sorted(want - set(F.vertices))
    if missing:
        raise ValueError(f"H vertex {missing[0]!r} is not a vertex of F")
    try:
        G0, classes, by_set = _tour_index(F, limit)
    except ResourceLimitError as e:
        return Decision("unknown", None, str(e))
    index = by_set.get(H.vertices)
    if index is None:
        keep = [p for p, v in enumerate(G0.vertices) if v in want]
        index = by_set[H.vertices] = {}
        for c in classes:
            index.setdefault(_restrict(c[1].rows, keep), c)
    hit = index.get(H.rows)
    if hit is None:
        return Decision("no", None, "all tour classes enumerated")
    word, g = hit
    lcw = lc_word_between(G0, g)
    if lcw is None:
        raise RuntimeError("tour alternance graph escaped the LC orbit")
    ops = tuple(("LC", x) for x in lcw) + tuple(
        ("DEL", v) for v in G0.vertices if v not in want
    )
    w = VmWitness(ops, tuple((v, v) for v in sorted(want)))
    _require_verified(G0, H, w)
    return Decision("yes", w, f"tour {word.to_text()}")
