"""Double-occurrence words, their cyclic classes, and alternance graphs.

A double-occurrence word (DOW) is a word in which every letter occurs exactly
twice; it is read cyclically, and two words are equivalent when one is a
rotation of the other or of its mirror.  Two letters u, v alternate when
exactly one occurrence of v lies cyclically strictly between the two
occurrences of u; the graph of all alternances is the circle graph of the
word.  Local complementation, vertex deletion, and induced subgraphs all have
word-level counterparts that commute with the alternance map.
"""

from .errors import ResourceLimitError
from .graphs import MultiGraph, SimpleGraph, _index_of


class Dow:
    """A double-occurrence word over string letters."""

    def __init__(self, letters=()):
        letters = tuple(letters)
        counts = {}
        for x in letters:
            if not isinstance(x, str) or not x:
                raise ValueError(f"letter must be a non-empty string, got {x!r}")
            counts[x] = counts.get(x, 0) + 1
        for x, c in counts.items():
            if c != 2:
                raise ValueError(f"letter {x!r} occurs {c} times, expected 2")
        self.letters = letters
        self._vset = frozenset(counts)

    @classmethod
    def from_text(cls, text: str) -> "Dow":
        """Parse "a d c b a e b c e d"; a lone unspaced token such as
        "adcbaebced" is split into single-character letters."""
        tokens = text.split()
        if len(tokens) == 1 and len(tokens[0]) > 1:
            tokens = list(tokens[0])
        return cls(tokens)

    def to_text(self) -> str:
        return " ".join(self.letters)

    def vertex_set(self):
        return self._vset

    def __len__(self):
        return len(self.letters)

    def __eq__(self, other):
        if not isinstance(other, Dow):
            return NotImplemented
        return self.letters == other.letters

    def __hash__(self):
        return hash(self.letters)

    def __repr__(self):
        return f"Dow({self.to_text()!r})"


def mirror(X: Dow) -> Dow:
    return Dow(tuple(reversed(X.letters)))


def _least_rotation(seq):
    if not seq:
        return seq
    return min(seq[i:] + seq[:i] for i in range(len(seq)))


class DowClass:
    """Equivalence class of a DOW under rotation and mirror.

    The canonical representative is the least word over all rotations of the
    word and of its mirror.
    """

    def __init__(self, word: Dow):
        fwd = _least_rotation(word.letters)
        bwd = _least_rotation(tuple(reversed(word.letters)))
        self.canonical = Dow(min(fwd, bwd))

    def __eq__(self, other):
        if not isinstance(other, DowClass):
            return NotImplemented
        return self.canonical == other.canonical

    def __hash__(self):
        return hash(self.canonical)

    def __repr__(self):
        return f"DowClass({self.canonical.to_text()!r})"


def alternances(X: Dow):
    """Set of unordered alternating pairs of X.

    {u, v} alternates iff exactly one occurrence of v lies cyclically strictly
    between the two occurrences of u.  The criterion is symmetric in u and v
    and invariant under rotation and mirror of the word.
    """
    return {frozenset(e) for e in alternance_graph(X).sorted_edges()}


def alternance_graph(X: Dow) -> SimpleGraph:
    """The circle graph of X: vertices V(X), edges the alternances.

    The letters met once between the two occurrences of u are the bits of
    the parity mask (letters seen an odd number of times) that changed
    between them, u's own aside.
    """
    vertices = tuple(sorted(X.vertex_set()))
    index = _index_of(vertices)
    rows = [0] * len(vertices)
    opened = [None] * len(vertices)
    parity = 0
    for x in X.letters:
        i = index[x]
        if opened[i] is None:
            opened[i] = parity
        else:
            rows[i] = (parity ^ opened[i]) & ~(1 << i)
        parity ^= 1 << i
    return SimpleGraph._from_rows(vertices, tuple(rows))


_WORD_WORK = 2_000_000  # gaps visited before word_of gives up


def word_of(G: SimpleGraph):
    """A Dow X with alternance_graph(X) == G, or None when G is not a circle
    graph.

    The vertices are placed one at a time into a linear word, read
    cyclically.  With par[g] the parity mask of the letters before gap g, a
    chord of v from gap j to gap i >= j crosses exactly par[i] ^ par[j], so
    the placement is valid when that mask is N(v) among the placed letters;
    later letters never change an alternance already placed.  Each step
    places the unplaced vertex with the fewest valid placements, and one
    with none ends the branch.  A word of G that reads as the current word
    on the placed letters reads as one of the step's placements on one more
    letter, so the search is complete: G is a circle graph exactly when a
    word is found, and None is returned only after every placement was
    tried.  A prime circle graph has one chord diagram (Bouchet 1987), so
    branches come from its splits.  After _WORD_WORK gaps visited the search
    gives up with ResourceLimitError, circle graph or not; a full word whose
    alternance graph is not G is a bug and raises RuntimeError.
    """
    rows, n = G.rows, len(G.vertices)
    work = 0
    stack = [iter([()])]  # stack[d]: the words left to try with d letters placed
    while stack:
        word = next(stack[-1], None)
        if word is None:
            stack.pop()
            continue
        if len(word) == 2 * n:
            X = Dow(G.vertices[x] for x in word)
            if alternance_graph(X) != G:
                raise RuntimeError("internal error: a placed word's alternance graph is not G")
            return X
        par = [0]  # par[g] for the gaps 0 .. len(word) - 1; gap len(word) is gap 0
        for x in word[:-1]:
            par.append(par[-1] ^ 1 << x)
        placed = sum({1 << x for x in word})
        best = None
        for v in range(n):
            if placed >> v & 1:
                continue
            want, seen, count = rows[v] & placed, {}, 0
            for p in par:  # the pairs of gaps j <= i with par[j] == par[i] ^ want
                seen[p] = seen.get(p, 0) + 1
                count += seen.get(p ^ want, 0)
            work += len(par)
            if best is None or count < best[0]:
                best = (count, v, want)
                if not count:
                    break
        if work > _WORD_WORK:
            raise ResourceLimitError(f"word search exceeded {_WORD_WORK} gap visits", count=work)
        stack.append(_insertions(word, par, *best[1:]))
    return None


def _insertions(word, par, v, want):
    """word with v at gaps j <= i, one word for each pair with
    par[i] ^ par[j] == want, in order of i and then j."""
    gaps = {}
    for i, p in enumerate(par):
        gaps.setdefault(p, []).append(i)
        for j in gaps.get(p ^ want, ()):
            yield word[:j] + (v,) + word[j:i] + (v,) + word[i:]


def _occurrences(X, v):
    ps = [i for i, x in enumerate(X.letters) if x == v]
    if not ps:
        raise ValueError(f"letter {v!r} does not occur")
    return ps


def word_local_complement(X: Dow, v: str) -> Dow:
    """Reverse the subword strictly between the two occurrences of v."""
    p1, p2 = _occurrences(X, v)
    ls = X.letters
    return Dow(ls[: p1 + 1] + tuple(reversed(ls[p1 + 1 : p2])) + ls[p2:])


def word_delete(X: Dow, v: str) -> Dow:
    """Remove both occurrences of v."""
    _occurrences(X, v)
    return Dow(x for x in X.letters if x != v)


def induced_subword(X: Dow, W) -> Dow:
    """Keep only letters of W (which must all occur in X)."""
    W = set(W)
    missing = sorted(W - X.vertex_set())
    if missing:
        raise ValueError(f"letter {missing[0]!r} does not occur")
    return Dow(x for x in X.letters if x in W)


def multigraph_from_word(X: Dow) -> MultiGraph:
    """4-regular multigraph traced by the word.

    One edge per cyclically consecutive pair of letters, edge ids in position
    order; doubled adjacencies give parallel edges and an adjacent pair of
    equal letters gives a loop.
    """
    if len(X) == 0:
        raise ValueError("empty word traces no multigraph")
    ls = X.letters
    n = len(ls)
    edges = [(ls[i], ls[(i + 1) % n]) for i in range(n)]
    return MultiGraph(X.vertex_set(), edges)
