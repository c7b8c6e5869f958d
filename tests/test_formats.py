"""Text format tests: byte-exact fixtures, round trips, error positions."""

from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from vmkit import (
    Dow,
    DowClass,
    MultiGraph,
    SimpleGraph,
    VmWitness,
    alternance_graph,
    bundle_chain_for,
    canonical_tour,
    find_euler_tour,
    make_bundle,
    multigraph_from_word,
    parse_bundle,
    parse_graph,
    parse_subset,
    parse_tour,
    parse_witness,
    parse_word,
    payload_digest,
    serialize_bundle,
    serialize_graph,
    serialize_subset,
    serialize_tour,
    serialize_witness,
    serialize_word,
    verify_bundle_chain,
)

from corpus_helpers import complete_graph, worked_graph

WORKED_TEXT = "simple 5\nab\nac\nad\nbe\nce\n"


def test_graph_fixture_bytes():
    assert serialize_graph(worked_graph()) == WORKED_TEXT
    assert parse_graph(WORKED_TEXT) == worked_graph()


def test_graph_round_trips():
    for G in (
        worked_graph(),
        SimpleGraph("abc", []),
        SimpleGraph(["left", "right"], [("left", "right")]),
        MultiGraph("ab", [("a", "b")] * 4),
        MultiGraph("v", [("v", "v")]),
        MultiGraph("ab", [("a", "a"), ("a", "b"), ("a", "b"), ("b", "b")]),
    ):
        assert parse_graph(serialize_graph(G)) == G


def test_graph_spaced_labels_and_vertices_line():
    G = SimpleGraph(["left", "right", "spare"], [("left", "right")])
    text = serialize_graph(G)
    assert "left right" in text
    assert text.splitlines()[1].startswith("vertices")
    assert parse_graph(text) == G


def test_loop_shorthand():
    F = parse_graph("multi 1\nv v\n")
    assert F == MultiGraph("v", [("v", "v")])
    assert parse_graph(serialize_graph(F)) == F


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("", "line 1, column 1"),
        ("digraph 3\nab\n", "line 1"),
        ("simple x\nab\n", "not a number"),
        ("simple -1\n", "negative"),
        ("simple 2\nab\nab\n", "duplicate edge ab"),
        ("simple 1\naa\n", "loop"),
        ("simple 3\nab\n", "header says 3"),
        ("simple 2\na b c\n", "exactly two labels"),
        ("simple 2\na, b\n", "bad label"),
    ],
)
def test_graph_errors(text, fragment):
    with pytest.raises(ValueError, match="line \\d+, column \\d+"):
        try:
            parse_graph(text)
        except ValueError as e:
            assert fragment in str(e)
            raise


def test_word_round_trip_and_canonical_form():
    assert serialize_word(parse_word("adcbaebced")) == "a b c d a d e c b e\n"
    w = parse_word("a b c d a e b c e d")
    assert w.letters == tuple("abcdaebced")
    text = serialize_word(w)
    assert serialize_word(parse_word(text)) == text
    with pytest.raises(ValueError):
        parse_word("   ")
    with pytest.raises(ValueError):
        parse_word("abca")


def test_tour_round_trip():
    F = multigraph_from_word(Dow("abcdaebced"))
    U = canonical_tour(find_euler_tour(F))
    text = serialize_tour(U)
    lines = text.splitlines()
    assert lines[0] == "tour"
    assert len(lines) == 1 + 2 * len(U.edge_seq)
    assert parse_tour(text, F) == U


def test_tour_errors():
    F = multigraph_from_word(Dow("abcdaebced"))
    with pytest.raises(ValueError, match='header "tour"'):
        parse_tour("walk\na\n0\n", F)
    with pytest.raises(ValueError, match="alternates"):
        parse_tour("tour\na\n0\nb\n", F)
    with pytest.raises(ValueError, match="not a number"):
        parse_tour("tour\na\nzero\n", F)
    with pytest.raises(ValueError, match="does not fit"):
        parse_tour("tour\na\n0\n", F)


WITNESS_TEXT = "LC a\nDEL e\nLC a\nISO a=a b=b c=c d=d\n"


def test_witness_fixture_bytes():
    w = VmWitness(
        (("LC", "a"), ("DEL", "e"), ("LC", "a")),
        (("a", "a"), ("b", "b"), ("c", "c"), ("d", "d")),
    )
    assert serialize_witness(w) == WITNESS_TEXT
    assert parse_witness(WITNESS_TEXT) == w
    bare = parse_witness("ISO a=x\n")
    assert bare.ops == () and bare.iso == (("a", "x"),)


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("LC a\n", "missing the ISO line"),
        ("ISO a=x\nDEL b\n", "nothing may follow"),
        ("LC a b\nISO a=x\n", "exactly one vertex"),
        ("FLIP a\nISO a=x\n", "expected LC, DEL or ISO"),
        ("ISO ax\n", "survivor=target"),
        ("ISO a=\n", "survivor=target"),
        ("", "empty witness"),
    ],
)
def test_witness_errors(text, fragment):
    with pytest.raises(ValueError, match="line \\d+"):
        try:
            parse_witness(text)
        except ValueError as e:
            assert fragment in str(e)
            raise


def test_subset_forms():
    valid = "abcde"
    want = frozenset("abd")
    assert parse_subset("a,b,d", valid) == want
    assert parse_subset("a b d", valid) == want
    assert parse_subset("abd", valid) == want
    assert parse_subset("a", valid) == frozenset("a")
    assert parse_subset("left", ["left", "right"]) == frozenset(("left",))
    assert parse_subset("left, right", ["left", "right"]) == frozenset(
        ("left", "right")
    )
    assert serialize_subset(want) == "a,b,d"
    with pytest.raises(ValueError, match="not a vertex"):
        parse_subset("a,z", valid)
    with pytest.raises(ValueError, match="empty"):
        parse_subset(" , ", valid)


def test_bundle_primitives():
    digest = payload_digest({"k": 1})
    assert len(digest) == 64 and digest != payload_digest({"k": 2})
    with pytest.raises(ValueError, match="unknown bundle kind"):
        make_bundle("magic", {}, [])
    b = make_bundle("cubham", {"graph": WORKED_TEXT}, [])
    assert parse_bundle(serialize_bundle(b)) == b
    with pytest.raises(ValueError, match="not valid JSON"):
        parse_bundle("{nope")
    with pytest.raises(ValueError, match="missing the 'payload'"):
        parse_bundle('{"kind": "cubham", "provenance": []}')
    with pytest.raises(ValueError, match="unknown bundle kind"):
        parse_bundle('{"kind": "magic", "payload": {}, "provenance": []}')


def test_bundle_chain_replay_and_tamper():
    chain = bundle_chain_for(complete_graph("abcd"))
    assert [b["kind"] for b in chain] == ["cubham", "isosoet", "starvm", "isovm"]
    verify_bundle_chain(chain)

    broken = [dict(b, payload=dict(b["payload"])) for b in chain]
    broken[2]["payload"]["k"] = 99
    with pytest.raises(ValueError):
        verify_bundle_chain(broken)

    broken = [
        dict(b, provenance=[dict(p) for p in b["provenance"]]) for b in chain
    ]
    broken[1]["provenance"][-1]["source"] = "0" * 64
    with pytest.raises(ValueError, match="cite its upstream"):
        verify_bundle_chain(broken)

    broken = [
        dict(b, provenance=[dict(p) for p in b["provenance"]]) for b in chain
    ]
    broken[2]["provenance"][-1]["tour"] = "tour\na\n0\n"
    with pytest.raises(ValueError, match="recorded tour"):
        verify_bundle_chain(broken)

    with pytest.raises(ValueError, match="empty bundle chain"):
        verify_bundle_chain([])


def test_bundle_chain_prefixes_verify():
    chain = bundle_chain_for(complete_graph("abcd"))
    for n in range(1, 5):
        verify_bundle_chain(chain[:n])


_MULTI_CUBIC = "multi 4\nab\nab\ncd\ncd\nac\nbd\n"
_TWO_K4 = SimpleGraph("abcdefgh", [*combinations("abcd", 2), *combinations("efgh", 2)])


@pytest.mark.parametrize("tamper, fragment", [
    pytest.param(lambda c: c[1:], "must start with a cubham bundle", id="no-head"),
    pytest.param(lambda c: [make_bundle("cubham", 5, [])],
                 "must start with a cubham bundle", id="int-payload"),
    pytest.param(lambda c: [make_bundle("cubham", {}, [])],
                 "must start with a cubham bundle", id="empty-payload"),
    pytest.param(lambda c: [make_bundle("cubham", {"graph": _MULTI_CUBIC}, [])],
                 "multigraph", id="cubic-multigraph"),
    pytest.param(lambda c: [make_bundle("cubham", {"graph": serialize_graph(_TWO_K4)}, [])],
                 "must be connected", id="disconnected-cubic"),
    # bundle_chain_for refuses the same graph before any chain exists
    pytest.param(lambda c: bundle_chain_for(_TWO_K4), "must be connected",
                 id="disconnected-cubic-build"),
    pytest.param(lambda c: [make_bundle("cubham", {"graph": "simple 0\n"}, [])],
                 "must be connected", id="empty-cubic"),
    pytest.param(lambda c: bundle_chain_for(SimpleGraph(())), "must be connected",
                 id="empty-cubic-build"),
    pytest.param(lambda c: [c[0], dict(c[1], provenance=[5])],
                 "provenance is not a list", id="int-provenance"),
    pytest.param(lambda c: [c[0], "kind payload provenance"],
                 "not a JSON object", id="string-bundle"),
    pytest.param(lambda c: [c[0], dict(c[1], kind="starvm")],
                 "starvm bundle stands where", id="kind-swapped"),
    pytest.param(lambda c: [c[0], dict(c[1], provenance=[])], "has no provenance",
                 id="no-provenance"),
    pytest.param(lambda c: [c[0], dict(c[1], payload=dict(c[1]["payload"], k=6))],
                 "isosoet payload does not replay", id="payload-changed"),
    pytest.param(lambda c: [c[0], dict(c[1], provenance=c[1]["provenance"] * 2)],
                 "isosoet provenance does not replay", id="provenance-repeated"),
    pytest.param(lambda c: c + [dict(c[3], provenance=[
        {"source": payload_digest(c[3]["payload"])}])], "more than 4", id="fifth-bundle"),
])
def test_malformed_bundle_chains_raise_value_error(tamper, fragment):
    chain = bundle_chain_for(complete_graph("abcd"))
    with pytest.raises(ValueError, match=fragment):
        verify_bundle_chain(tamper(chain))


@st.composite
def simple_graphs(draw, max_vertices=8):
    # single-character labels take the compact edge form, longer ones the
    # spaced form; isolated vertices need the vertices line
    labels = sorted(draw(st.sets(st.text("abxyz019_", min_size=1, max_size=3),
                                 max_size=max_vertices)))
    pairs = list(combinations(labels, 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return SimpleGraph(labels, [p for p, k in zip(pairs, keep) if k])


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(simple_graphs())
def test_graph_parse_inverts_serialize(G):
    assert parse_graph(serialize_graph(G)) == G


# labels that can clash with the format: "#" starts a comment, "vertices" the
# declaration line, "=" and "," separate labels in other formats
RISKY_LABELS = st.one_of(st.text("ab#=,", min_size=1, max_size=3), st.just("vertices"))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.lists(st.tuples(RISKY_LABELS, RISKY_LABELS), min_size=1, max_size=6))
def test_accepted_graph_text_reads_back(pairs):
    labels = {x for p in pairs for x in p}
    text = f"multi {len(labels)}\n" + "".join(f"{u} {v}\n" for u, v in pairs)
    try:
        G = parse_graph(text)
    except ValueError:
        return
    assert parse_graph(serialize_graph(G)) == G


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.lists(RISKY_LABELS, min_size=1, max_size=4, unique=True), st.randoms())
def test_accepted_word_text_reads_back(letters, rnd):
    seq = letters * 2
    rnd.shuffle(seq)
    try:
        w = parse_word(" ".join(seq))
    except ValueError:
        return
    assert parse_word(serialize_word(w)).letters == DowClass(w).canonical.letters
    G = alternance_graph(w)
    assert parse_graph(serialize_graph(G)) == G
