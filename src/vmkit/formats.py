"""Line-oriented text formats and tamper-evident instance bundles.

Everything is plain ASCII so fixtures diff cleanly.  Canonical serialization
sorts vertices and edges, rotates tours to their canonical representative,
and reduces words to their class representative; parse then serialize is the
identity on canonical text.
"""

from __future__ import annotations

import hashlib
import json

from .euler import EulerianTour, canonical_tour, find_euler_tour
from .graphs import MultiGraph, SimpleGraph
from .reduction import (
    reduce_cubham_to_isosoet,
    reduce_isosoet_to_starvm,
    reduce_starvm_to_isovm,
)
from .solvers import VmWitness
from .words import Dow, DowClass


def _fail(line_no, col, msg):
    raise ValueError(f"line {line_no}, column {col}: {msg}")


def _rows(text):
    """(line number, stripped line) of each line not blank or a comment."""
    rows = [(i + 1, ln.strip()) for i, ln in enumerate(text.splitlines())]
    return [(no, ln) for no, ln in rows if ln and not ln.startswith("#")]


def _label_ok(tok):
    # "#" would start a comment line and "vertices" the declaration line
    # once the label leads a written line; "=" and "," separate labels
    return (tok and tok[0] != "#" and tok != "vertices"
            and not any(ch in tok for ch in "=,") and not tok.isspace())


def _edge_tokens(line):
    toks = line.split()
    if len(toks) == 1 and len(toks[0]) == 2:
        return [toks[0][0], toks[0][1]]
    return toks


def parse_graph(text: str):
    """Parse the graph format: header "simple N" or "multi N", then edges.

    Edge lines hold two whitespace-separated labels; a lone two-character
    token is shorthand for two single-character labels.  An optional
    "vertices ..." line right after the header lists isolated vertices.
    """
    rows = _rows(text)
    if not rows:
        raise ValueError("line 1, column 1: empty graph text")
    no, header = rows[0]
    parts = header.split()
    if len(parts) != 2 or parts[0] not in ("simple", "multi"):
        _fail(no, 1, 'expected header "simple N" or "multi N"')
    mode = parts[0]
    try:
        n = int(parts[1])
    except ValueError:
        _fail(no, len(parts[0]) + 2, f"vertex count {parts[1]!r} is not a number")
    if n < 0:
        _fail(no, len(parts[0]) + 2, "vertex count must not be negative")
    body = rows[1:]
    declared = []
    if body and body[0][1].split()[0] == "vertices":
        vno, vline = body[0]
        declared = vline.split()[1:]
        for tok in declared:
            if not _label_ok(tok):
                _fail(vno, vline.find(tok) + 1, f"bad label {tok!r}")
        body = body[1:]
    edges = []
    seen = set()
    for eno, ln in body:
        toks = _edge_tokens(ln)
        if len(toks) != 2:
            _fail(eno, 1, "an edge line needs exactly two labels")
        u, v = toks
        for tok in (u, v):
            if not _label_ok(tok):
                _fail(eno, ln.find(tok) + 1, f"bad label {tok!r}")
        if mode == "simple":
            if u == v:
                _fail(eno, 1, f"loop at {u!r} is not allowed in a simple graph")
            if frozenset((u, v)) in seen:
                _fail(eno, 1, f"duplicate edge {u}{v}")
            seen.add(frozenset((u, v)))
        edges.append((u, v))
    vertices = set(declared)
    for u, v in edges:
        vertices.update((u, v))
    if len(vertices) != n:
        _fail(no, 1, f"header says {n} vertices but the text names {len(vertices)}")
    if mode == "simple":
        return SimpleGraph(vertices, edges)
    return MultiGraph(vertices, edges)


def _compact(G):
    return all(len(v) == 1 for v in G.vertices)


def serialize_graph(G) -> str:
    """Canonical text for a graph: sorted edges, shorthand when single-char.

    Multigraph edges keep their id order so EdgeIds survive a round trip.
    A "vertices" line appears only when isolated vertices make it necessary.
    """
    multi = isinstance(G, MultiGraph)
    out = [f"{'multi' if multi else 'simple'} {len(G.vertices)}"]
    if multi:
        edges = list(G.edges)
    else:
        edges = G.sorted_edges()
    covered = {x for e in edges for x in e}
    if covered != set(G.vertices):
        out.append("vertices " + " ".join(G.vertices))
    joint = "" if _compact(G) else " "
    for u, v in edges:
        out.append(f"{u}{joint}{v}")
    return "\n".join(out) + "\n"


def parse_word(text: str) -> Dow:
    """Parse a double-occurrence word, spaced or as one unspaced token.

    Its letters become graph labels, so each must be a valid one.
    """
    toks = text.split()
    if not toks:
        raise ValueError("line 1, column 1: empty word")
    w = Dow.from_text(" ".join(toks))
    for x in w.letters:
        if not _label_ok(x):
            raise ValueError(f"bad label {x!r}")
    return w


def serialize_word(w: Dow) -> str:
    """Canonical class representative, space-separated."""
    return " ".join(DowClass(w).canonical.letters) + "\n"


def parse_tour(text: str, F: MultiGraph) -> EulerianTour:
    """Parse the tour format: "tour" header, then alternating vertex and
    edge-id lines, one final edge id closing the walk back to the start."""
    rows = _rows(text)
    if not rows:
        raise ValueError('line 1, column 1: expected the header "tour"')
    if rows[0][1] != "tour":
        _fail(rows[0][0], 1, 'expected the header "tour"')
    body = rows[1:]
    if not body or len(body) % 2 != 0:
        raise ValueError(
            f"line {rows[0][0]}, column 1: a tour alternates vertex and "
            "edge-id lines, ending on the edge id that closes the walk"
        )
    vseq = []
    eseq = []
    for idx, (no, ln) in enumerate(body):
        if idx % 2 == 0:
            vseq.append(ln)
        else:
            try:
                eseq.append(int(ln))
            except ValueError:
                _fail(no, 1, f"edge id {ln!r} is not a number")
    try:
        return EulerianTour(F, tuple(vseq), tuple(eseq))
    except ValueError as e:
        raise ValueError(f"tour does not fit the multigraph: {e}") from None


def serialize_tour(U: EulerianTour) -> str:
    """Canonical rotation, alternating vertex and edge-id lines."""
    U = canonical_tour(U)
    out = ["tour"]
    for v, e in zip(U.vertex_seq, U.edge_seq):
        out.append(str(v))
        out.append(str(e))
    return "\n".join(out) + "\n"


def parse_witness(text: str) -> VmWitness:
    """Parse a witness: "LC v" / "DEL v" lines, then one "ISO a=x ..." line."""
    rows = _rows(text)
    if not rows:
        raise ValueError("line 1, column 1: empty witness")
    ops = []
    iso = None
    for no, ln in rows:
        toks = ln.split()
        if iso is not None:
            _fail(no, 1, "nothing may follow the ISO line")
        if toks[0] in ("LC", "DEL"):
            if len(toks) != 2:
                _fail(no, 1, f"{toks[0]} needs exactly one vertex")
            ops.append((toks[0], toks[1]))
        elif toks[0] == "ISO":
            pairs = []
            for tok in toks[1:]:
                if tok.count("=") != 1:
                    _fail(no, ln.find(tok) + 1, f"expected survivor=target, got {tok!r}")
                a, b = tok.split("=")
                if not a or not b:
                    _fail(no, ln.find(tok) + 1, f"expected survivor=target, got {tok!r}")
                pairs.append((a, b))
            iso = tuple(pairs)
        else:
            _fail(no, 1, f"expected LC, DEL or ISO, got {toks[0]!r}")
    if iso is None:
        raise ValueError(f"line {rows[-1][0]}, column 1: missing the ISO line")
    return VmWitness(tuple(ops), iso)


def serialize_witness(w) -> str:
    out = [f"{tag} {v}" for tag, v in w.ops]
    out.append("ISO " + " ".join(f"{a}={b}" for a, b in w.iso))
    return "\n".join(out) + "\n"


def parse_subset(text: str, valid) -> frozenset:
    """A vertex subset: comma separated, whitespace separated, or for
    single-character vertex sets simply the characters run together."""
    s = text.strip()
    valid = set(valid)
    if s in valid:
        return frozenset((s,))
    if "," in s:
        toks = [t.strip() for t in s.split(",") if t.strip()]
    elif any(ch.isspace() for ch in s):
        toks = s.split()
    else:
        toks = list(s)
    out = []
    for t in toks:
        if t not in valid:
            raise ValueError(f"{t!r} is not a vertex here")
        out.append(t)
    if not out:
        raise ValueError("empty vertex subset")
    return frozenset(out)


def serialize_subset(subset) -> str:
    return ",".join(sorted(subset))


def serialize_soet_cert(cert) -> str:
    """A SOET certificate: a "subset a,b,..." line, then the tour."""
    return f"subset {serialize_subset(cert.subset)}\n" + serialize_tour(cert.tour)


BUNDLE_KINDS = ("cubham", "isosoet", "starvm", "isovm")


def payload_digest(payload: dict) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def make_bundle(kind: str, payload: dict, provenance) -> dict:
    if kind not in BUNDLE_KINDS:
        raise ValueError(f"unknown bundle kind {kind!r}")
    return {"kind": kind, "payload": payload, "provenance": list(provenance)}


def serialize_bundle(bundle: dict) -> str:
    return json.dumps(bundle, sort_keys=True, indent=2) + "\n"


def parse_bundle(text: str) -> dict:
    try:
        bundle = json.loads(text)
    except json.JSONDecodeError as e:
        raise ValueError(f"bundle is not valid JSON: {e}") from None
    if not isinstance(bundle, dict):
        raise ValueError("bundle is not a JSON object")
    for field in ("kind", "payload", "provenance"):
        if field not in bundle:
            raise ValueError(f"bundle is missing the {field!r} field")
    if bundle["kind"] not in BUNDLE_KINDS:
        raise ValueError(f"unknown bundle kind {bundle['kind']!r}")
    steps = bundle["provenance"]
    if not isinstance(steps, list) or not all(isinstance(p, dict) for p in steps):
        raise ValueError("bundle provenance is not a list of objects")
    return bundle


def bundle_chain_for(R: SimpleGraph):
    """The reduction chain for a connected cubic graph R as four bundles.

    Each bundle's provenance records the step, its parameters, and the
    digest of the upstream payload.  verify_bundle_chain checks a chain by
    calling this again on its cubic graph and demanding equal bundles.
    """
    F, k = reduce_cubham_to_isosoet(R)
    b0 = make_bundle("cubham", {"graph": serialize_graph(R)}, [])
    b1 = make_bundle(
        "isosoet",
        {"multigraph": serialize_graph(F), "k": k},
        [{"step": "k3_expand", "source": payload_digest(b0["payload"])}],
    )
    G, _ = reduce_isosoet_to_starvm(F, k)
    gtext = serialize_graph(G)
    b2 = make_bundle(
        "starvm",
        {"graph": gtext, "k": k},
        [
            {
                "step": "euler_alternance",
                "source": payload_digest(b1["payload"]),
                "tour": serialize_tour(find_euler_tour(F)),
            }
        ],
    )
    _, H = reduce_starvm_to_isovm(G, k)
    b3 = make_bundle(
        "isovm",
        {"graph": gtext, "target": serialize_graph(H)},
        [{"step": "star_to_iso", "source": payload_digest(b2["payload"]), "k": k}],
    )
    return [b0, b1, b2, b3]


def verify_bundle_chain(bundles) -> None:
    """Check a chain by rebuilding it; raise ValueError on any mismatch.

    Every bundle must cite its upstream payload's digest.  bundles[0] must
    be a cubham bundle holding a simple graph R, and the chain, or a prefix
    of it, must equal bundle_chain_for(R) bundle by bundle.
    """
    if not bundles:
        raise ValueError("empty bundle chain")
    for b in bundles:
        parse_bundle(serialize_bundle(b))
    for prev, cur in zip(bundles, bundles[1:]):
        steps = cur["provenance"]
        if not steps:
            raise ValueError(f"{cur['kind']} bundle has no provenance")
        digest = payload_digest(prev["payload"])
        if steps[-1].get("source") != digest:
            raise ValueError(f"{cur['kind']} bundle does not cite its upstream payload")
    head = bundles[0]
    text = head["payload"].get("graph") if isinstance(head["payload"], dict) else None
    if head["kind"] != "cubham" or not isinstance(text, str):
        raise ValueError("the chain must start with a cubham bundle holding a graph")
    R = parse_graph(text)
    if not isinstance(R, SimpleGraph):
        raise ValueError("the cubham bundle holds a multigraph, not a simple graph")
    rebuilt = bundle_chain_for(R)
    if len(bundles) > len(rebuilt):
        raise ValueError(f"the chain has {len(bundles)} bundles, more than {len(rebuilt)}")
    for b, want in zip(bundles, rebuilt):
        if serialize_bundle(b) == serialize_bundle(want):
            continue
        kind = want["kind"]
        if b["kind"] != kind:
            raise ValueError(f"a {b['kind']} bundle stands where the chain has its {kind} bundle")
        if payload_digest(b["payload"]) != payload_digest(want["payload"]):
            raise ValueError(f"{kind} payload does not replay from the cubic graph")
        for got, step in zip(b["provenance"], want["provenance"]):
            for key in sorted(got.keys() | step.keys()):
                if got.get(key) != step.get(key):
                    raise ValueError(f"{kind} bundle: recorded {key} does not replay")
        raise ValueError(f"{kind} provenance does not replay from the cubic graph")
