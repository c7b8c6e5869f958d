"""Command-line surface: transforms, solvers, verifiers, and the pipeline.

Exit codes carry the decision: 0 YES, 1 NO, 2 UNKNOWN or budget exhausted,
64 usage errors, 65 validation errors, 71 worker processes that cannot be
started or that exit during a scan, 73 output that cannot be written,
stdout included.  _EXIT is the one map from a status to its code, and a
budget that runs out anywhere in a command gives UNKNOWN.  Artifacts go to
stdout (or the -o target); human diagnostics go to stderr through _note, so
redirected output stays clean and re-parseable, and a stderr that cannot be
written changes no exit code.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cache

from .errors import ResourceLimitError, WorkerError
from .euler import find_euler_tour, induced_word, is_soet, iso_soet_decide, tour_from_word
from .formats import (
    _rows,
    bundle_chain_for,
    parse_graph,
    parse_subset,
    parse_tour,
    parse_witness,
    parse_word,
    serialize_bundle,
    serialize_graph,
    serialize_soet_cert,
    serialize_subset,
    serialize_tour,
    serialize_witness,
    serialize_word,
)
from .graphs import MultiGraph, SimpleGraph
from .lc import DEFAULT_NODE_CAP, lc_orbit
from .reduction import build_soet_from_ham, k3_expand, reduce_starvm_to_isovm
from .solvers import (
    hamiltonian_decide,
    iso_vm_decide,
    star_vm_decide,
    verify_vm_witness,
)
from .words import alternance_graph


class _UsageError(Exception):
    pass


class _WriteError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)

    def parse_args(self, args=None, namespace=None):
        ns = super().parse_args(args, namespace)
        # some argparse versions hand a positional an empty list when its
        # value after "--" is itself "--"
        for name, value in vars(ns).items():
            if isinstance(value, list):
                raise _UsageError(f"argument {name}: expected one argument")
        return ns


def _read(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise ValueError(f"cannot read {path}: {e.strerror}") from None
    except UnicodeDecodeError:
        raise ValueError(f"cannot read {path}: not UTF-8 text") from None


def _write(path, text):
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as e:
        raise _WriteError(f"cannot write {path}: {e.strerror}") from None


def _stdout(text):
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError as e:
        raise _WriteError(f"cannot write stdout: {e.strerror}") from None


def _note(text):
    """A diagnostic line on stderr; one that cannot be written is dropped."""
    try:
        print(text, file=sys.stderr)
    except OSError:
        pass


def _graph(path, cls):
    G = parse_graph(_read(path))
    if not isinstance(G, cls):
        kind = "a multigraph" if cls is MultiGraph else "a simple graph"
        raise ValueError(f"{path} must hold {kind}")
    return G


def _budget(args):
    if args.budget is not None:
        return args.budget
    env = os.environ.get("VMKIT_BUDGET")
    if env:
        try:
            budget = int(env)
        except ValueError:
            raise ValueError(f"VMKIT_BUDGET must be a number, got {env!r}") from None
        if budget < 0:
            raise ValueError(f"VMKIT_BUDGET must not be negative, got {env!r}")
        return budget
    return None


def _check_solver_args(args):
    """Range checks argparse cannot express, made before any decider runs."""
    if getattr(args, "limit", 1) < 1:
        raise _UsageError(f"argument --limit: must be positive, got {args.limit}")
    if not hasattr(args, "workers"):
        return
    affinity = getattr(os, "sched_getaffinity", None)  # the CPUs this process may use
    cpus = len(affinity(0)) if affinity else os.cpu_count() or 1
    if not 1 <= args.workers <= cpus:
        raise _UsageError(
            f"argument --workers: must be between 1 and {cpus}, got {args.workers}"
        )
    if args.budget is not None and args.budget < 0:
        raise _UsageError(f"argument --budget: must not be negative, got {args.budget}")


_EXIT = {"yes": 0, "no": 1, "unknown": 2}


def _emit(args, artifact, status, detail="", extras=None):
    """Write the artifact (text mode) or a status object (json mode), and
    return the status's exit code."""
    if args.format == "json":
        obj = {"status": status, "detail": detail}
        if artifact is not None:
            obj["artifact"] = artifact
        if extras:
            obj.update(extras)
        blob = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    else:
        blob = artifact if artifact is not None else ""
    if args.out:
        _write(args.out, blob)
        _note(f"wrote {args.out}")
    elif blob:
        _stdout(blob)
    if detail:
        _note(detail)
    return _EXIT[status]


def _report(args, dec, yes):
    """Emit a Decision; on YES, yes(witness) gives (artifact, JSON extras)."""
    artifact, extras = yes(dec.witness) if dec.is_yes else (None, None)
    return _emit(args, artifact, dec.status, dec.detail, extras)


def _vm_witness(witness, **extras):
    subset, w = witness
    return serialize_witness(w), dict(extras, subset=serialize_subset(subset))


def cmd_expand(args):
    R = _graph(args.graph, SimpleGraph)
    F = k3_expand(R)
    return _emit(args, serialize_graph(F), "yes", f"k = {2 * len(R.vertices)}")


def cmd_euler(args):
    F = _graph(args.multigraph, MultiGraph)
    U = find_euler_tour(F)
    return _emit(args, serialize_tour(U), "yes",
                 "word: " + serialize_word(induced_word(U)).strip())


def cmd_alternance(args):
    w = parse_word(_read(args.word))
    return _emit(args, serialize_graph(alternance_graph(w)), "yes")


def cmd_soet_solve(args):
    F = _graph(args.multigraph, MultiGraph)
    found = iso_soet_decide(F, args.k, budget=_budget(args), workers=args.workers)
    if found is None:
        return _emit(args, None, "no", "no subset admits a semi-ordered tour")
    subset, cert = found
    return _emit(args, serialize_soet_cert(cert), "yes",
                 "visit word: " + " ".join(cert.visit_word),
                 extras={"subset": serialize_subset(subset)})


def _sniff_tour(text, F):
    """Accept a tour file, a bare word file, or a solve certificate."""
    rows = _rows(text)
    if not rows:
        raise ValueError("empty tour file")
    no, first = rows[0]
    if first == "tour":
        return parse_tour(text, F), None
    if first.split()[0] == "subset":
        parts = first.split(None, 1)
        if len(parts) != 2:
            raise ValueError("the subset line of a certificate names the vertices")
        subset = parse_subset(parts[1], F.vertices)
        # blank lines in place of the first `no` keep the file's line numbers
        body = "\n" * no + "\n".join(text.splitlines()[no:])
        return parse_tour(body, F), subset
    return tour_from_word(F, parse_word(text)), None


def cmd_soet_verify(args):
    F = _graph(args.multigraph, MultiGraph)
    U, embedded = _sniff_tour(_read(args.tourfile), F)
    Vp = parse_subset(args.subset, F.vertices)
    if embedded is not None and embedded != Vp:
        raise ValueError(
            f"the certificate names V' = {serialize_subset(embedded)}, "
            f"the command line says {serialize_subset(Vp)}"
        )
    s = is_soet(U, Vp)
    if s is None:
        return _emit(args, None, "no", "the tour is not semi-ordered over that subset")
    return _emit(args, None, "yes", "visit word: " + " ".join(s))


def cmd_vm_solve(args):
    G = _graph(args.graph, SimpleGraph)
    H = _graph(args.target, SimpleGraph)
    dec = iso_vm_decide(G, H, budget=_budget(args), workers=args.workers,
                        orbit_cap=args.limit)
    return _report(args, dec, _vm_witness)


def cmd_vm_solve_star(args):
    G = _graph(args.graph, SimpleGraph)
    dec = star_vm_decide(G, args.k, budget=_budget(args), workers=args.workers)
    target = serialize_graph(reduce_starvm_to_isovm(G, args.k)[1])
    if args.target:
        _write(args.target, target)
        _note(f"wrote {args.target}")
    return _report(args, dec, lambda witness: _vm_witness(witness, target=target))


def cmd_vm_verify(args):
    G = _graph(args.graph, SimpleGraph)
    H = _graph(args.target, SimpleGraph)
    w = parse_witness(_read(args.witness))
    if verify_vm_witness(G, H, w):
        return _emit(args, None, "yes", "witness verified")
    return _emit(args, None, "no", "witness does not prove the claim")


def cmd_ham(args):
    R = _graph(args.graph, SimpleGraph)
    return _report(args, hamiltonian_decide(R), lambda cycle: (" ".join(cycle) + "\n", None))


def cmd_orbit(args):
    G = _graph(args.graph, SimpleGraph)
    orbit = lc_orbit(G, args.limit)
    lines = [f"orbit {len(orbit)}"]
    rows = sorted(
        (" ".join(f"{u}-{v}" for u, v in M.sorted_edges()) or "-") for M in orbit
    )
    lines.extend(rows)
    return _emit(args, "\n".join(lines) + "\n", "yes", f"{len(orbit)} graphs")


def cmd_pipeline(args):
    R = _graph(args.graph, SimpleGraph)
    dec = hamiltonian_decide(R)
    chain = bundle_chain_for(R)
    outdir = args.out or "pipeline_out"
    try:
        os.makedirs(outdir, exist_ok=True)
    except OSError as e:
        raise _WriteError(f"cannot write {outdir}: {e.strerror}") from None
    names = ("01_cubham.json", "02_isosoet.json", "03_starvm.json", "04_isovm.json")
    files = {name: serialize_bundle(b) for name, b in zip(names, chain)}
    files["expected.txt"] = dec.status + "\n"
    if dec.is_yes:
        cycle = dec.witness
        files["ham_cycle.txt"] = " ".join(cycle) + "\n"
        files["soet_cert.txt"] = serialize_soet_cert(build_soet_from_ham(R, cycle))
    written = [os.path.join(outdir, name) for name in files]
    for path, text in zip(written, files.values()):
        _write(path, text)
    if args.format == "json":
        obj = {"status": dec.status, "files": written}
        _stdout(json.dumps(obj, sort_keys=True, indent=2) + "\n")
    else:
        _stdout("".join(f"wrote {path}\n" for path in written) + f"expected: {dec.status}\n")
    return _EXIT[dec.status]


def _add_common(sub, solver=False):
    sub.add_argument("-o", "--out", help="write the artifact here instead of stdout")
    sub.add_argument("--format", choices=("text", "json"), default="text")
    if solver:
        sub.add_argument("--budget", type=int, default=None,
                         help="search step cap (default: VMKIT_BUDGET)")
        sub.add_argument("--workers", type=int, default=1)


@cache  # one parser per process: building it costs far more than a parse
def build_parser():
    p = _Parser(prog="vmkit", description="vertex-minor toolkit")
    sp = p.add_subparsers(dest="cmd", required=True)

    def command(name, run, help):
        s = sp.add_parser(name, help=help)
        s.set_defaults(run=run)
        return s

    s = command("expand", cmd_expand, "cubic graph to its triangle expansion")
    s.add_argument("graph")
    _add_common(s)

    s = command("euler", cmd_euler, "Eulerian tour and word of a multigraph")
    s.add_argument("multigraph")
    _add_common(s)

    s = command("alternance", cmd_alternance, "alternance graph of a word")
    s.add_argument("word")
    _add_common(s)

    s = command("soet-solve", cmd_soet_solve, "find a subset admitting a semi-ordered tour")
    s.add_argument("multigraph")
    s.add_argument("k", type=int)
    _add_common(s, solver=True)

    s = command("soet-verify", cmd_soet_verify, "check a tour, word or certificate file")
    s.add_argument("multigraph")
    s.add_argument("tourfile")
    s.add_argument("subset")
    _add_common(s)

    s = command("vm-solve", cmd_vm_solve, "vertex-minor isomorphic to a target")
    s.add_argument("graph")
    s.add_argument("target")
    s.add_argument("--limit", type=int, default=DEFAULT_NODE_CAP, help="orbit state cap")
    _add_common(s, solver=True)

    s = command("vm-solve-star", cmd_vm_solve_star, "star vertex-minor on k vertices")
    s.add_argument("graph")
    s.add_argument("k", type=int)
    s.add_argument("--target", help="also write the target star graph here")
    _add_common(s, solver=True)

    s = command("vm-verify", cmd_vm_verify, "replay a witness against graph and target")
    s.add_argument("graph")
    s.add_argument("target")
    s.add_argument("witness")
    _add_common(s)

    s = command("ham", cmd_ham, "exact Hamiltonicity of a cubic graph")
    s.add_argument("graph")
    _add_common(s)

    s = command("orbit", cmd_orbit, "local complementation orbit of a graph")
    s.add_argument("graph")
    s.add_argument("--limit", type=int, default=DEFAULT_NODE_CAP, help="orbit state cap")
    _add_common(s)

    s = command("pipeline", cmd_pipeline, "full reduction chain with bundles and certs")
    s.add_argument("graph")
    _add_common(s)

    return p


def run_command(argv) -> int:
    try:
        args = build_parser().parse_args(argv)
        _check_solver_args(args)
        try:
            return args.run(args)
        except ResourceLimitError as e:  # inside the outer try, so a failed write exits 73
            return _emit(args, None, "unknown", str(e))
    except _UsageError as e:
        _note(f"usage error: {e}")
        return 64
    except ValueError as e:
        _note(f"error: {e}")
        return 65
    except WorkerError as e:
        _note(f"error: {e.strerror}")
        return 71
    except _WriteError as e:
        _note(f"error: {e}")
        return 73


def main():
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
