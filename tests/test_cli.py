"""End-to-end command tests through run_command, exit codes included."""

import errno
import json
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr
from io import StringIO

import pytest
from hypothesis import example, given, settings, strategies as st

import vmkit
from vmkit import (
    Dow,
    SimpleGraph,
    alternance_graph,
    multigraph_from_word,
    canonical_tour,
    find_euler_tour,
    induced_word,
    k3_expand,
    parse_bundle,
    parse_graph,
    parse_subset,
    parse_tour,
    parse_witness,
    parse_word,
    serialize_graph,
    serialize_tour,
    verify_bundle_chain,
)
from vmkit.cli import run_command

from corpus_helpers import (bridged, complete_graph, worked_graph, path_graph, petersen, prism,
                            wheel5)

X0 = "abcdaebced"


@pytest.fixture
def files(tmp_path):
    def put(name, text):
        p = tmp_path / name
        p.write_text(text)
        return str(p)

    return put


@pytest.fixture
def worked_file(files):
    return files("worked_graph.graph", serialize_graph(worked_graph()))


@pytest.fixture
def w5_file(files):
    # not a circle graph, so its star step scans by elimination
    return files("w5.graph", serialize_graph(wheel5()))


@pytest.fixture
def f0_file(files):
    return files("f0.graph", serialize_graph(multigraph_from_word(Dow(X0))))


def test_expand(files, tmp_path):
    g = files("k4.graph", serialize_graph(complete_graph("abcd")))
    out = str(tmp_path / "f.graph")
    assert run_command(["expand", g, "-o", out]) == 0
    F = parse_graph(open(out).read())
    assert len(F.vertices) == 12 and len(F.edges) == 24


def test_euler_and_alternance(files, f0_file, capsys):
    assert run_command(["euler", f0_file]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "tour"
    w = files("x.word", "adcbaebced\n")
    assert run_command(["alternance", w]) == 0
    assert capsys.readouterr().out == "simple 5\nab\nac\nad\nbe\nce\n"


def test_soet_verify_word_yes_and_no(files, f0_file, capsys):
    word = files("x0.word", X0 + "\n")
    assert run_command(["soet-verify", f0_file, word, "abcd"]) == 0
    assert "visit word" in capsys.readouterr().err
    other = files(
        "f1.graph", serialize_graph(multigraph_from_word(Dow("adcbaebced")))
    )
    bad = files("x1.word", "adcbaebced\n")
    assert run_command(["soet-verify", other, bad, "abcd"]) == 1


def test_soet_solve_roundtrip(files, f0_file, tmp_path, capsys):
    cert = str(tmp_path / "cert.txt")
    assert run_command(["soet-solve", f0_file, "4", "-o", cert]) == 0
    text = open(cert).read()
    first = text.splitlines()[0]
    assert first == "subset a,b,c,d"
    assert run_command(["soet-verify", f0_file, cert, "a,b,c,d"]) == 0
    # certificate subset and command line subset must agree
    assert run_command(["soet-verify", f0_file, cert, "abce"]) == 65
    # comment lines may lead a certificate or a bare tour, as in a tour file
    commented = files("commented.txt", "# solved by soet-solve\n\n" + text)
    assert run_command(["soet-verify", f0_file, commented, "a,b,c,d"]) == 0
    tour = files("tour.txt", "# the tour alone\n" + text.split("\n", 1)[1])
    assert run_command(["soet-verify", f0_file, tour, "a,b,c,d"]) == 0
    # a file of comments alone, or a subset line without vertices, is refused
    capsys.readouterr()
    for bad, msg in (("# no tour\n", "empty tour file"),
                     ("subset\n" + text.split("\n", 1)[1], "names the vertices")):
        assert run_command(["soet-verify", f0_file, files("bad.txt", bad), "a,b,c,d"]) == 65
        assert msg in capsys.readouterr().err
    # a fault in the certificate's tour is reported on the file's own line
    lines = text.splitlines()
    assert lines[1] == "tour" and lines[9].isdigit()
    capsys.readouterr()
    for at, fault, msg in ((9, "x", "edge id 'x'"), (1, "walk", 'expected the header "tour"')):
        wrong = lines[:at] + [fault] + lines[at + 1:]
        for lead in ("", "# one\n# two\n"):
            bad = files("bad.txt", lead + "\n".join(wrong) + "\n")
            assert run_command(["soet-verify", f0_file, bad, "a,b,c,d"]) == 65
            no = at + 1 + lead.count("\n")
            assert f"line {no}, column 1: {msg}" in capsys.readouterr().err
    assert run_command(["soet-solve", f0_file, "5"]) == 1
    capsys.readouterr()


def test_vm_solve_star_worked_example(worked_file, tmp_path, capsys):
    assert run_command(["vm-solve-star", worked_file, "5"]) == 1
    capsys.readouterr()
    target = str(tmp_path / "star.graph")
    assert run_command(["vm-solve-star", worked_file, "4", "--target", target]) == 0
    out = capsys.readouterr().out
    assert out == "DEL e\nISO a=h0 b=h1 c=h2 d=h3\n"
    H = parse_graph(open(target).read())
    assert sorted(H.vertices) == ["h0", "h1", "h2", "h3"]


def test_vm_solve_and_verify(files, worked_file, tmp_path, capsys):
    k3 = files("k3.graph", "simple 3\nxy\nxz\nyz\n")
    wit = str(tmp_path / "w.txt")
    assert run_command(["vm-solve", worked_file, k3, "-o", wit]) == 0
    assert run_command(["vm-verify", worked_file, k3, wit]) == 0
    capsys.readouterr()
    # a witness replayed against the wrong target fails, exit 1
    p3 = files("p3.graph", serialize_graph(path_graph("xyz")))
    assert run_command(["vm-verify", worked_file, p3, wit]) == 1
    # an orbit of H larger than --limit leaves the question open, exit 2
    assert run_command(["vm-solve", worked_file, p3, "--limit", "1"]) == 2
    assert "orbit of H overflowed" in capsys.readouterr().err
    empty = files("e2.graph", "simple 2\nvertices a b\n")
    k2 = files("k2.graph", "simple 2\nxy\n")
    assert run_command(["vm-solve", empty, k2]) == 1
    # H larger than G is a validation error
    assert run_command(["vm-solve", k3, worked_file]) == 65
    capsys.readouterr()


def test_ham(files, tmp_path, capsys):
    k4 = files("k4.graph", serialize_graph(complete_graph("abcd")))
    assert run_command(["ham", k4]) == 0
    assert capsys.readouterr().out == "a b c d\n"
    pet = files("pet.graph", serialize_graph(petersen()))
    assert run_command(["ham", pet]) == 1
    # the graph with no vertices is not a connected cubic graph
    empty = files("empty.graph", "simple 0\n")
    for argv in (["ham", empty], ["pipeline", empty, "-o", str(tmp_path / "out")]):
        assert run_command(argv) == 65
        assert "the cubic graph must be connected" in capsys.readouterr().err


def test_orbit(worked_file, capsys):
    assert run_command(["orbit", worked_file]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "orbit 30"
    assert run_command(["orbit", worked_file, "--limit", "3"]) == 2
    capsys.readouterr()


def test_budget_flag_and_env(worked_file, f0_file, monkeypatch, capsys):
    # the SOET search always walks, so budget 0 leaves it open; the scan
    # ends at the first subset, and the detail names it
    assert run_command(["soet-solve", f0_file, "4", "--budget", "0"]) == 2
    assert capsys.readouterr() == ("", "subset {a b c d} exhausted the budget\n")
    assert run_command(["vm-solve-star", worked_file, "4", "--budget", "0",
                        "--format", "json"]) == 2
    assert json.loads(capsys.readouterr().out) == {
        "status": "unknown", "detail": "subset {a b c d} exhausted the budget"}
    assert run_command(["vm-solve-star", worked_file, "4", "--budget", "0"]) == 2
    monkeypatch.setenv("VMKIT_BUDGET", "0")
    assert run_command(["vm-solve-star", worked_file, "4"]) == 2
    monkeypatch.setenv("VMKIT_BUDGET", "many")
    assert run_command(["vm-solve-star", worked_file, "4"]) == 65
    monkeypatch.delenv("VMKIT_BUDGET")
    assert run_command(["vm-solve-star", worked_file, "4"]) == 0
    capsys.readouterr()


def test_workers_and_budget_ranges(worked_file, f0_file, monkeypatch, capsys):
    # rejected before any decider runs, so no worker is ever forked
    for n in (0, -1, (os.cpu_count() or 1) + 1):
        assert run_command(["vm-solve-star", worked_file, "4", "--workers", str(n)]) == 64
        assert run_command(["soet-solve", f0_file, "4", "--workers", str(n)]) == 64
        assert "argument --workers: must be between 1 and" in capsys.readouterr().err
    assert run_command(["vm-solve", worked_file, worked_file, "--budget", "-1"]) == 64
    assert "argument --budget: must not be negative" in capsys.readouterr().err
    for n in (0, -1):
        assert run_command(["orbit", worked_file, "--limit", str(n)]) == 64
        assert run_command(["vm-solve", worked_file, worked_file, "--limit", str(n)]) == 64
        assert capsys.readouterr().err.count("argument --limit: must be positive") == 2
    monkeypatch.setenv("VMKIT_BUDGET", "-1")
    assert run_command(["vm-solve-star", worked_file, "4"]) == 65
    assert "VMKIT_BUDGET must not be negative" in capsys.readouterr().err


def test_large_cubic_graph_is_decided(files, tmp_path):
    # a 600-cycle times K2: its Hamiltonian cycle search goes 1,200 vertices
    # deep, past the default recursion limit
    n = 600
    rims = [(f"{s}{i:03d}", f"{s}{(i + 1) % n:03d}") for s in "ab" for i in range(n)]
    spokes = [(f"a{i:03d}", f"b{i:03d}") for i in range(n)]
    prism = SimpleGraph({u for u, _ in rims}, rims + spokes)
    path = files("prism1200.graph", serialize_graph(prism))
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(vmkit.__file__)))
    least = [f"a{i:03d}" for i in range(n)] + [f"b{i:03d}" for i in reversed(range(n))]
    out = tmp_path / "out"
    for argv in (["ham", path], ["pipeline", path, "-o", str(out)]):
        proc = subprocess.run([sys.executable, "-m", "vmkit.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        if argv[0] == "ham":
            assert proc.stdout == " ".join(least) + "\n"
    assert (out / "ham_cycle.txt").read_text() == " ".join(least) + "\n"


def test_usage_and_validation_errors(files, worked_file, f0_file, capsys):
    assert run_command(["no-such-command"]) == 64
    assert run_command(["soet-solve", f0_file]) == 64
    assert run_command(["euler", worked_file]) == 65
    assert run_command(["expand", f0_file]) == 65
    assert run_command(["ham", os.devnull + ".missing"]) == 65
    err = capsys.readouterr().err
    assert "usage error" in err and "error:" in err


def test_double_dash_positional_is_a_usage_error(files, f0_file):
    # some argparse versions hand a positional "--" given after "--" as []
    tour = files("f0.tour", SEEDS["tour"][0])
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(vmkit.__file__)))
    for argv, name in ((["soet-verify", f0_file, tour, "--", "--"], "subset"),
                       (["soet-solve", f0_file, "--", "--"], "k")):
        proc = subprocess.run([sys.executable, "-m", "vmkit.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 64, proc.stderr
        assert proc.stderr == f"usage error: argument {name}: expected one argument\n"


def test_non_utf8_input_names_the_file(files, capsys):
    bad = files("latin1.graph", "")
    with open(bad, "wb") as fh:
        fh.write(b"simple 2\nab\n\xff\n")
    assert run_command(["ham", bad]) == 65
    assert capsys.readouterr().err == f"error: cannot read {bad}: not UTF-8 text\n"


def test_output_files_are_utf8_under_an_ascii_locale(tmp_path):
    # files are read as UTF-8 whatever the locale, so they are written so too
    K4 = complete_graph(["αβ", "γ", "δ", "ε"])
    src = tmp_path / "k4.graph"
    src.write_text(serialize_graph(K4), encoding="utf-8")
    out = tmp_path / "f.graph"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(vmkit.__file__)),
               LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0")
    proc = subprocess.run([sys.executable, "-m", "vmkit.cli", "expand", str(src),
                           "-o", str(out)], env=env, capture_output=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert parse_graph(out.read_text(encoding="utf-8")) == k3_expand(K4)


def test_write_failures(files, worked_file, f0_file, tmp_path, monkeypatch, capsys):
    k4 = files("k4.graph", serialize_graph(complete_graph("abcd")))
    bad = os.path.join(files("plain_file", ""), "x")  # a file's child
    assert run_command(["expand", k4, "-o", bad]) == 73
    assert run_command(["vm-solve-star", worked_file, "4", "--target", bad]) == 73
    assert run_command(["pipeline", k4, "-o", bad]) == 73
    # an UNKNOWN that cannot be written is a write failure too
    assert run_command(["soet-solve", f0_file, "4", "--budget", "0", "-o", bad]) == 73
    assert run_command(["orbit", worked_file, "--limit", "3", "-o", bad]) == 73
    err = capsys.readouterr().err
    assert err.count(f"error: cannot write {bad}: ") == 5

    class Full:
        def write(self, text):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(sys, "stdout", Full())
    for argv in (["expand", k4], ["orbit", k4], ["ham", k4, "--format", "json"],
                 ["pipeline", k4, "-o", str(tmp_path / "out")]):
        assert run_command(argv) == 73, argv
        err = capsys.readouterr().err
        assert err == f"error: cannot write stdout: {os.strerror(errno.ENOSPC)}\n", argv

    # a diagnostic that cannot be written leaves the outcome's exit code
    monkeypatch.setattr(sys, "stderr", Full())
    out = tmp_path / "f.graph"
    assert run_command(["expand", k4, "-o", str(out)]) == 0
    assert parse_graph(out.read_text()) == k3_expand(complete_graph("abcd"))
    assert run_command(["ham", os.devnull + ".missing"]) == 65


def test_worker_fork_failure(worked_file, w5_file, f0_file, files, monkeypatch, capsys):
    def no_fork(*args, **kwargs):
        raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))

    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(os, "fork", no_fork)
    k3 = files("k3.graph", serialize_graph(complete_graph("xyz")))
    for argv in (["vm-solve", worked_file, k3], ["vm-solve-star", w5_file, "4"],
                 ["soet-solve", f0_file, "3"]):
        assert run_command(argv + ["--workers", "2"]) == 71
        err = capsys.readouterr().err
        assert err == f"error: cannot start 2 workers: {os.strerror(errno.EAGAIN)}\n"


def test_vm_solve_needs_no_worker_for_a_target_that_is_not_a_circle_graph(
        files, w5_file, monkeypatch, capsys):
    # a circle graph's vertex-minors are circle graphs and W5 is not one, so
    # the NO needs no fork and no budget
    def no_fork(*args, **kwargs):
        raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))

    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(os, "fork", no_fork)
    G = alternance_graph(induced_word(find_euler_tour(k3_expand(complete_graph("abcd")))))
    g = files("k4_circle.graph", serialize_graph(G))
    assert run_command(["vm-solve", g, w5_file, "--workers", "2", "--budget", "0"]) == 1
    assert capsys.readouterr() == ("", "G is a circle graph and H is not, and circle "
                                   "graphs are closed under vertex-minors\n")


def test_worker_exit_is_exit_71(w5_file):
    # in a child interpreter with a timeout, so that a scan that waits for
    # the dead worker fails here instead of hanging the suite
    script = (
        "import os, sys\n"
        "from vmkit import solvers\n"
        "from vmkit.cli import run_command\n"
        "parent = os.getpid()\n"
        "def exits(*args):\n"
        "    if os.getpid() != parent:\n"
        "        os._exit(3)\n"
        "solvers._iso_task = exits\n"
        "os.cpu_count = lambda: 2\n"
        "sys.exit(run_command(sys.argv[1:]))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(vmkit.__file__)))
    proc = subprocess.run([sys.executable, "-c", script, "vm-solve-star", w5_file, "4",
                           "--workers", "2"], env=env, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 71, proc.stderr
    assert proc.stderr == "error: worker process exited with code 3\n"


def test_json_format(worked_file, f0_file, files, tmp_path, capsys):
    code = run_command(["vm-solve-star", worked_file, "4", "--format", "json"])
    assert code == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["status"] == "yes"
    assert obj["artifact"] == "DEL e\nISO a=h0 b=h1 c=h2 d=h3\n"
    assert obj["subset"] == "a,b,c,d"

    # a YES object adds its artifact and the command's fields; NO and
    # UNKNOWN hold only the status and the detail
    k4 = files("k4.graph", serialize_graph(complete_graph("abcd")))
    pet = files("petersen.graph", serialize_graph(petersen()))
    k3 = files("k3.graph", serialize_graph(complete_graph("xyz")))
    k2 = files("k2.graph", serialize_graph(complete_graph("xy")))
    edgeless = files("e3.graph", "simple 3\nvertices a b c\n")
    target = str(tmp_path / "star.graph")
    star = ["--target", target]
    prism_x = files("prism_x.graph", serialize_graph(k3_expand(prism())))
    word = files("x0.word", X0 + "\n")
    f1 = files("f1.graph", serialize_graph(multigraph_from_word(Dow("adcbaebced"))))
    word1 = files("x1.word", "adcbaebced\n")
    p3 = files("p3.graph", serialize_graph(path_graph("xyz")))
    wit = str(tmp_path / "w.txt")
    assert run_command(["vm-solve", worked_file, k3, "-o", wit]) == 0
    capsys.readouterr()
    runs = [
        (["ham", k4], 0, {"artifact"}),
        (["ham", pet], 1, set()),
        (["vm-solve", worked_file, k3], 0, {"artifact", "subset"}),
        (["vm-solve", edgeless, k2], 1, set()),
        (["vm-solve", worked_file, k3, "--budget", "0"], 2, set()),
        (["vm-solve-star", worked_file, "4"] + star, 0, {"artifact", "subset", "target"}),
        (["vm-solve-star", edgeless, "2"] + star, 1, set()),
        (["vm-solve-star", worked_file, "4", "--budget", "0"] + star, 2, set()),
        (["soet-solve", f0_file, "4"], 0, {"artifact", "subset"}),
        (["soet-solve", prism_x, "13"], 1, set()),
        (["soet-solve", f0_file, "4", "--budget", "0"], 2, set()),
        (["soet-verify", f0_file, word, "abcd"], 0, set()),
        (["soet-verify", f1, word1, "abcd"], 1, set()),
        (["vm-verify", worked_file, k3, wit], 0, set()),
        (["vm-verify", worked_file, p3, wit], 1, set()),
        (["orbit", worked_file], 0, {"artifact"}),
        (["orbit", worked_file, "--limit", "3"], 2, set()),
        (["expand", k4], 0, {"artifact"}),
        (["euler", f0_file], 0, {"artifact"}),
        (["alternance", word], 0, {"artifact"}),
    ]
    for argv, want, fields in runs:
        assert run_command(argv + ["--format", "json"]) == want, argv
        obj = json.loads(capsys.readouterr().out)
        assert obj["status"] == ("yes", "no", "unknown")[want]
        assert set(obj) == {"status", "detail"} | fields, argv
        if "target" in obj:
            with open(target) as fh:
                assert obj["target"] == fh.read()


def test_deterministic_stdout_is_stable(f0_file, capsys):
    assert run_command(["soet-solve", f0_file, "4"]) == 0
    first = capsys.readouterr().out
    assert run_command(["soet-solve", f0_file, "4"]) == 0
    assert capsys.readouterr().out == first


def test_soet_solve_prints_the_least_soet_class(f0_file, capsys):
    # the one SOET mode prints the least class; there is no flag to ask for it
    assert run_command(["soet-solve", f0_file, "4"]) == 0
    assert capsys.readouterr().out == (
        "subset a,b,c,d\ntour\n"
        "a\n0\nb\n1\nc\n2\nd\n3\na\n4\ne\n5\nb\n6\nc\n7\ne\n8\nd\n9\n"
    )
    assert run_command(["soet-solve", f0_file, "4", "--deterministic"]) == 64
    assert "--deterministic" in capsys.readouterr().err


def test_pipeline_yes(files, tmp_path, capsys):
    k4 = files("k4.graph", serialize_graph(complete_graph("abcd")))
    outdir = str(tmp_path / "chain")
    assert run_command(["pipeline", k4, "-o", outdir]) == 0
    capsys.readouterr()
    names = sorted(os.listdir(outdir))
    assert names == [
        "01_cubham.json",
        "02_isosoet.json",
        "03_starvm.json",
        "04_isovm.json",
        "expected.txt",
        "ham_cycle.txt",
        "soet_cert.txt",
    ]
    chain = [
        parse_bundle(open(os.path.join(outdir, n)).read()) for n in names[:4]
    ]
    verify_bundle_chain(chain)
    assert open(os.path.join(outdir, "expected.txt")).read() == "yes\n"
    f_file = files("exp.graph", chain[1]["payload"]["multigraph"])
    cert = os.path.join(outdir, "soet_cert.txt")
    subset = open(cert).read().splitlines()[0].split(None, 1)[1]
    assert run_command(["soet-verify", f_file, cert, subset]) == 0
    capsys.readouterr()


def test_pipeline_no(files, tmp_path, capsys):
    for name, R in (("pet", petersen()), ("bridged", bridged())):
        graph = files(f"{name}.graph", serialize_graph(R))
        outdir = str(tmp_path / name)
        assert run_command(["pipeline", graph, "-o", outdir, "--format", "json"]) == 1
        obj = json.loads(capsys.readouterr().out)
        assert obj["status"] == "no"
        assert len(obj["files"]) == 5
        assert not os.path.exists(os.path.join(outdir, "ham_cycle.txt"))
        verify_bundle_chain([parse_bundle(open(path).read()) for path in obj["files"][:4]])


# Mutated inputs: valid texts of each format with a few characters inserted,
# deleted or replaced.  "\r" is left out because reading a file in text mode
# turns it into "\n", so the CLI would see another text than the parser.
F0 = multigraph_from_word(Dow(X0))
MUTATION_CHARS = "abcdeLCDISOtour=,:# -0129\n\t\x00\xe9"
SEEDS = {
    "graph": ["simple 5\nab\nac\nad\nbe\nce\n", serialize_graph(F0),
              "simple 3\nvertices left right spare\nleft right\n"],
    "word": ["a b c d a e b c e d\n", X0],
    "tour": [serialize_tour(canonical_tour(find_euler_tour(F0)))],
    "subset": ["a,b,c", "abce", "a b"],
    "witness": ["LC a\nDEL e\nLC a\nISO a=a b=b c=c d=d\n"],
}
PARSERS = {
    "graph": parse_graph,
    "word": parse_word,
    "tour": lambda text: parse_tour(text, F0),
    "subset": lambda text: parse_subset(text, F0.vertices),
    "witness": parse_witness,
}


@st.composite
def mutated(draw, seeds):
    text = draw(st.sampled_from(seeds))
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(text)))
        chunk = draw(st.text(MUTATION_CHARS, min_size=1, max_size=3))
        cut = draw(st.sampled_from((0, len(chunk))))  # insert or replace
        if draw(st.booleans()):
            text = text[:i] + chunk + text[i + cut:]
        else:
            text = text[:i] + text[i + len(chunk):]  # delete
    return text


def _cli_argv(kind, path, text, put):
    """A command that reads the mutated text through the parser of kind."""
    f0 = put("f0.graph", serialize_graph(F0))
    if kind == "graph":
        return ["ham", path]
    if kind == "word":
        return ["alternance", path]
    if kind == "tour":
        # soet-verify reads a file whose first line is not "tour" as a word
        first = next((ln.strip() for ln in text.splitlines() if ln.strip()), None)
        return ["soet-verify", f0, path, "abce"] if first == "tour" else None
    if kind == "subset":
        # after "--" an argument that starts with "-" is not read as an
        # option; "--" itself is a usage error (exit 64), tested above
        tour = put("f0.tour", SEEDS["tour"][0])
        return None if text == "--" else ["soet-verify", f0, tour, "--", text]
    worked = put("worked.graph", serialize_graph(worked_graph()))
    k4 = put("k4.graph", serialize_graph(complete_graph("abcd")))
    return ["vm-verify", worked, k4, path]


@pytest.mark.parametrize("kind", sorted(PARSERS))
def test_mutated_inputs_raise_only_value_error(kind):
    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(mutated(SEEDS[kind]))
    @example("-a,b")  # no mutated text starts with "-"
    def check(text):
        try:
            PARSERS[kind](text)
        except ValueError:
            pass  # any other exception fails the test
        else:
            return
        with tempfile.TemporaryDirectory() as tmp:
            def put(name, body):
                path = os.path.join(tmp, name)
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(body)
                return path

            argv = _cli_argv(kind, put("input", text), text, put)
            if argv is None:
                return
            err = StringIO()
            with redirect_stderr(err):
                assert run_command(argv) == 65, (argv, err.getvalue())
            assert err.getvalue().startswith("error: "), err.getvalue()

    check()
