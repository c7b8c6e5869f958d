"""Benchmark of vmkit's reduction chain: every metric by name and unit, every
answer checked.

    python3 bench/run.py --workload chain|corpus|exhaust --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout; vmkit is imported from its src/.  Each
pass runs in a fresh process (bench/child.py), which sets the workload up
from the seed and then makes its decisions in a closed loop with one caller.

--trace 0 makes untraced passes, one after another, and reports the
end-to-end metrics.  The number of passes is fixed by --seconds and the
workload alone (PASS_S), not by how fast the host runs, so every run of a
workload uses the same estimator.  wall_s and cpu_s are fastest-of-passes:
each item (a few decisions and their check) is charged the least time it
took in any pass, so a burst of host noise in one pass drops out.  The
latency percentiles are taken over every decision of every pass.
Set-up time is the median over at least three set-ups (up to seven while
they are cheap).

--trace 1 makes one untraced pass, one traced pass (spans around the
entry points of each layer, in the parent and in pool workers) and one
counting pass (exact counters that need a trace function), and reports the
per-layer metrics.  The counters the two traced passes share must agree,
and all counters must equal those of earlier runs of the same code (kept in
.bench_work/counts/); a difference makes the run incorrect.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import subprocess
import sys
import tempfile
import time

import arith
import spans
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "bench")
WORK = os.path.join(ROOT, ".bench_work")
DEADLINE_S = 170.0  # a run must end within 180 s
MIN_SETUPS = 3  # set-ups per run, more while they are cheap:
MAX_SETUPS = 7  # up to this many, until SETUP_BUDGET_S is spent
SETUP_BUDGET_S = 1.5
# Seconds of timed work in one untraced pass of each workload, rounded, on a
# 2-CPU host at the seed; a run makes --seconds // PASS_S passes, at least one.
PASS_S = {"chain": 30.0, "corpus": 12.0, "exhaust": 25.0}

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "decide_p50_ms": "ms",
    "decide_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


class RunFailed(Exception):
    pass


# --------------------------------------------------------------------- host


def steal_jiffies():
    """Steal time of all CPUs from /proc/stat (read only), or None."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) if fields[0] == "cpu" else None
    except (OSError, IndexError, ValueError):
        return None


def calibrate_ms(reps=5):
    """Median milliseconds of a fixed pure-Python loop."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc = (acc * 31 + i) % 1_000_003
        times.append(time.perf_counter() - t0)
    return arith.median(times) * 1e3


def code_hash():
    """Digest of the Python sources of vmkit and of this benchmark."""
    h = hashlib.sha256()
    for top in ("src", "bench"):
        base = os.path.join(ROOT, top)
        paths = []
        for d, dirs, files in os.walk(base):
            dirs[:] = sorted(x for x in dirs if x != "__pycache__")
            paths += [os.path.join(d, f) for f in files if f.endswith(".py")]
        for p in sorted(paths):
            h.update(os.path.relpath(p, ROOT).encode() + b"\0")
            with open(p, "rb") as fh:
                h.update(fh.read() + b"\0")
    return h.hexdigest()[:16]


# ------------------------------------------------------------------- passes


class Runner:
    def __init__(self, workload, seed, tmp):
        self.workload = workload
        self.seed = seed
        self.tmp = tmp
        self.start = time.perf_counter()
        self.n = 0

    def elapsed(self):
        return time.perf_counter() - self.start

    def child(self, mode):
        self.n += 1
        spec = os.path.join(self.tmp, f"spec{self.n}.json")
        out = os.path.join(self.tmp, f"out{self.n}.json")
        with open(spec, "w") as fh:
            json.dump({"root": ROOT, "workload": self.workload, "seed": self.seed,
                       "mode": mode, "out": out}, fh)
        timeout = DEADLINE_S - self.elapsed()
        if timeout <= 0:
            raise RunFailed("no time left for another pass")
        # its own process group, so that killing it also ends its pool workers
        proc = subprocess.Popen([sys.executable, os.path.join(BENCH, "child.py"), spec],
                                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                start_new_session=True)
        try:
            _, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            raise RunFailed(f"a {mode} pass did not end within the run's deadline")
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.communicate()
        if proc.returncode != 0:
            raise RunFailed(f"a {mode} pass exited {proc.returncode}:\n"
                            + err.decode(errors="replace")[-3000:])
        with open(out) as fh:
            return json.load(fh)

    def setups(self, passes):
        """Set-up seconds of the passes, topped up with set-up-only runs."""
        samples = [p["setup_s"] for p in passes]
        while len(samples) < MIN_SETUPS or (
                len(samples) < MAX_SETUPS and sum(samples) < SETUP_BUDGET_S):
            samples.append(self.child("setup")["setup_s"])
        return samples


def plain_passes(runner, seconds):
    wanted = max(1, int(seconds // PASS_S[runner.workload]))
    passes = []
    while len(passes) < wanted:
        t0 = runner.elapsed()
        passes.append(runner.child("plain"))
        last = runner.elapsed() - t0
        if runner.elapsed() + 1.5 * last > DEADLINE_S - 20:
            break  # a slow host: keep the run within its deadline
    return passes, wanted


def end_to_end(passes, wanted, setups):
    """Fastest-of-passes wall and CPU times of the items, and latency
    percentiles over every decision of every pass."""
    lat = [x for p in passes for x in p["latencies_s"]]
    tail, pct, beyond = arith.tail(lat)
    values = {
        "setup_s": arith.median(setups),
        "wall_s": sum(arith.fastest([p["item_wall_s"] for p in passes])),
        "cpu_s": sum(arith.fastest([p["item_cpu_s"] for p in passes])),
        "decide_p50_ms": arith.median(lat) * 1e3,
        "decide_tail_ms": tail * 1e3,
        "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
    }
    notes = [f"passes {len(passes)} of {wanted}, set-ups {len(setups)}, pass walls "
             + ", ".join(f"{p['wall_s']:.3f}" for p in passes) + " s",
             f"decide_tail_ms is p{pct:g} of {len(lat)} decisions, {beyond} beyond it"]
    return values, notes


# ---------------------------------------------------------------- per layer


def _merged_totals(p):
    out = {n: list(t) for n, t in p["totals"].items()}
    for n, (calls, s, self_s) in p["worker_totals"].items():
        t = out.setdefault(n, [0, 0.0, 0.0])
        t[0] += calls
        t[1] += s
        t[2] += self_s
    return out


def exact_counts(p):
    """Machine-independent counters of a traced or counting pass."""
    out = {f"{n}.calls": t[0] for n, t in _merged_totals(p).items()}
    out.update(p["counts"])
    return out


def per_layer(plain, traced, counted):
    T = _merged_totals(traced)
    C = exact_counts(counted)

    def self_s(name):
        return T.get(name, [0, 0.0, 0.0])[2]

    def calls(name):
        return C.get(f"{name}.calls", 0)

    def ratio(a, b):
        return a / b if b else 0.0

    other = traced["other_s"] + traced["worker_other_s"]
    self_sum = sum(t[2] for t in T.values()) + other
    v = {}
    for name in spans.SPANS:
        v[f"{name}.s"] = (self_s(name), "s")
    v["cli.self_s"] = v.pop("cli.s")
    for name in ("euler.soet_search", "euler.quick_no", "graphs.find_isomorphism",
                 "parallel.pmap", "words.alternance_graph", "lc.local_complement",
                 "lc.orbit", "solvers.verify_vm_witness"):
        v[f"{name}.calls"] = (calls(name), "count")
    for name in ("euler.soet_search.nodes", "euler.rest_connected.calls",
                 "euler.quick_no.rejects", "solvers.elim.nodes", "solvers.elim.memo_states",
                 "graphs.find_isomorphism.hits", "parallel.pmap.pools",
                 "parallel.pmap.items", "lc.orbit.states", "graphs.SimpleGraph.builds",
                 "euler.tours.enumerations", "euler.tours.classes"):
        v[name] = (C.get(name, 0), "count")
    v["euler.quick_no.reject_ratio"] = (
        ratio(C.get("euler.quick_no.rejects", 0), calls("euler.quick_no")), "ratio")
    v["solvers.elim.runs"] = (calls("solvers.elim"), "count")
    v["solvers.elim.leaves"] = (calls("solvers.leaf"), "count")
    v["solvers.elim.accept_ratio"] = (
        ratio(C.get("solvers.elim.accepts", 0), calls("solvers.leaf")), "ratio")
    v["parallel.busy_frac"] = (ratio(traced["task_s"], traced["capacity_s"]), "ratio")
    v["parallel.worker_s"] = (traced["worker_s"], "s")
    v["parallel.worker_pids"] = (traced["worker_pids"], "count")
    v["other.s"] = (other, "s")
    v["trace.wall_s"] = (traced["wall_s"], "s")
    v["trace.self_sum_s"] = (self_sum, "s")
    v["trace.untraced_wall_s"] = (plain["wall_s"], "s")
    v["trace.overhead_s"] = (traced["wall_s"] - plain["wall_s"], "s")
    lat = plain["latencies_s"]
    _, pct, beyond = arith.tail(lat)
    v["decide.samples"] = (len(lat), "count")
    v["decide.tail_pct"] = (pct, "%")
    v["decide.tail_beyond"] = (beyond, "count")
    problems = []
    # every timeline: self times plus the uncovered rest add up to its wall
    if not arith.close(self_sum, traced["wall_s"] + traced["worker_s"], rel=1e-6):
        problems.append(f"self times plus other.s = {self_sum!r} s, but the traced "
                        f"wall plus worker task time = "
                        f"{traced['wall_s'] + traced['worker_s']!r} s")
    return v, problems


def counter_problems(traced, counted, workload):
    """Differences between counters that must repeat exactly."""
    problems = []
    a, b = exact_counts(traced), exact_counts(counted)
    for key in sorted(a):
        if a[key] != b.get(key):
            problems.append(f"{key}: traced pass {a[key]}, counting pass {b.get(key)}")
    store = os.path.join(WORK, "counts", f"{workload}-{code_hash()}.json")
    if os.path.exists(store):
        with open(store) as fh:
            before = json.load(fh)
        for key in sorted(set(before) | set(b)):
            if before.get(key) != b.get(key):
                problems.append(f"{key}: {b.get(key)} now, {before.get(key)} in an "
                                f"earlier run of the same code")
    elif not problems:
        os.makedirs(os.path.dirname(store), exist_ok=True)
        with open(store, "w") as fh:
            json.dump(b, fh, sort_keys=True, indent=1)
    return problems


# --------------------------------------------------------------------- main


def measure(args, tmp):
    runner = Runner(args.workload, args.seed, tmp)
    if args.trace:
        plain = runner.child("plain")
        traced = runner.child("traced")
        counted = runner.child("count")
        passes = [plain, traced, counted]
        values, problems = per_layer(plain, traced, counted)
        problems += counter_problems(traced, counted, args.workload)
        notes = []
    else:
        passes, wanted = plain_passes(runner, args.seconds)
        e2e, notes = end_to_end(passes, wanted, runner.setups(passes))
        values = {k: (v, END_TO_END[k]) for k, v in e2e.items()}
        problems = []
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    problems += [f for p in passes for f in p["failures"]]
    if args.trace:
        values["fail_frac"] = (failed / attempted, "ratio")
    return values, attempted, failed, problems, notes


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # SIGTERM unwinds like an exception, so a running pass is killed too
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(ROOT, "src", "vmkit", "__init__.py")):
        print(f"error: no vmkit sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    problems = []
    try:
        arith.selftest()
    except AssertionError as e:
        problems.append(f"arithmetic self-test failed: {e!r}")

    steal0, calib0 = steal_jiffies(), calibrate_ms()
    os.makedirs(WORK, exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=WORK, prefix="run-") as tmp:
            values, attempted, failed, found, notes = measure(args, tmp)
    except RunFailed as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    problems += found
    calib1, steal1 = calibrate_ms(), steal_jiffies()
    steal = steal1 - steal0 if steal0 is not None and steal1 is not None else None
    if args.trace:
        values["host.nproc"] = (os.cpu_count(), "count")
        values["host.calib_before_ms"] = (calib0, "ms")
        values["host.calib_after_ms"] = (calib1, "ms")
        values["host.steal_jiffies"] = (-1 if steal is None else steal, "jiffies")

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print(f"host: nproc {os.cpu_count()}, usable CPUs {len(os.sched_getaffinity(0))}, "
          f"Python {platform.python_version()}, steal jiffies "
          f"{'unavailable' if steal is None else steal}, calibration loop "
          f"{calib0:.2f} ms before and {calib1:.2f} ms after")
    for note in notes:
        print(note)
    for name in sorted(values):
        value, unit = values[name]
        print(f"  {name:34s} {value:>16.6f} {unit}" if isinstance(value, float)
              else f"  {name:34s} {value:>16d} {unit}")
    for p in problems:
        print(f"FAILED: {p}")
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
