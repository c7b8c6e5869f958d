"""One pass of one workload in a fresh process, so that no cache, import or
wrapper carries over from another pass.

    python3 bench/child.py SPEC_JSON

SPEC_JSON holds root, workload, seed, mode and out.  mode is "setup" (set
up only), "plain" (decisions untraced), "traced" (decisions with spans) or
"count" (decisions with spans and the exact counters that need hooks
inside a layer).  The result is written as JSON to `out`.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import sys
import tempfile
import time


def cpu_seconds():
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def peak_rss_mb():
    """Peak resident set of this process or of its largest worker."""
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def run_items(items):
    """Make every decision in order, one caller, closed loop.

    Returns (latencies in seconds, per-item wall seconds, per-item CPU
    seconds, attempted, failure messages).  An item's times span its
    decisions and its check.
    """
    latencies = []
    item_wall = []
    item_cpu = []
    failures = []
    attempted = 0
    for item in items:
        w0 = time.perf_counter()
        c0 = cpu_seconds()
        outcomes = []
        for _, call in item.calls:
            t0 = time.perf_counter()
            try:
                outcome = (call(), None)
            except Exception as e:  # a raising decision is a counted failure
                outcome = (None, repr(e))
            latencies.append(time.perf_counter() - t0)
            outcomes.append(outcome)
        attempted += len(outcomes)
        try:
            bad = item.check(outcomes)
        except Exception as e:  # a check that cannot replay fails them all
            bad = {i: f"check raised {e!r}" for i in range(len(outcomes))}
        failures.extend(bad[i] for i in sorted(bad))
        item_cpu.append(cpu_seconds() - c0)
        item_wall.append(time.perf_counter() - w0)
    return latencies, item_wall, item_cpu, attempted, failures


def main(spec):
    root = spec["root"]
    sys.path.insert(0, os.path.join(root, "src"))
    import workloads

    work_parent = os.path.join(root, ".bench_work")
    os.makedirs(work_parent, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work_parent, prefix="pass-") as workdir:
        t0 = time.perf_counter()
        items = workloads.setup(spec["workload"], spec["seed"], workdir)
        result = {"setup_s": time.perf_counter() - t0}
        if spec["mode"] != "setup":
            # The inputs live for the whole pass; without this every full
            # collection walks them, and where those pauses land depends on
            # the seed's order of decisions.
            gc.collect()
            gc.freeze()
            result.update(run_pass(items, spec["mode"]))
    with open(spec["out"], "w") as fh:
        json.dump(result, fh)


def run_pass(items, mode):
    rec = None
    if mode != "plain":
        import spans

        rec = spans.Recorder()
        spans.instrument(rec, counting=mode == "count")
        rec.reset()
    cpu0 = cpu_seconds()
    t0 = time.perf_counter()
    latencies, item_wall, item_cpu, attempted, failures = run_items(items)
    wall = time.perf_counter() - t0
    out = {
        "wall_s": wall,
        "cpu_s": cpu_seconds() - cpu0,
        "peak_rss_mb": peak_rss_mb(),
        "latencies_s": latencies,
        "item_wall_s": item_wall,
        "item_cpu_s": item_cpu,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:20],
    }
    if rec is not None:
        totals, other = rec.summary(wall)
        out.update({
            "totals": totals,
            "other_s": other,
            "worker_totals": rec.worker_totals,
            "worker_other_s": rec.worker_other,
            "worker_s": rec.worker_s,
            "worker_pids": len(rec.worker_pids),
            "task_s": rec.task_s,
            "capacity_s": rec.capacity_s,
            "counts": rec.counts(),
        })
    return out


if __name__ == "__main__":
    with open(sys.argv[1]) as fh:
        main(json.load(fh))
