"""The repository benchmark: host and simulated clocks of three workloads.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload tsp-lock --seed 1 --seconds 30 --trace 0

Repeats the workload for ``--seconds`` seconds, checks every point of
every repetition against its reference (``reference.py``), and prints
one line per repetition, a summary, and as the last line one JSON object
``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics (medians over repetitions).
``--trace 1`` measures the same untraced repetitions, then one traced
repetition (``tracer.py``), asserts its simulated statistics equal the
untraced run's, writes its spans to ``perfbench/out/`` as Chrome Trace
Event JSON and reports the per-layer metrics.

The seed feeds ``WaterKernelParams.seed`` (fig12-sweep); the TSP and
Jacobi inputs are fixed (see README.md).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

#: set-up probes per run; set-up time is their median
SETUP_SAMPLES = 7

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "sim_cycles": "cycles",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "sim.events": "count", "sim.self_s": "s", "sim.ns_per_event": "ns",
    "bus.messages": "count", "bus.bytes": "bytes", "bus.self_s": "s",
    "machine.sends": "count", "machine.occupy_calls": "count", "machine.self_s": "s",
    "net.inter_msgs": "count", "net.intra_msgs": "count", "net.queue_cycles": "cycles",
    "protocol.faults": "count", "protocol.releases": "count",
    "protocol.invalidations": "count", "protocol.diffs_sent": "count",
    "protocol.pages_transferred": "count", "protocol.self_s": "s",
    "protocol.fault_p95_cycles": "cycles", "protocol.release_p95_cycles": "cycles",
    "hw.accesses": "count", "hw.hit_ratio": "ratio", "hw.software_accesses": "count",
    "hw.self_s": "s", "hw.flush_page_calls": "count", "hw.flush_page_s": "s",
    "env.calls": "count", "env.words": "count", "env.words_per_call": "ratio",
    "env.self_s": "s",
    "runner.self_s": "s",
    "replay.digests": "count", "replay.digest_s": "s",
    "replay.phases_replayed": "count", "replay.hit_ratio": "ratio",
    "sync.lock_acquires": "count", "sync.lock_hit_ratio": "ratio",
    "sync.token_transfers": "count", "sync.barrier_arrivals": "count",
    "sync.self_s": "s",
    "cycles.user": "cycles", "cycles.lock": "cycles", "cycles.barrier": "cycles",
    "cycles.mgs": "cycles",
    "apps.build_s": "s", "apps.verify_s": "s",
    "bench.points": "count", "bench.point_s_max": "s", "bench.point_s_sum": "s",
    "bench.worker_busy_frac": "ratio",
    "trace.overhead_s": "s",
}

ENV_OPS = ("read", "write", "read_block", "write_block", "read_many", "write_many")


def _import_program() -> None:
    """Put the checkout's program on the path, or fail without a result."""
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"perfbench: no program at {ROOT / 'src' / 'repro'}")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    # Run cache, replay store, job count and fast-path switches all read
    # REPRO_* variables; the benchmark measures the defaults.
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]


def run_reps(workload, seed: int, seconds: float, jobs: int, ref, label: str):
    """Repeat ``workload`` while another repetition fits in ``seconds``
    (at least once); returns per-rep records."""
    reps = []
    start = time.perf_counter()
    while not reps or time.perf_counter() - start + reps[-1]["wall"] <= seconds:
        t0 = time.perf_counter()
        rep = workload.run(seed, jobs)
        bad = {} if rep.error else ref.check(workload.name, rep.points, rep.figure)
        wall = time.perf_counter() - t0
        failed = _failed_points(rep, bad)
        reps.append({"wall": wall, "rep": rep, "failed": failed})
        print(
            f"{label} rep {len(reps)}: {wall:.3f} s, "
            f"{rep.attempted - len(failed)}/{rep.attempted} points ok",
            flush=True,
        )
        _report_failures(rep, bad)
        if rep.error:
            break  # the program is broken; more repetitions add nothing
    return reps


def _failed_points(rep, bad: dict[int, list[str]]) -> set:
    if rep.error:
        return set(range(rep.attempted))
    return set(rep.invalid) | {c for c, msgs in bad.items() if msgs}


def _report_failures(rep, bad: dict[int, list[str]]) -> None:
    if rep.error:
        print(f"  FAILED: {rep.error}", flush=True)
    for c in rep.invalid:
        print(f"  FAILED C={c}: output diverged from the golden run", flush=True)
    for msgs in bad.values():
        for msg in msgs:
            print(f"  MISMATCH {msg}", flush=True)


def setup_seconds(name: str, seed: int) -> float:
    """Median set-up time over fresh interpreters."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        out = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), name, str(seed)],
            capture_output=True, text=True, check=True, timeout=120, cwd=ROOT,
        )
        samples.append(float(out.stdout.split()[-1]))
    return statistics.median(samples)


def pool_workers(name: str, jobs: int) -> int:
    """Pool workers a repetition forks (sweeps fan out when CPUs allow)."""
    from perfbench.workloads import PROCESSORS
    from repro.metrics import cluster_sizes

    if name != "fig12-sweep" or jobs <= 1 or (os.cpu_count() or 1) <= 1:
        return 0
    return min(jobs, len(cluster_sizes(PROCESSORS)))


def peak_rss_mb(workers: int) -> float:
    """This process's high-water mark plus one per pool worker.

    Workers are reaped at the end of every repetition, so their largest
    high-water mark is in ``RUSAGE_CHILDREN``; summing it per worker
    bounds the simultaneous footprint from above.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss if workers else 0
    return (own + workers * child) / 1024


def end_to_end(name: str, seed: int, reps: list[dict]) -> dict[str, float]:
    from perfbench.workloads import default_jobs

    rss = peak_rss_mb(pool_workers(name, default_jobs()))
    return {
        "wall_s": statistics.median([r["wall"] for r in reps]),
        "setup_s": setup_seconds(name, seed),
        "sim_cycles": statistics.median_low(
            [sum(p["total_time"] for p in r["rep"].points.values()) for r in reps]
        ),
        "peak_rss_mb": rss,
    }


def traced_rep(workload, seed: int, jobs: int, ref):
    """One repetition under the tracer; returns (record, tracer)."""
    from perfbench.tracer import Tracer
    from repro.bench.parallel import shutdown_pool

    # Pool workers must fork after the wrappers are in place, and must not
    # outlive them.
    shutdown_pool()
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.span("rep", "bench"):
            t0 = time.perf_counter()
            rep = workload.run(seed, jobs)
            bad = {} if rep.error else ref.check(workload.name, rep.points, rep.figure)
            wall = time.perf_counter() - t0
    finally:
        tracer.uninstall()
        shutdown_pool()
    failed = _failed_points(rep, bad)
    print(
        f"traced rep: {wall:.3f} s, "
        f"{rep.attempted - len(failed)}/{rep.attempted} points ok",
        flush=True,
    )
    _report_failures(rep, bad)
    return {"wall": wall, "rep": rep, "failed": failed}, tracer


def layer_metrics(
    tracer, traced_wall: float, untraced_wall: float, workers: int
) -> dict:
    """The per-layer metrics from one traced repetition."""
    calls, entry_ns, self_ns = tracer.calls, tracer.entry_ns, tracer.self_ns
    runs = tracer.runs

    def self_s(layer: str) -> float:
        return self_ns.get(layer, 0) / 1e9

    def p95(kind: str) -> int:
        """Largest p95 transaction latency over the points."""
        return max((r["p95"].get(kind, 0) for r in runs), default=0)

    def total(key: str) -> Counter:
        out: Counter = Counter()
        for r in runs:
            out.update(r[key])
        return out

    events = sum(r["events"] for r in runs)
    cache, proto, net, locks, cycles = (
        total("cache"), total("protocol"), total("network"), total("locks"),
        total("breakdown"),
    )
    accesses = sum(cache.values())
    env_calls = sum(calls.get(f"Env.{op}", 0) for op in ENV_OPS)
    digests = calls.get("PhaseRecorder.state_digest", 0)
    replayed = sum(r["replayed"] for r in runs)
    point_s = [s["dur_ns"] / 1e9 for s in tracer.spans if s["name"] == "point"]
    outer = [s for s in tracer.spans if s["name"] == "parallel_map"] or [
        s for s in tracer.spans if s["name"] == "rep"
    ]
    outer_s = sum(s["dur_ns"] for s in outer) / 1e9
    return {
        "sim.events": events,
        "sim.self_s": self_s("sim"),
        "sim.ns_per_event": untraced_wall * 1e9 / max(1, events),
        "bus.messages": sum(r["messages"] for r in runs),
        "bus.bytes": sum(r["bytes"] for r in runs),
        "bus.self_s": self_s("bus"),
        "machine.sends": calls.get("Machine.send", 0),
        "machine.occupy_calls": calls.get("Machine.occupy", 0),
        "machine.self_s": self_s("machine"),
        "net.inter_msgs": net["inter_ssmp"],
        "net.intra_msgs": net["intra_ssmp"],
        "net.queue_cycles": net["queue_cycles"],
        "protocol.faults": proto["faults"],
        "protocol.releases": proto["releases"],
        "protocol.invalidations": proto["invalidations"],
        "protocol.diffs_sent": proto["diffs_sent"],
        "protocol.pages_transferred": proto["pages_transferred"],
        "protocol.self_s": self_s("protocol"),
        "protocol.fault_p95_cycles": p95("fault"),
        "protocol.release_p95_cycles": p95("release"),
        "hw.accesses": accesses,
        "hw.hit_ratio": cache["hit"] / max(1, accesses),
        "hw.software_accesses": cache["software"],
        "hw.self_s": self_s("hw"),
        "hw.flush_page_calls": calls.get("CacheSystem.flush_page", 0),
        "hw.flush_page_s": entry_ns.get("CacheSystem.flush_page", 0) / 1e9,
        "env.calls": env_calls,
        "env.words": tracer.words[0],
        "env.words_per_call": tracer.words[0] / max(1, env_calls),
        "env.self_s": self_s("env"),
        "runner.self_s": self_s("runner"),
        "replay.digests": digests,
        "replay.digest_s": (
            entry_ns.get("PhaseRecorder.state_digest", 0)
            + entry_ns.get("repro.runtime.runner.replay_enabled_default", 0)
        ) / 1e9,
        "replay.phases_replayed": replayed,
        "replay.hit_ratio": replayed / max(1, digests),
        "sync.lock_acquires": locks["acquires"],
        "sync.lock_hit_ratio": locks["hits"] / max(1, locks["acquires"]),
        "sync.token_transfers": locks["token_transfers"],
        "sync.barrier_arrivals": calls.get("TreeBarrier.arrive", 0),
        "sync.self_s": self_s("sync"),
        "cycles.user": cycles["user"],
        "cycles.lock": cycles["lock"],
        "cycles.barrier": cycles["barrier"],
        "cycles.mgs": cycles["mgs"],
        "apps.build_s": entry_ns.get("build", 0) / 1e9,
        "apps.verify_s": entry_ns.get("golden", 0) / 1e9,
        "bench.points": len(point_s),
        "bench.point_s_max": max(point_s, default=0.0),
        "bench.point_s_sum": sum(point_s),
        "bench.worker_busy_frac": (
            sum(point_s) / (max(1, workers) * outer_s) if outer_s else 0.0
        ),
        "trace.overhead_s": traced_wall - untraced_wall,
    }


def _print_summary(name: str, reps: list[dict], metrics: dict, units: dict) -> None:
    attempted = sum(r["rep"].attempted for r in reps)
    failed = sum(len(r["failed"]) for r in reps)
    print(f"\n{name}: {len(reps)} repetition(s), error_rate {failed / attempted:g} "
          f"({failed}/{attempted} points failed)")
    figure = next((r["rep"].figure for r in reps if r["rep"].figure), None)
    if figure:
        from perfbench.workloads import FIG12

        print(f"  breakup_err   {abs(figure['breakup'] - FIG12.paper_breakup):.4f} "
              f"(measured {figure['breakup']:.4f}, paper {FIG12.paper_breakup})")
        print(f"  potential_err {abs(figure['potential'] - FIG12.paper_potential):.4f} "
              f"(measured {figure['potential']:.4f}, paper {FIG12.paper_potential})")
    for key, value in metrics.items():
        print(f"  {key:<28} {value:>16.6g} {units[key]}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=23)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    _import_program()

    from perfbench.reference import Reference
    from perfbench.workloads import WORKLOADS, default_jobs

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    ref = Reference()
    jobs = default_jobs()

    reps = run_reps(workload, args.seed, args.seconds, jobs, ref, "untraced")
    if args.trace:
        untraced_wall = statistics.median([r["wall"] for r in reps])
        traced, tracer = traced_rep(workload, args.seed, jobs, ref)
        last = reps[-1]["rep"]
        if not traced["rep"].error and traced["rep"].points != last.points:
            print("  FAILED: the traced run's simulated statistics differ "
                  "from the untraced run's")
            traced["failed"] = set(range(traced["rep"].attempted))
        reps.append(traced)
        metrics = layer_metrics(
            tracer, traced["wall"], untraced_wall, pool_workers(workload.name, jobs)
        )
        path = OUT / f"trace-{workload.name}-seed{args.seed}.json"
        tracer.write_chrome_trace(path)
        print(f"spans written to {path.relative_to(ROOT)}")
        units = PER_LAYER
    else:
        metrics = end_to_end(workload.name, args.seed, reps)
        units = END_TO_END
    _print_summary(workload.name, reps, metrics, units)
    attempted = sum(r["rep"].attempted for r in reps)
    failed = sum(len(r["failed"]) for r in reps)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
