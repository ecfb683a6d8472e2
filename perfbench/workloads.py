"""The benchmark's workloads and the simulated statistics each point yields.

Every workload runs on the paper's platform (32 processors, 1000-cycle
inter-SSMP delay: ``repro.bench.sweep.default_config``) with the run cache
and the replay store off, and calls only the program's public entry
points: each app module's ``build``/``run``, ``Runtime.run`` (inside
``run``) and ``repro.bench.run_sweep``, the engine of ``run_figure``.

Why these three (the README in this directory has the measurements):

* ``tsp-lock`` is bound by messages, the protocol and one global queue
  lock; directory classification and block access paths do little.
* ``jacobi-stencil`` is bound by the block access paths and the hardware
  directory, with phase-replay digests at every barrier and no locks.
* ``fig12-sweep`` is the only one that uses the sweep worker pool and the
  only one that yields the paper's figure metrics; its protocol traffic
  is multi-writer pages released at barriers.
"""

from __future__ import annotations

import dataclasses
import os
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.apps import jacobi, tsp, water_kernel
from repro.apps.common import make_runtime
from repro.bench import FIGURES, bench_params, default_config, run_sweep
from repro.bench.parallel import shutdown_pool
from repro.metrics import cluster_sizes
from repro.runtime import RunResult, Runtime

#: processors in every workload (the paper's machine)
PROCESSORS = 32

FIG12 = FIGURES["fig12-opt"]


@dataclass
class Rep:
    """One repetition of a workload: per-point simulated statistics."""

    #: cluster size -> statistics (see :func:`result_stats`)
    points: dict[int, dict] = field(default_factory=dict)
    attempted: int = 0
    #: why the repetition failed as a whole (exception), if it did
    error: str | None = None
    #: cluster sizes whose output diverged from the golden run
    invalid: list[int] = field(default_factory=list)
    #: sweep-level figure metrics (``breakup``, ``potential``), if any
    figure: dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    #: everything before simulation starts; for the set-up probe
    setup: Callable[[int], Any]
    #: one repetition: ``run(seed, jobs) -> Rep``
    run: Callable[[int, int], Rep]


def result_stats(result: RunResult) -> dict:
    """The simulated statistics a point is checked on."""
    bd = result.breakdown()
    return {
        "total_time": result.total_time,
        **{k: bd[k] for k in ("user", "lock", "barrier", "mgs")},
        "lock_acquires": result.lock_stats.acquires,
        "lock_hit_ratio": result.lock_stats.hit_ratio,
        "inter_msgs": result.messages_inter_ssmp,
        "intra_msgs": result.messages_intra_ssmp,
        "protocol": dict(result.protocol_stats),
        "cache": dict(result.cache_stats),
    }


def sweep_point_stats(point) -> dict:
    """:func:`result_stats` for a sweep point, which carries no cache
    classes and no event count."""
    return {
        "total_time": point.total_time,
        **{k: point.breakdown[k] for k in ("user", "lock", "barrier", "mgs")},
        "lock_acquires": point.lock_acquires,
        "lock_hit_ratio": point.lock_hit_ratio,
        "inter_msgs": point.messages_inter_ssmp,
        "intra_msgs": point.network["intra_ssmp"],
        "protocol": dict(point.protocol_stats),
    }


def _single_point(module, params, cluster_size: int) -> Rep:
    """Run one app at one cluster size in this process."""
    rep = Rep(attempted=1)
    runtimes: list[Runtime] = []
    hook = runtimes.append
    Runtime.construction_hooks.append(hook)
    try:
        run = module.run(default_config(cluster_size, PROCESSORS), params)
    except Exception as exc:  # a failed point is counted, not fatal
        traceback.print_exc()
        rep.error = f"{type(exc).__name__}: {exc}"
        return rep
    finally:
        Runtime.construction_hooks.remove(hook)
    stats = result_stats(run.result)
    stats["events"] = runtimes[-1].sim.events_processed
    rep.points[cluster_size] = stats
    if not run.valid:
        rep.invalid.append(cluster_size)
    return rep


def _single_setup(module, params, cluster_size: int) -> None:
    rt = make_runtime(default_config(cluster_size, PROCESSORS))
    module.build(rt, params)


TSP_PARAMS = tsp.TSPParams()
TSP_CLUSTER = 4
JACOBI_PARAMS = jacobi.JacobiParams(n=256, iterations=10)
JACOBI_CLUSTER = 8


def fig12_params(seed: int) -> water_kernel.WaterKernelParams:
    return dataclasses.replace(bench_params(FIG12.app, scale=1), seed=seed)


def _fig12_setup(seed: int) -> None:
    params = fig12_params(seed)
    for c in cluster_sizes(PROCESSORS):
        rt = make_runtime(default_config(c, PROCESSORS))
        FIG12.module.build(rt, params)


def _fig12_run(seed: int, jobs: int) -> Rep:
    """``run_figure("fig12-opt", jobs=jobs)`` with the seed applied.

    ``run_figure`` takes no parameters, so this calls ``run_sweep`` the
    way it does.  The pool is shut down afterwards so every repetition
    pays the fork a fresh ``repro fig12`` invocation pays.
    """
    sizes = cluster_sizes(PROCESSORS)
    rep = Rep(attempted=len(sizes))
    try:
        sweep = run_sweep(
            FIG12.module,
            params=fig12_params(seed),
            total_processors=PROCESSORS,
            name=FIG12.app,
            jobs=jobs,
            cache=False,
        )
    except Exception as exc:  # AssertionError: a point failed its golden check
        traceback.print_exc()
        rep.error = f"{type(exc).__name__}: {exc}"
        return rep
    finally:
        shutdown_pool()
    rep.points = {p.cluster_size: sweep_point_stats(p) for p in sweep.points}
    rep.figure = {
        "breakup": sweep.breakup_penalty,
        "potential": sweep.multigrain_potential,
    }
    return rep


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "tsp-lock",
            lambda seed: _single_setup(tsp, TSP_PARAMS, TSP_CLUSTER),
            lambda seed, jobs: _single_point(tsp, TSP_PARAMS, TSP_CLUSTER),
        ),
        Workload(
            "jacobi-stencil",
            lambda seed: _single_setup(jacobi, JACOBI_PARAMS, JACOBI_CLUSTER),
            lambda seed, jobs: _single_point(jacobi, JACOBI_PARAMS, JACOBI_CLUSTER),
        ),
        Workload(
            "fig12-sweep",
            _fig12_setup,
            _fig12_run,
        ),
    )
}


def default_jobs() -> int:
    """Worker processes for sweeps: one per CPU."""
    return os.cpu_count() or 1
