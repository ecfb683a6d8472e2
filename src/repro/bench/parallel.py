"""Parallel benchmark driver: farm independent simulations to processes.

Every simulated point — one ``(app, cluster size)`` pair — is a closed,
deterministic universe: it shares no state with any other point, and its
result depends only on its arguments.  That makes the figure sweeps
embarrassingly parallel, so this module fans them out to worker
processes while keeping the *output* exactly what the serial loop
produces: results are collected in input order regardless of execution
order, so a parallel sweep is byte-identical to a serial one (pinned by
``tests/test_parallel.py``).

Job count resolution, lowest priority last:

1. an explicit ``jobs=`` argument (CLI ``--jobs``, pytest ``--jobs``);
2. the ``REPRO_JOBS`` environment variable;
3. serial (1).

``jobs=0`` (or ``REPRO_JOBS=0``) means "all cores".  On a single-core
machine ``parallel_map`` always runs in-process (with a one-line notice
on stderr when that overrides an explicit multi-job request): forking
buys nothing there and the committed perf baseline shows it strictly
slower (0.178s parallel vs 0.150s serial for the smoke sweep).  The
pool uses the ``fork`` start method where available so workers inherit
``sys.path`` and loaded modules; on platforms without ``fork`` the
default start method is used and arguments travel by pickle (everything
passed here — app parameter dataclasses, configs, result dataclasses —
is picklable).

The pool is **persistent**: the first parallel call forks it, and every
later call from the sweep engine, ``repro.bench.compare``, or the
``repro.serve`` daemon reuses the same workers instead of paying a
fork-and-import per sweep.  Two things keep reuse invisible to callers:

* a call asking for fewer jobs than the pool has workers is *windowed*
  — at most ``jobs`` futures are in flight at once, refilled in
  longest-job-first order as results land, so concurrency (and thus
  memory and CPU footprint) matches what the caller asked for;
* workers forked long ago would hold a stale environment, so each job
  ships a snapshot of the caller's current ``REPRO_*`` variables and
  the worker applies it before running — toggles such as
  ``REPRO_NO_REPLAY`` and ``REPRO_CACHE_DIR`` behave exactly as if the
  worker were forked at call time.  The snapshot only works if *module
  state derived from those variables is keyed by their values*: a
  worker warmed under one configuration must not serve a job submitted
  under another through a stale singleton.  Any env-derived cache must
  follow that rule (pinned by ``tests/test_parallel.py``).

``shutdown_pool`` tears the workers down (registered with ``atexit``;
tests use it to force a fresh pool).

When the caller knows roughly how long each item takes (the run cache
records wall time per point), ``priorities=`` schedules
longest-job-first: items are *submitted* in descending priority so the
slowest work starts immediately, while results still come back in input
order.  Items with an unknown priority (None) run first — they might be
long.
"""

from __future__ import annotations

import atexit
import math
import multiprocessing as mp
import os
import sys
import warnings
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from typing import Any, Callable, Sequence

__all__ = [
    "resolve_jobs",
    "parallel_map",
    "run_figures",
    "submission_order",
    "shutdown_pool",
]


def resolve_jobs(jobs: int | None = None) -> int:
    """Number of worker processes to use (see module docstring)."""
    if jobs is None:
        raw = os.environ.get("REPRO_JOBS", "").strip()
        if not raw:
            return 1
        try:
            jobs = int(raw)
        except ValueError:
            warnings.warn(
                f"ignoring malformed REPRO_JOBS={raw!r} (want an integer); "
                "running serial",
                RuntimeWarning,
                stacklevel=2,
            )
            return 1
    if jobs <= 0:
        return os.cpu_count() or 1
    return jobs


def submission_order(
    n: int, priorities: Sequence[float | None] | None
) -> list[int]:
    """Indices in submission order: descending priority, stable on ties.

    The longest-job-first scheduler shared by :func:`parallel_map` (work
    submission to the process pool) and the ``repro.serve`` dispatcher
    (which job to execute next, from cached wall-time estimates).  Items
    with an unknown priority (None) come first — they might be long.
    """
    if priorities is None:
        return list(range(n))
    if len(priorities) != n:
        raise ValueError(f"{len(priorities)} priorities for {n} items")
    return sorted(
        range(n),
        key=lambda i: (
            -(math.inf if priorities[i] is None else priorities[i]),
            i,
        ),
    )


#: backwards-compatible alias (pre-public name)
_submission_order = submission_order


# ---------------------------------------------------------------------------
# Persistent worker pool
# ---------------------------------------------------------------------------

_POOL: ProcessPoolExecutor | None = None
_POOL_WORKERS = 0
_WARNED_SINGLE_CPU = False

#: environment variables shipped to (long-lived) workers per job
_ENV_PREFIX = "REPRO_"


def _env_snapshot() -> tuple[tuple[str, str], ...]:
    return tuple(
        sorted(
            (k, v)
            for k, v in os.environ.items()
            if k.startswith(_ENV_PREFIX)
        )
    )


def _run_job(env: tuple[tuple[str, str], ...], fn, args):
    """Worker-side trampoline: sync ``REPRO_*`` env, then run the job.

    Workers are forked once and reused, so the environment they
    inherited may predate the caller's current toggles; each job carries
    the caller's snapshot and this applies it (adds, updates, *and*
    removals) before dispatch.  Module-level state derived from
    ``REPRO_*`` values must re-derive from the environment at use time,
    not at import/fork time, or this sync is defeated.
    """
    want = dict(env)
    for k in [k for k in os.environ if k.startswith(_ENV_PREFIX)]:
        if k not in want:
            del os.environ[k]
    os.environ.update(want)
    return fn(*args)


def _executor(workers: int) -> ProcessPoolExecutor:
    """The shared pool, growing (never shrinking) to ``workers``."""
    global _POOL, _POOL_WORKERS
    if _POOL is not None and _POOL_WORKERS < workers:
        _POOL.shutdown(wait=True)
        _POOL = None
    if _POOL is None:
        if "fork" in mp.get_all_start_methods():
            ctx = mp.get_context("fork")
        else:  # pragma: no cover - platform-dependent
            ctx = mp.get_context()
        _POOL = ProcessPoolExecutor(max_workers=workers, mp_context=ctx)
        _POOL_WORKERS = workers
    return _POOL


def shutdown_pool() -> None:
    """Tear down the persistent pool (idempotent; re-forks on next use)."""
    global _POOL, _POOL_WORKERS
    if _POOL is not None:
        _POOL.shutdown(wait=True)
        _POOL = None
        _POOL_WORKERS = 0


atexit.register(shutdown_pool)


def parallel_map(
    fn: Callable[..., Any],
    arg_tuples: Sequence[tuple],
    jobs: int | None = None,
    priorities: Sequence[float | None] | None = None,
) -> list[Any]:
    """``[fn(*args) for args in arg_tuples]`` over worker processes.

    Results come back in input order regardless of completion order, so
    callers see exactly the serial result list.  ``fn`` must be a
    module-level function (workers import it by reference).  With one
    job, one item, or one CPU this is the plain list comprehension — no
    pool, no pickling.  ``priorities`` (optional, one float-or-None per
    item) submits work longest-job-first; it never changes the result.
    """
    items = list(arg_tuples)
    order = submission_order(len(items), priorities)
    jobs = resolve_jobs(jobs)
    if jobs <= 1 or len(items) <= 1 or (os.cpu_count() or 1) <= 1:
        global _WARNED_SINGLE_CPU
        if (
            jobs > 1
            and len(items) > 1
            and (os.cpu_count() or 1) <= 1
            and not _WARNED_SINGLE_CPU
        ):
            _WARNED_SINGLE_CPU = True
            print(
                f"repro.bench.parallel: single-CPU machine, running the "
                f"jobs={jobs} sweep in-process (serial)",
                file=sys.stderr,
            )
        return [fn(*args) for args in items]
    workers = min(jobs, len(items))
    pool = _executor(workers)
    env = _env_snapshot()
    # Windowed submission: the persistent pool may have more workers
    # than this call's job count, so cap in-flight futures at `workers`
    # and refill in longest-job-first order as results land.  Results
    # are stored by input index, and errors are re-raised by lowest
    # input index after the window drains — exactly the serial/one-shot
    # pool behavior.
    pending = iter(order)
    inflight: dict[Any, int] = {}
    results: list[Any] = [None] * len(items)
    errors: dict[int, BaseException] = {}

    def refill() -> None:
        for i in pending:
            inflight[pool.submit(_run_job, env, fn, items[i])] = i
            return

    try:
        for _ in range(min(workers, len(items))):
            refill()
        while inflight:
            done, _ = wait(inflight, return_when=FIRST_COMPLETED)
            for fut in done:
                i = inflight.pop(fut)
                exc = fut.exception()
                if exc is not None:
                    errors[i] = exc
                else:
                    results[i] = fut.result()
                refill()
    except BaseException:
        # A dead worker (or interrupt) leaves the executor unusable;
        # discard it so the next call forks a fresh one.
        shutdown_pool()
        raise
    if errors:
        raise errors[min(errors)]
    return results


def _figure_job(key: str, total_processors: int, network, protocol=None):
    from repro.bench.figures import run_figure

    # Each worker runs its whole figure serially; parallelism is across
    # figures here.
    return run_figure(key, total_processors, network, jobs=1, protocol=protocol)


def run_figures(
    keys: Sequence[str],
    total_processors: int = 32,
    network=None,
    jobs: int | None = None,
    protocol: str | None = None,
) -> list[tuple[str, Any]]:
    """Run several whole figures, one worker per figure.

    Returns ``[(key, ClusterSweep), ...]`` in the order of ``keys`` —
    the same sweeps ``run_figure`` produces one at a time.
    """
    sweeps = parallel_map(
        _figure_job,
        [(key, total_processors, network, protocol) for key in keys],
        jobs,
    )
    return list(zip(keys, sweeps))
