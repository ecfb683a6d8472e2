"""A finished run leaves no cyclic garbage.

A runtime's object graph has reference cycles: each ``Env`` binds its
memory operations per instance and points back at the runtime, the bus
holds the engine's handlers bound, and a phased run's factory and
recorder point back at the runtime.  ``Runtime.close`` breaks them and
every app's ``run`` calls it, so a finished run is freed by reference
counting; a process that runs point after point holds one run's state
at a time instead of several until the next full collection.
"""

from __future__ import annotations

import dataclasses
import gc

import pytest

from repro.apps import jacobi, tsp
from repro.bench.micro import measure_micro_costs
from repro.core.engine import engine_names
from repro.params import MachineConfig
from repro.runtime import Runtime


def cyclic_garbage(fn) -> int:
    """Objects only the cycle collector could free after a second
    ``fn()`` (the first may import modules: one-time garbage)."""
    fn()
    gc.collect()
    gc.disable()
    try:
        fn()
        return gc.collect()
    finally:
        gc.enable()


def config(engine: str) -> MachineConfig:
    return dataclasses.replace(
        MachineConfig(total_processors=4, cluster_size=2), protocol=engine
    )


@pytest.mark.parametrize("engine", engine_names())
def test_phased_app_run_leaves_no_cycles(engine):
    params = jacobi.JacobiParams(n=16, iterations=3)
    assert cyclic_garbage(lambda: jacobi.run(config(engine), params)) == 0


@pytest.mark.parametrize("engine", engine_names())
def test_locked_app_run_leaves_no_cycles(engine):
    params = tsp.TSPParams(ncities=6)
    assert cyclic_garbage(lambda: tsp.run(config(engine), params)) == 0


def test_micro_benchmarks_leave_no_cycles():
    """Table 3's micro-benchmarks close each of their runtimes."""
    assert cyclic_garbage(measure_micro_costs) == 0


def test_unclosed_runtime_is_cyclic():
    """The cycles are real: without ``close`` the collector must step in."""

    def run_unclosed():
        rt = Runtime(config("mgs"))
        tsp.build(rt, tsp.TSPParams(ncities=6))
        rt.run()

    assert cyclic_garbage(run_unclosed) > 0


def test_golden_tour_matches_brute_force():
    """The bottom-up Held-Karp table agrees with trying every tour."""
    from itertools import permutations

    params = tsp.TSPParams(ncities=7)
    dist = params.distances()
    brute = min(
        dist[0][tour[0]]
        + sum(dist[a][b] for a, b in zip(tour, tour[1:]))
        + dist[tour[-1]][0]
        for tour in permutations(range(1, params.ncities))
    )
    assert tsp.golden(params) == brute
