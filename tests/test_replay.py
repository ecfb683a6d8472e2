"""Phase replay correctness: replay-on must be bit-for-bit replay-off.

The acceptance bar for the closed-form replay engine
(:mod:`repro.runtime.replay`) is golden full-state equivalence for every
registered protocol engine across the paper's application suite: clocks,
per-thread cycle buckets, cache and protocol statistics, message flows,
event counts, and the computed output must be identical whether repeated
phases are re-executed or applied as recorded deltas.  These tests pin
that, plus the surrounding contract: the ``REPRO_NO_REPLAY`` escape
hatch, the spawn/spawn_phases mutual exclusion, and that replay actually
*fires* on the workload built to show it off (scanphase).
"""

import numpy as np
import pytest

from repro.apps import barnes_hut, jacobi, matmul, scanphase, tsp, water
from repro.core.engine import engine_names
from repro.params import MachineConfig
from repro.runtime import Runtime
from repro.runtime.replay import replay_enabled_default

ENGINES = engine_names()

#: tiny-but-representative paper apps: every sharing pattern in Table 4
PAPER_APPS = {
    "jacobi": (jacobi, jacobi.JacobiParams(n=16, iterations=4)),
    "matmul": (matmul, matmul.MatmulParams(n=8)),
    # Iterative variant: one phase per pass, with no barrier between
    # passes (Runtime.spawn_phases).
    "matmul-iter": (matmul, matmul.MatmulParams(n=8, iterations=4)),
    "tsp": (tsp, tsp.TSPParams(ncities=6)),
    "water": (water, water.WaterParams(n_molecules=9, iterations=1)),
    "barnes-hut": (
        barnes_hut,
        barnes_hut.BarnesHutParams(n_bodies=12, iterations=1),
    ),
}

SCAN_PARAMS = scanphase.ScanPhaseParams(
    words=256, phases=6, window=16, chunk=8
)


def _full_state(module, params, protocol: str, replay: bool) -> dict:
    config = MachineConfig(
        total_processors=4, cluster_size=2, protocol=protocol
    )
    rt = module.make_runtime(config, replay=replay)
    final = module.build(rt, params)
    result = rt.run()
    state = {
        "total_time": result.total_time,
        "threads": [
            (t.time, t.user, t.lock, t.barrier, t.mgs, t.finish_time)
            for t in result.threads
        ],
        "cache": dict(result.cache_stats),
        "protocol": dict(result.protocol_stats),
        "locks": (
            result.lock_stats.acquires,
            result.lock_stats.hits,
            result.lock_stats.token_transfers,
        ),
        "messages": (result.messages_inter_ssmp, result.messages_intra_ssmp),
        "flows": result.message_flows,
        "events": rt.sim.events_processed,
    }
    snapshot = getattr(final, "snapshot", None)
    if snapshot is not None:
        state["output"] = np.asarray(snapshot()).tolist()
    return state, rt


@pytest.mark.parametrize("engine", ENGINES)
def test_replay_equivalence_paper_apps(engine):
    """Replay-on == replay-off, full state, engine x app (acceptance)."""
    for app, (module, params) in PAPER_APPS.items():
        on, _ = _full_state(module, params, engine, replay=True)
        off, _ = _full_state(module, params, engine, replay=False)
        for key in on:
            assert on[key] == off[key], f"{engine}/{app}: replay changed {key}"


@pytest.mark.parametrize("engine", ENGINES)
def test_replay_equivalence_and_fires_scanphase(engine):
    """The showcase workload must actually replay — under every engine —
    and still match the fully-executed run on every observable."""
    on, rt = _full_state(scanphase, SCAN_PARAMS, engine, replay=True)
    off, _ = _full_state(scanphase, SCAN_PARAMS, engine, replay=False)
    recorder = rt.phase_recorder
    assert recorder is not None and recorder.replayed > 0, (
        f"{engine}: no phase replayed on the replay showcase"
    )
    for key in on:
        assert on[key] == off[key], f"{engine}: replay changed {key}"


def test_matmul_epoch_replay_fires():
    """An app with no inter-pass barrier collapses under phase replay
    with quiescent boundaries: pass 0 installs, pass 1 records, later
    passes replay."""
    config = MachineConfig(total_processors=4, cluster_size=2)
    run = matmul.run(
        config, matmul.MatmulParams(n=8, iterations=5), replay=True
    ).require_valid()
    assert run.result.replay_cache["replayed"] > 0
    assert run.result.replay_cache["recorded"] >= 1


def test_scanphase_validates_under_replay():
    config = MachineConfig(total_processors=4, cluster_size=2)
    run = scanphase.run(config, SCAN_PARAMS).require_valid()
    # Counters live in result.replay_cache (never in aux, which the run
    # cache serializes and must stay identical replay-on vs. replay-off).
    assert run.result.replay_cache["replayed"] > 0
    assert run.result.replay_cache["recorded"] >= 1


def test_no_replay_env_escape_hatch(monkeypatch):
    monkeypatch.setenv("REPRO_NO_REPLAY", "1")
    assert not replay_enabled_default()
    config = MachineConfig(total_processors=4, cluster_size=2)
    rt = scanphase.make_runtime(config)
    assert rt.replay is False
    scanphase.build(rt, SCAN_PARAMS)
    rt.run()
    assert rt.phase_recorder is None


def test_replay_flag_overrides_environment(monkeypatch):
    monkeypatch.setenv("REPRO_NO_REPLAY", "1")
    config = MachineConfig(total_processors=4, cluster_size=2)
    assert scanphase.make_runtime(config, replay=True).replay is True
    monkeypatch.delenv("REPRO_NO_REPLAY")
    assert scanphase.make_runtime(config, replay=False).replay is False


def test_spawn_and_spawn_phases_are_mutually_exclusive():
    config = MachineConfig(total_processors=2, cluster_size=1)

    def factory(env, phase):
        def gen():
            yield from env.barrier()

        return gen()

    def worker(env):
        yield from env.compute(1)

    rt = Runtime(config)
    rt.spawn(worker)
    with pytest.raises(RuntimeError, match="cannot be mixed"):
        rt.spawn_phases(factory, 2)

    rt = Runtime(config)
    rt.spawn_phases(factory, 2)
    with pytest.raises(RuntimeError, match="cannot be mixed"):
        rt.spawn(worker)
