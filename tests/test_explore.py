"""The bounded model checker and the stateful walk harness.

Three layers, mirroring docs/ANALYSIS.md:

* **Exhaustive runs are clean** — on every engine the checker visits the
  full 2-thread × 1-page interleaving space of the default program and
  finds no violation (and no truncation: the space really is exhausted).
* **Mutations are caught, deterministically** — seeded corruptions are
  found with a minimal schedule, the same schedule every run (BFS over a
  deterministic simulator), and the rendered counterexample matches the
  golden traces pinned under ``results/``.
* **The explorer beats the fuzz suite** — for each mutation the
  counterexample costs fewer simulator events than the shortest failing
  storm ``tests/test_protocol_fuzz.py``'s discipline can find.

The full cross-engine matrix (every engine exhausted, every mutation
benchmarked against the fuzz baseline, mutation walks) runs when
``REPRO_EXPLORE_FULL=1`` — CI's ``explore`` job sets it; the default run
keeps a representative slice so the suite stays fast.
"""

import os
from pathlib import Path

import pytest

from repro.analysis.explore import (
    MUTATION_SETUPS,
    ExploreConfig,
    counterexample_trace,
    default_programs,
    explore,
    fuzz_shortest_failure,
    mutation_benchmark,
    run_walk,
)
from repro.core.engine import engine_names

FULL = bool(os.environ.get("REPRO_EXPLORE_FULL"))
full_only = pytest.mark.skipif(
    not FULL, reason="full explore matrix (set REPRO_EXPLORE_FULL=1)"
)

RESULTS = Path(__file__).resolve().parent.parent / "results"

#: traces pinned under results/ — regenerated and compared exactly
GOLDEN = ("double_rack", "sc_shared_writer")


# ---------------------------------------------------------------------------
# exhaustive clean runs
# ---------------------------------------------------------------------------


#: (states, transitions) of the default program, per engine.  The state
#: key is a canonical encoding of the machine, so a change to how any
#: component is stored must neither merge nor split states.
STATE_COUNTS = {
    "gcs": (584, 815),
    "mgs": (1052, 1423),
    "sc_pages": (626, 879),
    "swdsm": (433, 604),
}


@pytest.mark.parametrize("engine", sorted(engine_names()))
def test_exhaustive_state_space_is_clean(engine):
    """2 threads x 1 page fully exhausted, zero violations, any engine."""
    cfg = ExploreConfig(engine=engine)
    report = explore(cfg)
    assert not report.caught, report.summary()
    assert not report.truncated, "state cap hit: not actually exhaustive"
    assert report.states > 100, "suspiciously small space"
    assert (report.states, report.edges) == STATE_COUNTS[engine]


# ---------------------------------------------------------------------------
# determinism: same mutation -> same minimal counterexample
# ---------------------------------------------------------------------------


def test_counterexample_shrinking_is_deterministic():
    setup = MUTATION_SETUPS["dir_exclusion"]
    first = explore(setup.cfg, setup.programs, mutation="dir_exclusion")
    second = explore(setup.cfg, setup.programs, mutation="dir_exclusion")
    assert first.caught and second.caught
    assert first.schedule == second.schedule
    assert first.events == second.events
    assert (
        counterexample_trace(setup.cfg, first, setup.programs)
        == counterexample_trace(setup.cfg, second, setup.programs)
    )


def test_walk_shrinking_is_deterministic():
    """Derandomized hypothesis shrinks to the same trace every run."""
    runs = [
        run_walk("mgs", mutation="dir_exclusion", max_examples=40)
        for _ in range(2)
    ]
    assert all(failed for failed, _trace in runs)
    assert runs[0][1] == runs[1][1]


@pytest.mark.parametrize("name", GOLDEN)
def test_golden_counterexample_traces(name):
    """The pinned minimized traces under results/ regenerate exactly."""
    setup = MUTATION_SETUPS[name]
    report = explore(setup.cfg, setup.programs, mutation=name)
    assert report.caught, report.summary()
    rendered = counterexample_trace(setup.cfg, report, setup.programs)
    golden = (RESULTS / f"explore_trace_{name}.txt").read_text()
    assert rendered.strip() == golden.strip()


# ---------------------------------------------------------------------------
# the explorer vs. the fuzz suite
# ---------------------------------------------------------------------------


def test_explorer_beats_fuzz_on_representative_mutation():
    """Strictly fewer simulator events than the shortest failing storm."""
    setup = MUTATION_SETUPS["drop_twin"]
    report = explore(setup.cfg, setup.programs, mutation="drop_twin")
    assert report.caught
    fuzz_events = fuzz_shortest_failure("mgs", "drop_twin", max_examples=25)
    assert fuzz_events is not None, "fuzz baseline should catch drop_twin"
    assert report.events < fuzz_events


@full_only
def test_mutation_benchmark_full_matrix():
    """Every mutation: caught, and strictly shorter than the fuzz find."""
    rows = mutation_benchmark()
    assert [r.mutation for r in rows] == sorted(MUTATION_SETUPS)
    bad = [r.summary() for r in rows if not r.strictly_shorter]
    assert not bad, "\n".join(bad)


# ---------------------------------------------------------------------------
# the stateful walk harness
# ---------------------------------------------------------------------------


def test_unmutated_walk_is_clean():
    failed, trace = run_walk("mgs", max_examples=10)
    assert not failed, trace


def test_faulty_net_walk_is_clean():
    """Transport drop/dup/delay faults never corrupt protocol state."""
    failed, trace = run_walk("gcs", faulty_net=True, max_examples=8)
    assert not failed, trace


@full_only
@pytest.mark.parametrize("engine", sorted(engine_names()))
def test_unmutated_walk_is_clean_all_engines(engine):
    failed, trace = run_walk(engine, max_examples=20)
    assert not failed, trace


# ---------------------------------------------------------------------------
# program / config plumbing
# ---------------------------------------------------------------------------


def test_default_programs_cover_the_op_vocabulary():
    cfg = ExploreConfig(engine="mgs", threads=3)
    programs = default_programs(cfg)
    assert len(programs) == 3
    ops = {op[0] for program in programs for op in program}
    assert ops == {"read", "write", "lock", "unlock", "barrier"}


def test_explore_rejects_unknown_mutation_engine():
    with pytest.raises(ValueError):
        explore(ExploreConfig(engine="mgs"), mutation="swdsm_lost_iack")
