"""The packed-int line directory against a per-line reference.

``CacheSystem`` keeps each line's state as one int and works its
batched probes (``hit_run``, ``hit_lines``, ``access_run``) a group of
consecutive equal-state lines at a time.  The references below are the
per-line loops those probes replaced, written from ``access`` and the
public state accessors alone — the way ``tests/word_loops.py`` serves
``Env`` — and a hypothesis property pins the batched probes to them:
same ``(lines, charge)``, same class counts, same state for every line.

The last tests pin the phase digest's fallback for machines whose
packed states do not fit int64 (more than 57 processors), and that the
directory's storage stays private to ``repro.hw``.
"""

import copy
import re
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import scanphase
from repro.hw import AccessClass, CacheSystem
from repro.params import CostModel, MachineConfig
from repro.runtime.replay import PhaseRecorder

COSTS = CostModel()

#: lines of the probed window; pre-states are laid out over it in runs
WINDOW = 24


# ---------------------------------------------------------------------------
# references, built on access()
# ---------------------------------------------------------------------------


def _is_hit(cache, cluster, pid, line, is_write):
    """Whether ``access`` would classify this access as a hit."""
    probe = copy.deepcopy(cache)
    before = probe.stats[AccessClass.HIT]
    probe.access(cluster, pid, line, is_write, 0)
    return probe.stats[AccessClass.HIT] > before


def ref_hit_run(cache, cluster, pid, first_line, max_lines, is_write):
    n = 0
    while n < max_lines and _is_hit(
        cache, cluster, pid, first_line + n, is_write
    ):
        n += 1
    return n


def ref_hit_lines(cache, cluster, pid, lines, is_write):
    return all(_is_hit(cache, cluster, pid, line, is_write) for line in lines)


def ref_access_run(
    cache, cluster, pid, first_line, is_write, home_pid, extras, budget,
    needs=None,
):
    """One ``access`` per line, admitted under the worst-case bound.

    ``needs``, when given, collects each considered line's admission
    threshold: the least budget that admits it.
    """
    total = 0
    k = 0
    for extra in extras:
        line = first_line + k
        if _is_hit(cache, cluster, pid, line, is_write):
            break
        state = cache.line_state(cluster, line)
        sharers = cache.decode(state)[1] if state is not None else ()
        bound = (
            COSTS.miss_software_dir
            if len(sharers) > cache.config.hw_dir_pointers
            else cache.worst_hw_miss
        )
        if needs is not None:
            needs.append(total + bound + extra)
        if total + bound + extra > budget:
            break
        total += cache.access(cluster, pid, line, is_write, home_pid) + extra
        k += 1
    return k, total


# ---------------------------------------------------------------------------
# random directories
# ---------------------------------------------------------------------------


@st.composite
def directories(draw):
    """A cache whose window holds runs of equal pre-states: uncached,
    owned by one processor, or shared by a set that may outgrow the
    hardware pointers."""
    nprocs = draw(st.sampled_from([4, 8, 16]))
    ptrs = draw(st.sampled_from([1, 2, 5]))
    config = MachineConfig(
        total_processors=nprocs, cluster_size=nprocs, hw_dir_pointers=ptrs
    )
    cache = CacheSystem(config, COSTS)
    pids = st.integers(0, nprocs - 1)
    line = 0
    while line < WINDOW:
        length = draw(st.integers(1, 8))
        kind = draw(st.sampled_from(["cold", "owned", "shared"]))
        owner = draw(pids)
        readers = draw(
            st.lists(pids, min_size=1, max_size=2)
            | st.lists(pids, min_size=1, max_size=nprocs)
        )
        home = draw(pids)
        for x in range(line, min(line + length, WINDOW)):
            if kind == "owned":
                cache.access(0, owner, x, True, home)
            elif kind == "shared":
                for reader in readers:
                    cache.access(0, reader, x, False, home)
        line += length
    return cache


def _snapshot(cache):
    return (
        cache.stats,
        [cache.line_state(0, line) for line in range(WINDOW + 8)],
        list(cache.line_states(0).items()),
    )


@settings(max_examples=300, deadline=None)
@given(cache=directories(), data=st.data())
def test_access_run_matches_per_line_reference(cache, data):
    """A few runs in a row on one directory, each checked against the
    reference applied to a twin."""
    pids = st.integers(0, cache.config.total_processors - 1)
    reference = copy.deepcopy(cache)
    for _ in range(data.draw(st.integers(1, 4))):
        pid = data.draw(pids)
        is_write = data.draw(st.booleans())
        first = data.draw(st.integers(0, WINDOW - 1))
        # The home inside or outside the first line's sharers / owner.
        state = cache.line_state(0, first)
        owner, sharers = (
            cache.decode(state) if state is not None else (-1, frozenset())
        )
        parties = {pid, owner, *sharers} - {-1}
        home = data.draw(st.sampled_from(sorted(parties)) | pids)
        extras = data.draw(
            st.lists(st.integers(0, 40), max_size=WINDOW - first)
        )
        # A budget that cuts the run right before or right after any
        # line — inside a group included — or one that admits it all.
        needs = []
        ref_access_run(
            copy.deepcopy(reference), 0, pid, first, is_write, home,
            extras, budget=10**9, needs=needs,
        )
        budget = data.draw(
            st.sampled_from([n - 1 for n in needs] + needs + [10**9])
        )
        got = cache.access_run(0, pid, first, is_write, home, extras, budget)
        want = ref_access_run(
            reference, 0, pid, first, is_write, home, extras, budget
        )
        assert got == want
        assert _snapshot(cache) == _snapshot(reference)


@settings(max_examples=300, deadline=None)
@given(cache=directories(), data=st.data())
def test_hit_probes_match_per_line_reference(cache, data):
    nprocs = cache.config.total_processors
    pid = data.draw(st.integers(0, nprocs - 1))
    is_write = data.draw(st.booleans())
    first = data.draw(st.integers(0, WINDOW - 1))
    max_lines = data.draw(st.integers(0, WINDOW + 4 - first))
    lines = data.draw(st.lists(st.integers(0, WINDOW + 4), max_size=10))
    before = _snapshot(cache)
    assert cache.hit_run(0, pid, first, max_lines, is_write) == ref_hit_run(
        cache, 0, pid, first, max_lines, is_write
    )
    assert cache.hit_lines(0, pid, lines, is_write) == ref_hit_lines(
        cache, 0, pid, lines, is_write
    )
    assert _snapshot(cache) == before  # read-only probes


def test_decode_round_trip():
    config = MachineConfig(total_processors=8, cluster_size=8)
    cache = CacheSystem(config, COSTS)
    assert cache.line_state(0, 3) is None
    cache.access(0, 5, 3, True, 0)
    assert cache.decode(cache.line_state(0, 3)) == (5, frozenset())
    cache.access(0, 2, 3, False, 0)  # the owner is downgraded to a sharer
    assert cache.decode(cache.line_state(0, 3)) == (-1, {2, 5})
    cache.access(0, 7, 3, False, 0)
    assert cache.decode(cache.line_state(0, 3)) == (-1, {2, 5, 7})


# ---------------------------------------------------------------------------
# the phase digest past int64
# ---------------------------------------------------------------------------


def _scan_runtime(replay=True):
    config = MachineConfig(total_processors=64, cluster_size=8)
    rt = scanphase.make_runtime(config, replay=replay)
    params = scanphase.ScanPhaseParams(words=1024, phases=3, chunk=8)
    scanphase.build(rt, params)
    return rt


def test_digest_fallback_at_64_processors():
    """At P = 64 a packed state needs 71 bits: the digest hashes the
    (line, state) pairs as Python ints instead, and still tells apart
    states that differ only in a high sharer bit."""
    rt, twin = _scan_runtime(), _scan_runtime()
    assert rt.cache.state_bits > 63
    for cache in (rt.cache, twin.cache):
        cache.access(7, 56, 10, False, 56)
    assert (
        PhaseRecorder(rt).state_digest("k")
        == PhaseRecorder(twin).state_digest("k")
    )
    rt.cache.access(7, 63, 10, False, 56)  # sharer bit 70
    twin.cache.access(7, 62, 10, False, 56)  # sharer bit 69
    assert (
        PhaseRecorder(rt).state_digest("k")
        != PhaseRecorder(twin).state_digest("k")
    )


def test_replay_on_matches_off_at_64_processors():
    results = []
    for replay in (True, False):
        rt = _scan_runtime(replay)
        result = rt.run()
        results.append(
            (result.total_time, dict(result.cache_stats), rt.sim.events_processed)
        )
    assert results[0] == results[1]


# ---------------------------------------------------------------------------
# encapsulation
# ---------------------------------------------------------------------------

ROOT = Path(__file__).resolve().parent.parent


def test_no_module_outside_hw_reads_the_directory():
    """Other packages go through ``line_state``/``line_states``; only
    ``repro.hw`` may touch the storage behind them."""
    private = re.compile(r"\.(_lines)\b")
    hw = ROOT / "src" / "repro" / "hw"
    offenders = []
    for top in ("src", "tests", "perfbench", "benchmarks", "examples"):
        for path in sorted((ROOT / top).rglob("*.py")):
            if hw in path.parents:
                continue
            for n, text in enumerate(path.read_text().splitlines(), 1):
                if private.search(text):
                    offenders.append(f"{path.relative_to(ROOT)}:{n}")
    assert not offenders, offenders
