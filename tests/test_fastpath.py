"""``Env``'s batched memory operations are invisible except for wall-clock.

``read_block``/``write_block``/``read_many``/``write_many`` resolve a
whole run of accesses in one call.  These tests pin the contract:

* the batched operations charge exactly the same cycles as the
  equivalent loop of single-word accesses (same thread clocks, same
  cache and protocol stats, same simulator event count), whether the
  program spells the loop out or the operations are swapped for their
  word-loop references (:mod:`tests.word_loops`) — including across
  faults and quantum pauses that land mid-block;
* ``write_many`` rejects mismatched lengths before charging anything;
* the quantum boundary is strict (> quantum pauses, == quantum does
  not).
"""

import types

import pytest

from repro.params import WORD_BYTES, MachineConfig
from repro.runtime import Runtime
from tests.word_loops import word_loops


def _config(total=4, cluster=2):
    return MachineConfig(total_processors=total, cluster_size=cluster)


def _state(rt, result):
    """Every externally visible cycle-level fact about a finished run."""
    return {
        "total_time": result.total_time,
        "threads": [
            (t.time, t.user, t.lock, t.barrier, t.mgs, t.finish_time)
            for t in result.threads
        ],
        "cache": dict(result.cache_stats),
        "protocol": dict(result.protocol_stats),
        "messages": (result.messages_inter_ssmp, result.messages_intra_ssmp),
        "events": rt.sim.events_processed,
    }


def _run(worker_factory, *, reference=False, quantum=1500, total=4, cluster=2):
    """Run one workload; returns (state, values captured by the workers).

    ``reference`` swaps the batched operations for their word loops.
    """
    with word_loops(reference):
        rt = Runtime(_config(total, cluster), quantum=quantum)
        nwords = 64 * total
        arr = rt.array("data", nwords)
        arr.init([float(i) * 0.5 for i in range(nwords)])
        captured = []
        rt.spawn_all(worker_factory(arr, nwords, captured))
        result = rt.run()
    return _state(rt, result), captured


def _assert_equivalent(worker_a, worker_b, quantum=1500, total=4, cluster=2):
    """workers a and b must produce identical machines, with the batched
    operations and with their word-loop references."""
    states = {}
    values = {}
    for name, factory in (("a", worker_a), ("b", worker_b)):
        for reference in (False, True):
            states[name, reference], values[name, reference] = _run(
                factory,
                reference=reference,
                quantum=quantum,
                total=total,
                cluster=cluster,
            )
    baseline = states["a", False]
    base_values = values["a", False]
    for key, state in states.items():
        assert state == baseline, f"{key} diverged from (a, batched)"
        assert values[key] == base_values, f"{key} read different data"


# ---------------------------------------------------------------------------
# block/many APIs == loops of single-word accesses
# ---------------------------------------------------------------------------


def _reader_block(arr, nwords, captured):
    # Every processor streams someone else's stripe, so blocks cross
    # pages owned by remote clusters and fault mid-block.
    def worker(env):
        per = nwords // env.nprocs
        victim = (env.pid + 1) % env.nprocs
        base = arr.addr(victim * per)
        for _ in range(3):
            vals = yield from env.read_block(base, per)
            captured.append(vals)
        yield from env.barrier()

    return worker


def _reader_loop(arr, nwords, captured):
    def worker(env):
        per = nwords // env.nprocs
        victim = (env.pid + 1) % env.nprocs
        base = arr.addr(victim * per)
        for _ in range(3):
            vals = []
            for w in range(per):
                v = yield from env.read(base + w * WORD_BYTES)
                vals.append(v)
            captured.append(vals)
        yield from env.barrier()

    return worker


def test_read_block_equals_read_loop():
    _assert_equivalent(_reader_block, _reader_loop)
    # C == P: the hardware-only configuration's home-copy path
    _assert_equivalent(_reader_block, _reader_loop, cluster=4)


def test_read_block_equals_read_loop_with_tiny_quantum():
    # quantum 97 forces pauses inside nearly every block, exercising the
    # mid-run re-resolve path and the pause-then-append ordering.
    _assert_equivalent(_reader_block, _reader_loop, quantum=97)


#: words in a warm repeat: its all-hit charge (16 x 20 cycles) fits a
#: fresh 1500-cycle quantum, so the vector paths take it, and overruns a
#: 97-cycle one, so they must bail to the word loop
_WARM = 16


def _many_strided(arr, nwords, captured):
    def worker(env):
        per = nwords // env.nprocs
        addrs = tuple(
            arr.addr((env.pid * per + 7 * k) % nwords) for k in range(per)
        )
        vals = yield from env.read_many(addrs)
        captured.append(vals)
        # a fresh quantum, then a warm (all-hit) repeat
        yield from env.compute(1501)
        vals = yield from env.read_many(addrs[:_WARM])
        captured.append(vals)
        yield from env.barrier()

    return worker


def _many_as_loop(arr, nwords, captured):
    def worker(env):
        per = nwords // env.nprocs
        addrs = tuple(
            arr.addr((env.pid * per + 7 * k) % nwords) for k in range(per)
        )
        vals = []
        for a in addrs:
            v = yield from env.read(a)
            vals.append(v)
        captured.append(vals)
        yield from env.compute(1501)
        vals = []
        for a in addrs[:_WARM]:
            v = yield from env.read(a)
            vals.append(v)
        captured.append(vals)
        yield from env.barrier()

    return worker


def test_read_many_equals_read_loop():
    _assert_equivalent(_many_strided, _many_as_loop)
    _assert_equivalent(_many_strided, _many_as_loop, quantum=97)


def _writer_block(arr, nwords, captured):
    def worker(env):
        per = nwords // env.nprocs
        base = arr.addr(env.pid * per)
        values = [float(env.pid * 1000 + w) for w in range(per)]
        yield from env.write_block(base, [-1.0] * per)
        yield from env.compute(1501)
        yield from env.write_block(base, values[:_WARM])
        yield from env.write_block(base + _WARM * WORD_BYTES, values[_WARM:])
        yield from env.barrier()
        # read back a neighbour's stripe so the stores are observable
        victim = (env.pid + 1) % env.nprocs
        got = yield from env.read_block(arr.addr(victim * per), per)
        captured.append((env.pid, got))
        yield from env.barrier()

    return worker


def _writer_loop(arr, nwords, captured):
    def worker(env):
        per = nwords // env.nprocs
        base = arr.addr(env.pid * per)
        for w in range(per):
            yield from env.write(base + w * WORD_BYTES, -1.0)
        yield from env.compute(1501)
        for w in range(per):
            yield from env.write(base + w * WORD_BYTES, float(env.pid * 1000 + w))
        yield from env.barrier()
        victim = (env.pid + 1) % env.nprocs
        got = []
        for w in range(per):
            v = yield from env.read(arr.addr(victim * per) + w * WORD_BYTES)
            got.append(v)
        captured.append((env.pid, got))
        yield from env.barrier()

    return worker


def test_write_block_equals_write_loop():
    _assert_equivalent(_writer_block, _writer_loop)
    _assert_equivalent(_writer_block, _writer_loop, cluster=4)
    _assert_equivalent(_writer_block, _writer_loop, quantum=97)


def _scatter_plan(env, nwords):
    """Disjoint per-pid write targets: a permutation of the worker's own
    stripe, then (after a barrier) a scatter into the stripe of a worker
    in the *other* cluster — so the vectorized path sees both the all-hit
    case and cross-cluster ownership faults.  Strides 5 and 3 are coprime
    to the stripe length, so no worker ever writes a word twice and no
    two workers ever write the same word in the same phase."""
    per = nwords // env.nprocs
    base = env.pid * per
    own = tuple(base + (5 * k) % per for k in range(per))
    victim = ((env.pid + 2) % env.nprocs) * per
    cross = tuple(victim + (3 * k) % per for k in range(per // 2))
    return own, cross


def _readback(arr, nwords, env, captured):
    per = nwords // env.nprocs
    got = yield from env.read_block(arr.addr(env.pid * per), per)
    captured.append((env.pid, got))


def _writer_many(arr, nwords, captured):
    def worker(env):
        own, cross = _scatter_plan(env, nwords)
        yield from env.write_many(
            tuple(arr.addr(w) for w in own),
            [float(env.pid * 1000 + i) for i in range(len(own))],
        )
        yield from env.compute(1501)
        yield from env.write_many(
            tuple(arr.addr(w) for w in own[:_WARM]),
            [float(env.pid * 2000 + i) for i in range(_WARM)],
        )
        yield from env.barrier()
        yield from env.write_many(
            tuple(arr.addr(w) for w in cross),
            [float(env.pid * 77 + i) for i in range(len(cross))],
        )
        yield from env.barrier()
        yield from _readback(arr, nwords, env, captured)
        yield from env.barrier()

    return worker


def _writer_many_loop(arr, nwords, captured):
    def worker(env):
        own, cross = _scatter_plan(env, nwords)
        for i, w in enumerate(own):
            yield from env.write(arr.addr(w), float(env.pid * 1000 + i))
        yield from env.compute(1501)
        for i, w in enumerate(own[:_WARM]):
            yield from env.write(arr.addr(w), float(env.pid * 2000 + i))
        yield from env.barrier()
        for i, w in enumerate(cross):
            yield from env.write(arr.addr(w), float(env.pid * 77 + i))
        yield from env.barrier()
        yield from _readback(arr, nwords, env, captured)
        yield from env.barrier()

    return worker


def test_write_many_equals_write_loop():
    _assert_equivalent(_writer_many, _writer_many_loop)
    _assert_equivalent(_writer_many, _writer_many_loop, cluster=4)


def test_write_many_equals_write_loop_with_tiny_quantum():
    # quantum 97 pauses inside nearly every scatter: the budget bail in
    # the vector path and the store-before-pause ordering both fire.
    _assert_equivalent(_writer_many, _writer_many_loop, quantum=97)


def _dup_plan(env, nwords):
    """Own-stripe scatter where the tail re-targets earlier words: the
    vector path must bail (numpy fancy assignment has no last-wins
    guarantee) and the per-word order defines the final data."""
    per = nwords // env.nprocs
    base = env.pid * per
    addrs = tuple(base + (5 * k) % per for k in range(per)) + tuple(
        base + k for k in range(6)
    )
    return addrs


def _writer_many_dup(arr, nwords, captured):
    def worker(env):
        addrs = _dup_plan(env, nwords)
        yield from env.write_many(
            tuple(arr.addr(w) for w in addrs),
            [float(env.pid * 31 + i) for i in range(len(addrs))],
        )
        yield from env.barrier()
        yield from _readback(arr, nwords, env, captured)
        yield from env.barrier()

    return worker


def _writer_many_dup_loop(arr, nwords, captured):
    def worker(env):
        addrs = _dup_plan(env, nwords)
        for i, w in enumerate(addrs):
            yield from env.write(arr.addr(w), float(env.pid * 31 + i))
        yield from env.barrier()
        yield from _readback(arr, nwords, env, captured)
        yield from env.barrier()

    return worker


def test_write_many_duplicate_addresses_are_last_wins():
    _assert_equivalent(_writer_many_dup, _writer_many_dup_loop)
    _assert_equivalent(_writer_many_dup, _writer_many_dup_loop, quantum=97)


def test_word_loops_bind_every_batched_operation():
    # the reference comparisons above are only meaningful if the swap
    # reaches the Envs that actually run
    def idle(env):
        yield from env.compute(0)

    with word_loops():
        rt = Runtime(_config())
        rt.spawn_all(idle)
    for env in rt.envs:
        for op in ("read_block", "write_block", "read_many", "write_many"):
            assert getattr(env, op).__func__.__module__ == "tests.word_loops"


def test_written_values_are_the_values_read_back():
    _, captured = _run(_writer_block)
    per = (64 * 4) // 4
    assert sorted(pid for pid, _ in captured) == [0, 1, 2, 3]
    for pid, got in captured:
        victim = (pid + 1) % 4
        assert got == [float(victim * 1000 + w) for w in range(per)]


def _contended(arr, nwords, captured):
    """Every worker runs every batched operation over one shared region,
    so lines change hands while a batch is paused and a batch must
    forget what it learned before each pause."""

    def worker(env):
        region = tuple(arr.addr(w) for w in range(48))
        for k in range(4):
            vals = yield from env.read_many(region)
            yield from env.write_many(region[:16], [v + env.pid for v in vals[:16]])
            row = yield from env.read_block(region[0], 48)
            yield from env.write_block(region[8 * env.pid], row[k : k + 16])
            captured.append((env.pid, k, row))
        yield from env.barrier()

    return worker


@pytest.mark.parametrize("quantum", [1500, 97])
def test_contended_batches_equal_word_loops(quantum):
    _assert_equivalent(_contended, _contended, quantum=quantum)


@pytest.mark.parametrize("warm", [False, True])
def test_write_many_rejects_length_mismatch_before_charging(warm):
    # 12 addresses, 10 values.  Cold, the batch would fault and take the
    # per-word loop; warm (every line already owned), it would take the
    # all-hit vector path.  Either way nothing may be charged or stored.
    rt = Runtime(_config(total=2, cluster=1))
    arr = rt.array("data", 64, home=0)
    arr.init([float(i) for i in range(64)])
    addrs = tuple(arr.addr(i) for i in range(12))
    seen = []

    def worker(env):
        if env.pid != 0:
            return
        if warm:
            yield from env.write_block(arr.addr(0), [-1.0] * 12)
        before = (env.now, dict(rt.cache.stats))
        try:
            yield from env.write_many(addrs, [7.0] * 10)
        except ValueError as exc:
            seen.append((before, (env.now, dict(rt.cache.stats)), str(exc)))
        yield from env.compute(0)

    rt.spawn_all(worker)
    rt.run()
    assert len(seen) == 1
    before, after, message = seen[0]
    assert after == before
    assert "12 addresses" in message and "10 values" in message
    data = arr.snapshot()[:12].tolist()
    assert data == ([-1.0] * 12 if warm else [float(i) for i in range(12)])


# ---------------------------------------------------------------------------
# quantum boundary
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("races", [False, True])
def test_compute_exactly_one_quantum_does_not_pause(races):
    # The race detector rebinds the Env operations per instance; the
    # quantum boundary must hold with and without it.
    q = 1500

    def events_for(cycles):
        rt = Runtime(
            _config(total=1, cluster=1),
            quantum=q,
            analysis="races" if races else None,
        )

        def worker(env):
            yield from env.compute(cycles)

        rt.spawn(worker)
        rt.run()
        return rt.sim.events_processed

    at_quantum = events_for(q)
    # the boundary is strict: == quantum runs on, > quantum pauses once,
    # and the pause is exactly one extra resume event
    assert events_for(q - 1) == at_quantum
    assert events_for(q + 1) == at_quantum + 1


@pytest.mark.parametrize("races", [False, True])
def test_pause_resets_the_quantum_budget(races):
    q = 100

    def events_for(chunks):
        rt = Runtime(
            _config(total=1, cluster=1),
            quantum=q,
            analysis="races" if races else None,
        )

        def worker(env):
            for _ in range(chunks):
                yield from env.compute(q + 1)

        rt.spawn(worker)
        rt.run()
        return rt.sim.events_processed

    # each over-quantum chunk pauses exactly once
    assert events_for(4) == events_for(1) + 3


# ---------------------------------------------------------------------------
# race detection
# ---------------------------------------------------------------------------


def _mixed(arr, nwords, captured):
    """Every operation, each call in its own burst."""

    def worker(env):
        base = arr.addr(env.pid * 64)
        for k in range(8):
            yield from env.compute(1501)
            v = yield from env.read(base + k * WORD_BYTES)
            yield from env.write(base + k * WORD_BYTES, v + 1.0)
            vals = yield from env.read_block(base, 16)
            yield from env.write_block(base, vals)
            vals = yield from env.read_many((base, base + 8 * WORD_BYTES))
            yield from env.write_many((base, base + 8 * WORD_BYTES), vals)
        captured.append(env.pid)

    return worker


_OPS = ("read", "write", "read_block", "write_block", "read_many", "write_many")


def test_race_detector_wrappers_stay_bound_after_a_run():
    # The detector rebinds the six operations per instance to recording
    # wrappers; nothing may rebind over them during a run, or race
    # coverage would silently drop.
    rt = Runtime(_config(), quantum=1500, analysis="races")
    arr = rt.array("data", 64 * 4)
    arr.init([float(i) for i in range(64 * 4)])
    rt.spawn_all(_mixed(arr, 64 * 4, []))
    rt.run()
    assert rt.race_detector is not None
    assert len(rt.envs) == 4
    for env in rt.envs:
        for op in _OPS:
            assert not isinstance(getattr(env, op), types.MethodType), op
