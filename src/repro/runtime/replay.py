"""Closed-form phase replay: stop re-simulating proven-deterministic work.

Phased applications (:meth:`repro.runtime.runner.Runtime.spawn_phases`)
execute as a sequence of barrier-delimited phases, each driven by a fresh
generator.  Because the simulator is deterministic, a phase's entire
effect is a pure function of the machine state it starts from: if the
state at a phase boundary has been seen before, the phase will replay
the exact same events, charge the exact same cycles, and land in the
exact same successor state.  This module makes that observation
executable:

* :meth:`PhaseRecorder.state_digest` hashes every behavior-bearing piece
  of machine state at a phase boundary — thread clock skews, TLB
  mappings, the hardware line directory, lock and barrier state, handler
  occupancy, interconnect reservations, and the coherence engine's own
  state via the :meth:`repro.core.engine.Protocol.phase_state` hook
  (page frames, home directories, page *contents*, per-processor
  queues).  Engines that do not implement the hook simply never replay.
* The first time a phase executes from a given digest, the recorder
  captures its full effect as a delta: the per-thread cycle-bucket
  advances, the event count, and the change in every statistic the
  simulation reports (coherence class counts, message flows and
  transaction-latency samples, protocol counters, per-page stats,
  handler totals, TLB fill counts, lock and barrier counters).
* A phase is **replayable** only when its recorded execution left the
  digest unchanged — a state-idempotent phase.  Replay application is
  then a pure time translation: advance every clock by the recorded
  span, add the recorded statistics, and skip the events.  Nothing needs
  to be restored, so nothing can be restored incorrectly.

Clock-like values (handler ``free_at``, interconnect reservations) are
digested *relative to the phase base time*, clamped at zero: any value
at or before the base is behaviorally identical to "free now", because
no future event can be scheduled before the earliest thread clock.

Replay is automatically disabled when fault injection or the reliable
transport is active (their behavior depends on absolute counters the
digest cannot translate) and when the analysis checkers are attached
(they observe the messages replay elides).  ``REPRO_NO_REPLAY=1`` turns
it off everywhere; ``tests/test_replay.py`` pins replay-on against
replay-off bit-for-bit for every registered engine.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
from array import array
from typing import TYPE_CHECKING, Any

import numpy as np

if TYPE_CHECKING:
    from repro.runtime.runner import Runtime

__all__ = [
    "PhaseRecorder",
    "array_digest",
    "replay_enabled_default",
]


def replay_enabled_default() -> bool:
    """Whether phased runtimes record and replay repeated phases.

    On by default; set ``REPRO_NO_REPLAY=1`` (or ``true``/``yes``) to
    force every phase to execute.  Both modes are bit-for-bit identical.
    """
    return os.environ.get("REPRO_NO_REPLAY", "").strip().lower() not in (
        "1",
        "true",
        "yes",
    )


def array_digest(arr: np.ndarray) -> bytes:
    """Fast content hash of a page-sized numpy array."""
    return hashlib.blake2b(arr.tobytes(), digest_size=16).digest()


class _StatCells:
    """Live references to every statistic a phase can change.

    The recorder snapshots these before an execution, computes the delta
    afterwards, and re-applies the delta on replay.  Statistics are
    *excluded* from the state digest (a monotone counter would make every
    phase unique); carrying them in the delta keeps a replayed run's
    :class:`~repro.runtime.runner.RunResult` identical to an executed
    one's.
    """

    def __init__(self, rt: "Runtime") -> None:
        machine = rt.machine
        bus = rt.protocol.bus
        # (obj, attr) pairs holding plain integer counters.
        self.ints: list[tuple[Any, str]] = []
        for f in dataclasses.fields(type(machine.stats)):
            if isinstance(getattr(machine.stats, f.name), int):
                self.ints.append((machine.stats, f.name))
        for proc in machine.processors:
            self.ints.append((proc, "handler_cycles_total"))
            self.ints.append((proc, "messages_handled"))
        for tlb in rt.protocol.tlbs:
            self.ints.append((tlb, "fills"))
            self.ints.append((tlb, "invalidations"))
        for lk in rt.locks:
            for attr in ("acquires", "hits", "token_transfers"):
                self.ints.append((lk.stats, attr))
        self.ints.append((rt.barrier_obj, "episodes"))
        self.ints.append((bus, "_next_txn"))
        for t in rt.threads:
            for attr in ("user", "lock", "barrier", "mgs"):
                self.ints.append((t, attr))
        self.ints.extend(rt.protocol.phase_stat_cells())
        # Flat ``key -> int`` dicts (Counters included).
        self.flats: list[dict] = [
            machine.stats.by_label,
            machine.stats.queue_cycles_by_link,
            machine.stats.retransmits_by_link,
            rt.protocol.stats.counters,
        ]
        #: ``key -> {key -> int}`` (per-page protocol event counts)
        self.nested: dict = rt.protocol.page_stats
        #: per-MsgType delivered count/bytes/latency records
        self.flows: dict = bus.flows
        #: append-only transaction latency sample logs
        self.latencies: dict = bus.latencies
        #: fixed-slot hardware access-class counters
        self.cache_counts: list[int] = rt.cache._counts

    def snapshot(self) -> tuple:
        return (
            [getattr(obj, attr) for obj, attr in self.ints],
            [dict(d) for d in self.flats],
            {k: dict(v) for k, v in self.nested.items()},
            {k: (f.count, f.bytes, f.latency_cycles) for k, f in self.flows.items()},
            {k: len(v) for k, v in self.latencies.items()},
            list(self.cache_counts),
        )

    def delta(self, pre: tuple) -> tuple:
        """Difference between the live state and the ``pre`` snapshot."""
        ints0, flats0, nested0, flows0, lats0, counts0 = pre
        dints = [
            getattr(obj, attr) - v0 for (obj, attr), v0 in zip(self.ints, ints0)
        ]
        dflats = []
        for live, d0 in zip(self.flats, flats0):
            dflats.append(
                {k: v - d0.get(k, 0) for k, v in live.items() if v != d0.get(k, 0)}
            )
        dnested = {}
        for k, inner in self.nested.items():
            i0 = nested0.get(k, {})
            diff = {kk: v - i0.get(kk, 0) for kk, v in inner.items() if v != i0.get(kk, 0)}
            if diff:
                dnested[k] = diff
        dflows = {}
        for k, f in self.flows.items():
            c0, b0, l0 = flows0.get(k, (0, 0, 0))
            if (f.count, f.bytes, f.latency_cycles) != (c0, b0, l0):
                dflows[k] = (f.count - c0, f.bytes - b0, f.latency_cycles - l0)
        dlats = {}
        for k, samples in self.latencies.items():
            n0 = lats0.get(k, 0)
            if len(samples) > n0:
                dlats[k] = list(samples[n0:])
        dcounts = [v - v0 for v, v0 in zip(self.cache_counts, counts0)]
        return (dints, dflats, dnested, dflows, dlats, dcounts)

    def apply(self, delta: tuple) -> None:
        from repro.core.bus import MessageFlow

        dints, dflats, dnested, dflows, dlats, dcounts = delta
        for (obj, attr), d in zip(self.ints, dints):
            if d:
                setattr(obj, attr, getattr(obj, attr) + d)
        for live, dd in zip(self.flats, dflats):
            for k, d in dd.items():
                live[k] = live.get(k, 0) + d
        for k, dd in dnested.items():
            inner = self.nested.setdefault(k, {})
            for kk, d in dd.items():
                inner[kk] = inner.get(kk, 0) + d
        for k, (dc, db, dl) in dflows.items():
            f = self.flows.get(k)
            if f is None:
                f = self.flows[k] = MessageFlow()
            f.count += dc
            f.bytes += db
            f.latency_cycles += dl
        for k, samples in dlats.items():
            self.latencies.setdefault(k, array("q")).extend(samples)
        for i, d in enumerate(dcounts):
            if d:
                self.cache_counts[i] += d


@dataclasses.dataclass
class _PhaseRecord:
    """One recorded state-idempotent phase, ready for closed-form apply."""

    #: cycles every thread clock advances (identical across threads —
    #: the digest pins the relative skews)
    advance: int
    #: simulator events the phase processed
    events: int
    #: simulator clock at phase end, relative to the phase-end base
    now_offset: int
    #: per-processor handler ``free_at``, relative to phase-end base
    free_offsets: list[int]
    #: interconnect reservation offsets (external, internal models)
    net_offsets: list[Any]
    #: statistics delta (see :class:`_StatCells`)
    stats: tuple


class PhaseRecorder:
    """Record-once / replay-many driver state for one phased runtime."""

    def __init__(self, rt: "Runtime") -> None:
        self.rt = rt
        self.cells = _StatCells(rt)
        self.records: dict[str, _PhaseRecord] = {}
        #: phases applied in closed form / recorded for reuse
        self.replayed = 0
        self.recorded = 0

    def cache_summary(self) -> dict:
        """Replay activity of this run, for ``RunResult.replay_cache``."""
        return {"replayed": self.replayed, "recorded": self.recorded}

    # -- digest --------------------------------------------------------

    @staticmethod
    def _net_state(model: Any, base: int) -> Any:
        """Clamped reservation offsets of one interconnect model."""
        free = getattr(model, "_free_at", None)
        if free is None:
            return None
        if isinstance(free, dict):
            return tuple(
                sorted((k, v - base) for k, v in free.items() if v > base)
            )
        return max(0, free - base)

    def state_digest(self, phase_key: Any) -> tuple[str, int] | None:
        """Digest of the current phase-boundary state, or None when the
        engine opts out; returns ``(digest, base_time)``."""
        rt = self.rt
        engine_state = rt.protocol.phase_state()
        if engine_state is None:
            return None
        threads = rt.threads
        base = min(t.time for t in threads)
        machine = rt.machine
        # The hardware line directory is by far the largest component
        # (one entry per cached line), so it gets the cheap encoding:
        # each cluster's line ids and packed states as two flat int
        # arrays — a packed state is order-independent in its sharers,
        # no per-line work at all — collapsed to 16 bytes through numpy
        # when the states fit int64 (up to 57 processors, so at every
        # paper machine size).
        cache = rt.cache
        numeric = cache.state_bits <= 63
        cache_state = []
        for cluster in range(rt.config.num_clusters):
            states = cache.line_states(cluster)
            if numeric:
                n = len(states)
                h = hashlib.blake2b(digest_size=16)
                h.update(np.fromiter(states.keys(), np.int64, n))
                h.update(np.fromiter(states.values(), np.int64, n))
                cache_state.append(h.digest())
            else:
                cache_state.append(tuple(states.items()))
        state = (
            phase_key,
            tuple((t.time - base, t.time - t.last_yield) for t in threads),
            tuple(
                tuple(
                    sorted(
                        (vpn, int(mode))
                        for vpn, mode in tlb._entries.items()
                    )
                )
                for tlb in rt.protocol.tlbs
            ),
            tuple(cache_state),
            tuple(
                (
                    lk.token_cluster,
                    lk.token_in_transit,
                    lk.holder,
                    tuple(len(q) for q in lk._local_q),
                    tuple(lk._requested),
                    tuple(lk._home_pending),
                    lk._handoff_wanted,
                    lk._handoff_budget,
                )
                for lk in rt.locks
            ),
            (
                rt.barrier_obj._combined,
                tuple(
                    (c.arrived, len(c.waiters))
                    for c in rt.barrier_obj._clusters
                ),
            ),
            tuple(
                (max(0, p.handler_free_at - base), p.stolen_cycles)
                for p in machine.processors
            ),
            (
                self._net_state(machine.external, base),
                self._net_state(machine.internal, base),
            ),
            len(rt.protocol.bus.open_txns),
            engine_state,
        )
        digest = hashlib.blake2b(
            repr(state).encode(), digest_size=16
        ).hexdigest()
        return digest, base

    # -- record / replay -----------------------------------------------

    def lookup(self, digest: str) -> _PhaseRecord | None:
        """The record for ``digest``, or None when it has not been seen."""
        return self.records.get(digest)

    def record(
        self, digest: str, pre_snapshot: tuple, pre_base: int, events: int
    ) -> None:
        """Store the just-executed phase's effect under ``digest``."""
        rt = self.rt
        post_base = min(t.time for t in rt.threads)
        machine = rt.machine
        rec = _PhaseRecord(
            advance=post_base - pre_base,
            events=events,
            now_offset=rt.sim.now - post_base,
            free_offsets=[
                max(0, p.handler_free_at - post_base)
                for p in machine.processors
            ],
            net_offsets=[
                self._net_state(machine.external, post_base),
                self._net_state(machine.internal, post_base),
            ],
            stats=self.cells.delta(pre_snapshot),
        )
        self.records[digest] = rec
        self.recorded += 1

    def apply(self, rec: _PhaseRecord) -> None:
        """Apply a recorded phase as a pure time translation."""
        rt = self.rt
        d = rec.advance
        for t in rt.threads:
            t.time += d
            t.last_yield += d
            t.finish_time = t.time
        new_base = min(t.time for t in rt.threads)
        machine = rt.machine
        for proc, off in zip(machine.processors, rec.free_offsets):
            proc.handler_free_at = new_base + off
        for model, offs in zip(
            (machine.external, machine.internal), rec.net_offsets
        ):
            if offs is None:
                continue
            if isinstance(offs, int):
                model._free_at = new_base + offs
            else:
                for key, off in offs:
                    model._free_at[key] = new_base + off
        rt.sim.replay_advance(new_base + rec.now_offset, rec.events)
        self.cells.apply(rec.stats)
        self.replayed += 1
