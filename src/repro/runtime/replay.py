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

Records optionally **persist across processes**: when a replay store is
attached (:func:`repro.bench.cache.resolve_replay_store`, enabled via
``REPRO_REPLAY_CACHE=1`` / ``REPRO_REPLAY_CACHE_DIR`` or the
``--replay-cache`` CLI flags), every recorded delta is also written as
versioned JSON into a content-addressed directory keyed by (source
fingerprint, canonical run context, phase digest), and every digest
miss in the in-memory table falls through to a store lookup.  A cold
process — a fresh CLI run, a pool worker, a ``repro.serve`` job — then
replays phases recorded by earlier runs or by sibling sweep points
whose state digests coincide.  Decoding is defensive: an entry that is
missing, truncated, schema-mismatched, or shaped wrong for this run's
statistic layout simply decodes to ``None``, the phase executes live,
and the fresh recording overwrites the bad entry (self-healing, exactly
like the run cache).
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
    "record_from_payload",
    "record_to_payload",
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
    #: whether this record was decoded from the persistent replay store
    #: (replays of such records count as cache hits)
    from_store: bool = False


def _net_to_json(offs: Any) -> Any:
    """JSON encoding of one ``_net_state`` value.

    ``None`` (model exposes no reservations) and plain ints (single
    shared reservation) pass through; per-link reservation tuples become
    ``[[key, off], ...]`` with tuple keys listed.
    """
    if offs is None or isinstance(offs, int):
        return offs
    return [
        [list(k) if isinstance(k, tuple) else k, off] for k, off in offs
    ]


def _net_from_json(offs: Any) -> Any:
    if offs is None or isinstance(offs, int):
        return offs
    return tuple(
        (tuple(k) if isinstance(k, list) else k, off) for k, off in offs
    )


def record_to_payload(rec: _PhaseRecord) -> dict:
    """JSON-safe encoding of one :class:`_PhaseRecord`.

    Every delta container is JSON-representable as-is except the
    int-keyed per-page nested dict (keys become decimal strings), the
    flow 3-tuples (become lists), and interconnect reservation keys
    (tuples become lists).  ``record_from_payload`` inverts all three.
    """
    dints, dflats, dnested, dflows, dlats, dcounts = rec.stats
    return {
        "advance": rec.advance,
        "events": rec.events,
        "now_offset": rec.now_offset,
        "free_offsets": list(rec.free_offsets),
        "net_offsets": [_net_to_json(o) for o in rec.net_offsets],
        "stats": {
            "ints": list(dints),
            "flats": [dict(d) for d in dflats],
            "nested": {str(k): dict(v) for k, v in dnested.items()},
            "flows": {k: list(v) for k, v in dflows.items()},
            "lats": {k: list(v) for k, v in dlats.items()},
            "counts": list(dcounts),
        },
    }


def record_from_payload(
    payload: dict, n_ints: int, n_counts: int, n_processors: int
) -> _PhaseRecord | None:
    """Decode a persisted record, or ``None`` when it cannot possibly
    belong to this run's statistic layout.

    The caller passes the live layout sizes (int-cell count, hardware
    access-class slot count, processor count); a payload whose vectors
    disagree was produced by different source or a different
    configuration that slipped past the context key, and decoding it
    would corrupt statistics silently — so any shape mismatch, missing
    key, or non-numeric leaf rejects the record and the phase executes
    live instead.
    """
    try:
        stats = payload["stats"]
        dints = [int(v) for v in stats["ints"]]
        dflats = [
            {str(k): int(v) for k, v in d.items()} for d in stats["flats"]
        ]
        dnested = {
            int(k): {str(kk): int(vv) for kk, vv in v.items()}
            for k, v in stats["nested"].items()
        }
        dflows = {}
        for k, v in stats["flows"].items():
            dc, db, dl = v
            dflows[str(k)] = (int(dc), int(db), int(dl))
        dlats = {
            str(k): [int(s) for s in v] for k, v in stats["lats"].items()
        }
        dcounts = [int(v) for v in stats["counts"]]
        rec = _PhaseRecord(
            advance=int(payload["advance"]),
            events=int(payload["events"]),
            now_offset=int(payload["now_offset"]),
            free_offsets=[int(v) for v in payload["free_offsets"]],
            net_offsets=[
                _net_from_json(o) for o in payload["net_offsets"]
            ],
            stats=(dints, dflats, dnested, dflows, dlats, dcounts),
            from_store=True,
        )
    except (KeyError, TypeError, ValueError):
        return None
    if (
        len(rec.stats[0]) != n_ints
        or len(rec.stats[1]) != 4
        or len(rec.stats[5]) != n_counts
        or len(rec.free_offsets) != n_processors
        or len(rec.net_offsets) != 2
    ):
        return None
    return rec


class PhaseRecorder:
    """Record-once / replay-many driver state for one phased runtime.

    ``store`` (duck-typed — :class:`repro.bench.cache.ReplayStore` in
    practice) persists records across processes.  The recorder asks the
    store for a context key derived from everything that pins the
    record layout and meaning: source fingerprint, full machine config
    and cost table, scheduling quantum, engine class, and the
    app-dependent statistic layout (lock count, int-cell count).  Two
    runs share records only when their context keys agree, so a digest
    can never be applied across engines, configs, or source revisions.
    """

    def __init__(self, rt: "Runtime", store: Any = None) -> None:
        self.rt = rt
        self.cells = _StatCells(rt)
        self.records: dict[str, _PhaseRecord] = {}
        #: phases applied in closed form / recorded for reuse
        self.replayed = 0
        self.recorded = 0
        self.store = store
        #: persistent-store traffic attributable to this run
        self.cache_loads = 0
        self.cache_hits = 0
        self.cache_stores = 0
        self._ctx = (
            store.context_key(self._context()) if store is not None else None
        )

    def _context(self) -> dict:
        """Canonical description of everything that pins record layout."""
        rt = self.rt
        return {
            "config": dataclasses.asdict(rt.config),
            "costs": dataclasses.asdict(rt.costs),
            "quantum": rt.quantum,
            "engine": type(rt.protocol).__name__,
            "n_locks": len(rt.locks),
            "n_cells": len(self.cells.ints),
        }

    def cache_summary(self) -> dict:
        """Replay activity of this run, for ``RunResult.replay_cache``."""
        return {
            "replayed": self.replayed,
            "recorded": self.recorded,
            "loads": self.cache_loads,
            "hits": self.cache_hits,
            "stores": self.cache_stores,
        }

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
        # a flat (line, owner, sharer-bitmask) int stream per cluster —
        # the bitmask is order-independent, no per-line sort needed —
        # collapsed to 16 bytes through numpy when the masks fit int64
        # (they always do at the paper's machine sizes).
        numeric = rt.config.total_processors <= 60
        cache_state = []
        for directory in rt.cache._lines:
            flat = []
            extend = flat.extend
            for line, s in directory.items():
                mask = 0
                for p in s[1]:
                    mask |= 1 << p
                extend((line, s[0], mask))
            if numeric:
                cache_state.append(
                    array_digest(np.array(flat, dtype=np.int64))
                )
            else:
                cache_state.append(tuple(flat))
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
        """Find a record for ``digest``: in-memory first, then the
        persistent store.  Store hits are decoded defensively and cached
        in the in-memory table so later phases of this run pay the file
        read once."""
        rec = self.records.get(digest)
        if rec is None and self.store is not None:
            payload = self.store.load(self._ctx, digest)
            if payload is not None:
                rec = record_from_payload(
                    payload,
                    n_ints=len(self.cells.ints),
                    n_counts=len(self.cells.cache_counts),
                    n_processors=len(self.rt.machine.processors),
                )
                if rec is not None:
                    self.records[digest] = rec
                    self.cache_loads += 1
        return rec

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
        if self.store is not None:
            self.store.put(self._ctx, digest, record_to_payload(rec))
            self.cache_stores += 1

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
        if rec.from_store:
            self.cache_hits += 1
            if self.store is not None:
                self.store.count_hit()
