"""The pluggable coherence-engine seam: ``Protocol`` plus the registry.

The simulation spine (``repro.runtime``) drives shared memory through a
small abstract surface — service a mapping fault, perform a release,
optionally perform acquire-side coherence, and load/inspect data outside
timed execution.  :class:`Protocol` pins that surface down so rival
coherence engines can be swapped in behind ``MachineConfig.protocol``:

* ``protocols/mgs`` — the paper's multigrain protocol (the default).
* ``protocols/swdsm`` — single-grain software page DSM (Figure 6's
  all-software baseline).
* ``protocols/sc_pages`` — sequentially-consistent single-writer pages.
* ``protocols/gcs`` — synchronization-piggybacked coherence in the
  spirit of Soul (GCS).

Engines register themselves by name (:func:`register_engine`); the
runtime constructs whatever ``config.protocol`` names via
:func:`create_engine`.  Two hooks keep the tooling engine-agnostic:
:meth:`Protocol.bus_handlers` declares the message labels an engine must
have registered on its bus (checked at construction, mirrored statically
by ``repro.analysis.lint``), and :meth:`Protocol.arc_rules` hands the
invariant sanitizer an engine-specific rule set.
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING, Callable, ClassVar

import numpy as np

from repro.core.bus import MessageBus
from repro.core.page import HomePage
from repro.params import WORD_BYTES, CostModel, MachineConfig, ProtocolOptions

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.hw import CacheSystem
    from repro.machine import Machine
    from repro.sim import Simulator
    from repro.svm import AddressSpace

__all__ = [
    "ArcRules",
    "Protocol",
    "ProtocolStats",
    "UnknownEngineError",
    "create_engine",
    "engine_class",
    "engine_names",
    "register_engine",
    "validate_engine_config",
]


class ProtocolStats:
    """Event counters for the software shared-memory protocol."""

    def __init__(self) -> None:
        self.counters: Counter = Counter()

    def record(self, name: str, amount: int = 1) -> None:
        self.counters[name] += amount

    def __getitem__(self, name: str) -> int:
        return self.counters[name]

    def as_dict(self) -> dict[str, int]:
        return dict(self.counters)


class ArcRules:
    """Engine-specific validation rules for the invariant sanitizer.

    The sanitizer (:class:`repro.analysis.invariants.InvariantSanitizer`)
    owns the generic observation plumbing — bus taps, transaction traces,
    the message ring, violation raising — and delegates every semantic
    judgement to the rule object the engine's :meth:`Protocol.arc_rules`
    returned.  The base class accepts everything; engines override the
    three hooks with their own legal-arc catalogue.
    """

    def __init__(self, sanitizer) -> None:
        self.s = sanitizer
        self.protocol = sanitizer.protocol

    def on_message(self, msg) -> None:
        """Validate the pre-state of one delivered bus message."""

    def check_page(self, vpn: int) -> None:
        """Structural consistency of one page's distributed state."""

    def check_quiescent(self) -> None:
        """Full-state leak sweep once the simulation has drained."""

    def check_state(self, inflight) -> None:
        """Whole-state invariants over protocol state *plus* the set of
        in-flight messages.

        Only the explorer (:mod:`repro.analysis.explore`) can call this:
        the live sanitizer observes deliveries one at a time and never
        sees the event queue, but the bounded model checker snapshots
        every reachable state, so rules here may relate engine
        bookkeeping to the messages still queued — "this shootdown
        counter is non-zero, therefore an invalidation or its ack must
        still be in flight".  ``inflight`` is the ordered tuple of
        undelivered :class:`~repro.core.messages.ProtocolMessage`
        objects.  The base rule, valid for every engine: the protocol
        never has two byte-identical messages in flight at once (each
        arc is a distinct request/reply; duplication is the transport's
        business, below the bus).
        """
        seen: set[tuple] = set()
        for m in inflight:
            key = (
                m.label,
                m.vpn,
                m.src_pid,
                m.dst_pid,
                m.txn,
            )
            if key in seen:
                self.s.fail(
                    "inflight-dup",
                    f"two identical {m.label} messages in flight "
                    f"p{m.src_pid}->p{m.dst_pid}",
                    vpn=m.vpn,
                    txn=m.txn,
                )
            seen.add(key)


class Protocol:
    """Abstract coherence engine behind the runtime's shared memory.

    Subclasses must implement :meth:`fault` and :meth:`release` and
    declare their bus surface via :meth:`bus_handlers`.  The base class
    provides the state every engine shares — per-processor TLBs, the
    typed message bus, home pages, stats — plus the default behaviors
    MGS defined historically, so the MGS engine itself overrides almost
    nothing and stays cycle-identical to the pre-refactor code.

    State contract with :class:`repro.runtime.env.Env` (the application
    access engine binds these once, at spawn time):

    * ``tlbs[pid]`` — the per-processor TLB.
    * ``frames_view(pid)`` — a dict ``vpn -> frame`` of the replicas the
      processor reads through; each frame exposes ``data`` (numpy array)
      and ``owner_pid``.
    * ``hw_bypass`` — True when software coherence is nulled and the
      whole machine behaves as one hardware-coherent SSMP.
    * ``home(vpn).data`` — the authoritative copy used by the hardware
      bypass path and by :meth:`poke`/:meth:`peek`.
    """

    #: registry key; subclasses must override
    name: ClassVar[str] = ""
    #: True when the engine performs acquire-side coherence work; the
    #: runtime then calls :meth:`acquire` at lock acquisition and
    #: barrier departure
    needs_acquire: ClassVar[bool] = False

    def __init__(
        self,
        sim: "Simulator",
        machine: "Machine",
        aspace: "AddressSpace",
        cache: "CacheSystem",
        config: MachineConfig,
        costs: CostModel,
    ) -> None:
        from repro.svm import TLB

        self.sim = sim
        self.machine = machine
        self.aspace = aspace
        self.cache = cache
        self.config = config
        self.costs = costs
        self.options = config.options
        self.tlbs = [TLB(p) for p in range(config.total_processors)]
        self.homes: dict[int, HomePage] = {}
        self.stats = ProtocolStats()
        #: per-page event counts backing the multigrain-locality report
        #: (see repro.metrics.locality)
        self.page_stats: dict[int, dict[str, int]] = {}
        self.bus = MessageBus(machine, config)
        #: vpn -> home cluster; a page's home processor is fixed when the
        #: address space allocates it, so the answer never changes
        self._home_clusters: dict[int, int] = {}

    # ------------------------------------------------------------------
    # engine surface (the runtime calls these)
    # ------------------------------------------------------------------

    def fault(
        self, pid: int, vpn: int, want_write: bool, on_done: Callable[[], None]
    ) -> None:
        """Service a TLB fault for ``pid`` on page ``vpn``.

        Must be invoked at the faulting thread's current time; ``on_done``
        fires once the mapping is installed.
        """
        raise NotImplementedError

    def release(self, pid: int, on_done: Callable[[], None]) -> None:
        """Perform release-point coherence for ``pid`` (unlock/barrier)."""
        raise NotImplementedError

    def acquire(self, pid: int, on_done: Callable[[], None]) -> None:
        """Perform acquire-side coherence for ``pid``.

        Only called when :attr:`needs_acquire` is True (lock acquisition
        and barrier departure).  The default completes synchronously with
        zero cost.
        """
        on_done()

    @property
    def hw_bypass(self) -> bool:
        """True when software coherence is nulled for this run.

        The default mirrors MGS: at ``C == P`` the machine is one
        tightly-coupled SSMP and pure hardware coherence applies.
        Engines that never exploit hardware sharing (swdsm) return False
        unconditionally.
        """
        return self.config.hardware_only

    def frames_view(self, pid: int) -> dict:
        """The ``vpn -> frame`` mapping processor ``pid`` accesses through.

        The default is cluster-grain sharing: every processor of an SSMP
        sees the same frame dict.  Engines with a different replication
        grain (swdsm replicates per processor) override this.
        """
        return self.frames[self.config.cluster_of(pid)]

    def frame(self, cluster: int, vpn: int):
        """The frame replica ``cluster`` holds for ``vpn``, or None.

        Observers (the tracer, arc rules) use this to peek at replicas
        by index without knowing the engine's replication grain.
        """
        return self.frames[cluster].get(vpn)

    def bus_handlers(self) -> frozenset[str]:
        """The message labels this engine must have handlers for."""
        raise NotImplementedError

    def arc_rules(self, sanitizer) -> ArcRules:
        """Sanitizer rules for this engine (default: structural no-op)."""
        return ArcRules(sanitizer)

    def check_invariants(self) -> None:
        """Assert cross-engine invariants; raises AssertionError on bugs."""

    def check_bus(self) -> None:
        """Verify every declared label has a registered bus handler."""
        missing = sorted(self.bus_handlers() - self.bus.handled_labels())
        if missing:
            raise LookupError(
                f"engine {self.name!r} declares labels with no handler: "
                f"{missing}"
            )

    # ------------------------------------------------------------------
    # phase-replay surface (see repro.runtime.replay)
    # ------------------------------------------------------------------

    def phase_state(self):
        """Digestible summary of every behavior-bearing engine state.

        The phase-replay engine hashes this (together with the runtime's
        own state: TLBs, hardware directory, locks, barrier, handler
        occupancy) at every phase boundary; a repeated digest whose
        recorded phase left the digest unchanged is applied in closed
        form instead of re-executed.  The contract:

        * include everything that can influence *future* timing or data
          — frame/home metadata, page contents, per-processor queues;
        * exclude pure statistics (event counters, latency logs): those
          are carried by the recorded delta, and a monotone counter in
          the digest would make every phase look unique;
        * clock-like values must be encoded relative to the phase base
          time (the replay is a time translation).

        Returning ``None`` (the default) disables replay for the engine.
        """
        return None

    def phase_stat_cells(self) -> list[tuple[object, str]]:
        """Engine-private integer stat counters the replay delta must
        carry, as ``(obj, attr)`` pairs.  :class:`ProtocolStats` and
        ``page_stats`` are handled generically; engines add counters
        living on their own sub-objects (e.g. MGS's per-DUQ counters).
        """
        return []

    def _phase_frames_state(self, frames: list[dict]) -> tuple:
        """Digest helper: one entry per live :class:`PageFrame`."""
        from repro.runtime.replay import array_digest

        out = []
        for d in frames:
            out.append(
                tuple(
                    (
                        vpn,
                        f.state.value,
                        f.owner_pid,
                        None if f.data is None else array_digest(f.data),
                        None if f.twin is None else array_digest(f.twin),
                        tuple(sorted(f.tlb_dir)),
                        f.lock_held,
                        len(f.waiters),
                        len(f.queued_invals),
                        f.pinv_count,
                        f.inval_kind,
                        f.inval_txn != -1,
                        f.aliases_home,
                        f.post_snapshot_writes,
                    )
                    for vpn, f in d.items()
                )
            )
        return tuple(out)

    def _phase_homes_state(self) -> tuple:
        """Digest helper: one entry per instantiated :class:`HomePage`."""
        from repro.runtime.replay import array_digest

        return tuple(
            (
                vpn,
                h.state.value,
                h.home_pid,
                tuple(sorted(h.read_dir)),
                tuple(sorted(h.write_dir)),
                h.count,
                len(h.rl),
                len(h.rd),
                len(h.wr),
                h.round_txn != -1,
                tuple(h.pending_wnotify),
                len(h.pending_rels),
                h.single_writer,
                h.round_foreign_diff,
                array_digest(h.data),
            )
            for vpn, h in self.homes.items()
        )

    # ------------------------------------------------------------------
    # per-engine configuration validation
    # ------------------------------------------------------------------

    @classmethod
    def validate_config(cls, config: MachineConfig) -> None:
        """Reject configuration knobs this engine does not implement.

        The default refuses non-default :class:`ProtocolOptions`: those
        knobs (single-writer optimization, fast read clean) are MGS
        design-ablation switches and silently ignoring them would
        simulate a different machine than requested.  MGS overrides this
        to accept everything.
        """
        if config.options != ProtocolOptions():
            raise ValueError(
                f"options {config.options} are MGS-specific; engine "
                f"{cls.name!r} does not implement them"
            )

    # ------------------------------------------------------------------
    # shared state accessors
    # ------------------------------------------------------------------

    def home(self, vpn: int) -> HomePage:
        """Home state of a page, created on first use with zeroed data."""
        page = self.homes.get(vpn)
        if page is None:
            home_pid = self.aspace.home_proc(vpn)
            page = HomePage(
                vpn=vpn,
                home_pid=home_pid,
                data=np.zeros(self.config.words_per_page, dtype=np.float64),
            )
            self.homes[vpn] = page
        return page

    def home_cluster(self, vpn: int) -> int:
        """SSMP of the page's address-space home processor (memoised)."""
        cluster = self._home_clusters.get(vpn)
        if cluster is None:
            cluster = self.config.cluster_of(self.aspace.home_proc(vpn))
            self._home_clusters[vpn] = cluster
        return cluster

    def dispatch_cost(self, cluster: int, vpn: int) -> int:
        """Handler dispatch cost for a message between ``cluster`` and
        the page's home: cheaper when it never left the SSMP."""
        if cluster == self.home_cluster(vpn):
            return self.costs.msg_intra_ssmp
        return self.costs.msg_inter_ssmp

    def record_page(self, vpn: int, key: str, amount: int = 1) -> None:
        """Count a per-page protocol event for the locality report."""
        counts = self.page_stats.get(vpn)
        if counts is None:
            counts = {}
            self.page_stats[vpn] = counts
        counts[key] = counts.get(key, 0) + amount

    # ------------------------------------------------------------------
    # zero-cost data loading / inspection (outside timed execution)
    # ------------------------------------------------------------------

    def poke(self, addr: int, value: float) -> None:
        """Write the home copy directly, with no simulated cost.

        Used to load initial application data, the way the real system's
        loader populates memory before the timed region starts.
        """
        vpn = self.aspace.vpn_of(addr)
        word = self.aspace.word_of(addr)
        self.home(vpn).data[word] = value

    def peek(self, addr: int) -> float:
        """Read the current coherent value of ``addr`` with no cost."""
        vpn = self.aspace.vpn_of(addr)
        word = self.aspace.word_of(addr)
        return float(self.page_view(vpn)[word])

    def page_view(self, vpn: int) -> np.ndarray:
        """The current coherent contents of a page, cost-free.

        Used by result validation (``SharedArray.snapshot``) and
        :meth:`peek`.  The default returns the home copy, which release
        consistency makes authoritative after the final barrier.  Engines
        whose home copy can legitimately lag a live replica even then
        (sc_pages' exclusive writer) override this.
        """
        return self.home(vpn).data

    # ------------------------------------------------------------------
    # geometry helpers
    # ------------------------------------------------------------------

    @property
    def words_per_page(self) -> int:
        return self.config.words_per_page

    def page_first_line(self, vpn: int) -> int:
        return vpn * self.config.lines_per_page

    def addr_line(self, addr: int) -> int:
        return addr // self.config.line_size

    def word_index(self, addr: int) -> int:
        return (addr % self.config.page_size) // WORD_BYTES


# ---------------------------------------------------------------------------
# the registry
# ---------------------------------------------------------------------------

_REGISTRY: dict[str, type[Protocol]] = {}


class UnknownEngineError(ValueError):
    """``config.protocol`` named an engine the registry does not know."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.known = engine_names()
        super().__init__(
            f"unknown protocol engine {name!r}; known engines: "
            f"{', '.join(self.known)}"
        )


def register_engine(cls: type[Protocol]) -> type[Protocol]:
    """Class decorator: register ``cls`` under ``cls.name``."""
    if not cls.name:
        raise ValueError(f"{cls.__name__} must set a non-empty name")
    existing = _REGISTRY.get(cls.name)
    if existing is not None and existing is not cls:
        raise ValueError(f"engine name {cls.name!r} already registered")
    _REGISTRY[cls.name] = cls
    return cls


def _ensure_loaded() -> None:
    # Engine packages self-register on import; repro.protocols pulls
    # them all in.  Imported lazily to keep repro.core cycle-free.
    import repro.protocols  # noqa: F401


def engine_names() -> list[str]:
    """Sorted names of every registered engine."""
    _ensure_loaded()
    return sorted(_REGISTRY)


def engine_class(name: str) -> type[Protocol]:
    """The engine class registered under ``name``."""
    _ensure_loaded()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownEngineError(name) from None


def validate_engine_config(config: MachineConfig) -> None:
    """Registry lookup plus the engine's own option validation.

    ``MachineConfig.__post_init__`` calls this for every construction,
    so an unknown engine name or an engine/option mismatch fails at
    configuration time — long before a simulation starts.
    """
    engine_class(config.protocol).validate_config(config)


def create_engine(
    name: str,
    sim: "Simulator",
    machine: "Machine",
    aspace: "AddressSpace",
    cache: "CacheSystem",
    config: MachineConfig,
    costs: CostModel,
) -> Protocol:
    """Instantiate the engine registered under ``name``."""
    return engine_class(name)(sim, machine, aspace, cache, config, costs)
