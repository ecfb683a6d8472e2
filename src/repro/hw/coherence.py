"""Functional model of Alewife's hardware cache coherence within an SSMP.

The paper treats intra-SSMP hardware shared memory as a fast black box
with the measured miss penalties of Table 3 (local 11, remote 38, 2-party
42, 3-party 63 cycles, and 425 cycles once the software-extended LimitLESS
directory takes over).  We reproduce exactly that: a per-cluster, per-line
directory tracks which processors cache each line and in what state, and
every access is classified into one of the cost classes.  Directory state
changes take effect immediately (functional simulation); the access's
latency class is charged to the issuing processor by the runtime.

Classification rules:

* **hit** — the line is already cached with sufficient privilege.
* **local / remote miss** — the line is clean; cost depends on whether the
  line's home memory (the node hosting the page frame) is the issuing
  processor's own memory.
* **2-party / 3-party miss** — the line is dirty in another processor's
  cache (or, for writes, shared copies must be invalidated); the cost
  depends on how many distinct nodes take part in the transaction.
* **software directory** — the sharer set outgrew the hardware directory
  pointers, so a software handler services the miss (Table 3's "Remote
  Software", 425 cycles).

Capacity and conflict misses are not modeled (the directory acts as if
caches were infinite); the paper's working sets at our scaled problem
sizes fit comfortably in Alewife's 64 KB SRAM, and the effects the paper
studies — false sharing and multigrain locality — come from coherence
misses, which are modeled.

Hot-path note: every simulated word access lands in :meth:`CacheSystem.
access`, so the common case — a hit — is resolved with one dict probe and
an inline privilege check before the full classify-and-update runs.
Statistics live in a fixed-slot integer list indexed by ``AccessClass``
position (no ``Counter``/enum hashing per access); the ``stats`` property
rebuilds the Counter view for reporting.  ``record_hits`` lets a caller
account hits it proved without a directory probe; see
``docs/PERFORMANCE.md`` for why that is safe.
"""

from __future__ import annotations

import enum
from collections import Counter

from repro.params import CostModel, MachineConfig

__all__ = ["AccessClass", "CacheSystem"]


class AccessClass(enum.Enum):
    """Latency class of a hardware shared-memory access."""

    HIT = "hit"
    LOCAL = "local"
    REMOTE = "remote"
    TWO_PARTY = "2party"
    THREE_PARTY = "3party"
    SOFTWARE = "software"


#: definition-order view of the classes; slot ``i`` of the fixed counters
#: counts ``_CLASSES[i]`` accesses.  The classifier works in these int
#: indices throughout — no enum hashing on the per-access hot path.
_CLASSES = tuple(AccessClass)
_IDX = {klass: i for i, klass in enumerate(_CLASSES)}
_HIT = _IDX[AccessClass.HIT]
_LOCAL = _IDX[AccessClass.LOCAL]
_REMOTE = _IDX[AccessClass.REMOTE]
_TWO_PARTY = _IDX[AccessClass.TWO_PARTY]
_THREE_PARTY = _IDX[AccessClass.THREE_PARTY]
_SOFTWARE = _IDX[AccessClass.SOFTWARE]


class CacheSystem:
    """Per-cluster line directories with Table 3 cost classification."""

    __slots__ = (
        "config",
        "costs",
        "_lines",
        "_counts",
        "_cost_of",
        "_hw_ptrs",
        "hit_cost",
        "worst_miss",
        "worst_hw_miss",
    )

    def __init__(self, config: MachineConfig, costs: CostModel) -> None:
        self.config = config
        self.costs = costs
        self._hw_ptrs = config.hw_dir_pointers
        # One directory per cluster: line id -> [owner_pid or -1, sharer set]
        self._lines: list[dict[int, list]] = [
            {} for _ in range(config.num_clusters)
        ]
        self._counts: list[int] = [0] * len(_CLASSES)
        self._cost_of: list[int] = [
            costs.cache_hit,
            costs.miss_local,
            costs.miss_remote,
            costs.miss_2party,
            costs.miss_3party,
            costs.miss_software_dir,
        ]
        #: cost of a hit, exposed so the batched runtime operations can
        #: charge it without a method call
        self.hit_cost = costs.cache_hit
        #: most expensive miss class overall, and the most expensive
        #: *hardware* class (software servicing needs a sharer set that
        #: already outgrew the hardware pointers, so any other line is
        #: bounded by the hardware classes).  access_run admits lines
        #: under the per-line tight bound; the batched runtime paths read
        #: ``worst_hw_miss`` to skip hopeless batch attempts.
        self.worst_miss = max(self._cost_of[1:])
        self.worst_hw_miss = max(self._cost_of[1:_SOFTWARE])

    @property
    def stats(self) -> Counter:
        """Access counts by :class:`AccessClass` (Counter view).

        Only classes that occurred appear as keys, matching the behavior
        of the per-access ``Counter`` this property replaced.
        """
        return Counter(
            {klass: n for klass, n in zip(_CLASSES, self._counts) if n}
        )

    def hit_run(
        self, cluster: int, pid: int, first_line: int, max_lines: int, is_write: bool
    ) -> int:
        """Longest run of consecutive lines from ``first_line`` that are
        guaranteed hits for ``pid``.

        A read-only probe — no directory update, no statistics.  The
        runtime's batched operations use it to charge whole runs of hit
        words in closed form; the caller accounts the hits itself (e.g.
        via :meth:`record_hits`).
        """
        get = self._lines[cluster].get
        n = 0
        if is_write:
            while n < max_lines:
                state = get(first_line + n)
                if state is None or state[0] != pid:
                    break
                n += 1
        else:
            while n < max_lines:
                state = get(first_line + n)
                if state is None:
                    break
                owner = state[0]
                if owner != pid and (owner != -1 or pid not in state[1]):
                    break
                n += 1
        return n

    def hit_lines(
        self, cluster: int, pid: int, lines, is_write: bool
    ) -> bool:
        """Whether *every* line in ``lines`` is a guaranteed hit for ``pid``.

        The vector-probe companion to :meth:`hit_run`: same read-only
        hit criterion (sufficient privilege, so an ``access`` would make
        no directory update), applied to an arbitrary iterable of line
        ids instead of a consecutive run.  The runtime's vectorized
        ``read_many``/``write_many`` and the ``write_block`` all-hit
        preamble use it to prove a whole scatter/gather access vector
        conflict-free before charging it in one aggregate; the caller
        accounts the hits itself (via :meth:`record_hits`).
        """
        get = self._lines[cluster].get
        if is_write:
            for line in lines:
                state = get(line)
                if state is None or state[0] != pid:
                    return False
        else:
            for line in lines:
                state = get(line)
                if state is None:
                    return False
                owner = state[0]
                if owner != pid and (owner != -1 or pid not in state[1]):
                    return False
        return True

    def access_run(
        self,
        cluster: int,
        pid: int,
        first_line: int,
        is_write: bool,
        home_pid: int,
        extras: list[int],
        budget: int,
    ) -> tuple[int, int]:
        """Classify-and-update a run of consecutive *missing* lines.

        Batched companion to :meth:`access` for the runtime's block fast
        paths: starting at ``first_line``, lines are serviced with
        exactly the per-line state transitions, class counts, and costs
        that individual ``access`` calls would apply, while (a) the line
        would not be a hit and (b) the accumulated charge stays within
        ``budget``.  ``extras[i]`` is the caller's non-miss charge
        riding on line ``first_line + i`` (address translation plus the
        line's remaining hit words); a line is admitted only when its
        worst-case miss cost plus its extra keeps the running total
        within budget, so the caller can prove no quantum pause falls
        inside the batch.  The bound is per line and tight: software
        servicing is only possible when the line's sharer set has
        already outgrown the hardware directory pointers, so every
        other line is bounded by the worst *hardware* miss.  (The bound
        may still stop the run a little early near the quantum edge;
        the caller's per-word path then takes over with identical
        semantics, so the cut is a wall-clock detail, never a behavior
        change.)

        Returns ``(lines_processed, total_charge)``, the charge
        including the extras of the processed lines.
        """
        directory = self._lines[cluster]
        get = directory.get
        counts = self._counts
        cost_of = self._cost_of
        classify = self._classify_and_update
        worst_hw = self.worst_hw_miss
        soft = cost_of[_SOFTWARE]
        hw_ptrs = self._hw_ptrs
        total = 0
        k = 0
        for extra in extras:
            line = first_line + k
            state = get(line)
            if state is not None:
                owner = state[0]
                if (
                    owner == pid
                    if is_write
                    else owner == pid or (owner == -1 and pid in state[1])
                ):
                    break  # guaranteed hit: the caller's hit-run takes over
                bound = soft if len(state[1]) > hw_ptrs else worst_hw
            else:
                bound = worst_hw
            if total + bound + extra > budget:
                break
            i = classify(directory, state, pid, line, is_write, home_pid)
            counts[i] += 1
            total += cost_of[i] + extra
            k += 1
        return k, total

    def record_hits(self, n: int) -> None:
        """Account ``n`` hits classified outside the directory.

        For callers that classify repeat accesses to a line they just
        touched, which are hits by construction (the line state cannot
        change while the thread runs uninterrupted).
        """
        self._counts[_HIT] += n

    def access(
        self, cluster: int, pid: int, line: int, is_write: bool, home_pid: int
    ) -> int:
        """Perform one access and return its cycle cost.

        Args:
            cluster: SSMP in which the access occurs (each SSMP has its
                own copy of the page and hence its own line states).
            pid: issuing processor.
            line: global line index (address // line_size).
            is_write: store vs load.
            home_pid: processor whose memory hosts this cluster's frame.
        """
        directory = self._lines[cluster]
        state = directory.get(line)
        if state is not None:
            # Inline hit check: sufficient privilege means no directory
            # update, so the full classification can be skipped.
            owner = state[0]
            if (
                owner == pid
                if is_write
                else owner == pid or (owner == -1 and pid in state[1])
            ):
                self._counts[_HIT] += 1
                return self.hit_cost
        i = self._classify_and_update(
            directory, state, pid, line, is_write, home_pid
        )
        self._counts[i] += 1
        return self._cost_of[i]

    def _classify_and_update(
        self,
        directory: dict[int, list],
        state: list | None,
        pid: int,
        line: int,
        is_write: bool,
        home_pid: int,
    ) -> int:
        if state is None:
            state = [-1, set()]
            directory[line] = state
        owner, sharers = state[0], state[1]

        if is_write:
            if owner == pid:
                return _HIT
            if owner != -1:
                # Dirty in another cache: fetch-exclusive, owner writes
                # back.  The issuer and owner differ here (same-owner
                # writes returned HIT above), so the transaction stays
                # 2-party exactly when the home node is one of them.
                klass = (
                    _TWO_PARTY
                    if home_pid == pid or home_pid == owner
                    else _THREE_PARTY
                )
            elif len(sharers) > self._hw_ptrs:
                klass = _SOFTWARE
            else:
                # Invalidate shared copies; cost scales with parties
                # involved.  Count sharers other than the issuer without
                # materializing the difference set — this runs on every
                # upgrade write.
                in_set = pid in sharers
                nothers = len(sharers) - in_set
                if nothers == 0:
                    klass = _LOCAL if home_pid == pid else _REMOTE
                elif nothers > 1 or home_pid == pid:
                    # >1 invalidation targets is always 3-party; a
                    # single target with the issuer at home is 2-party.
                    klass = _THREE_PARTY if nothers > 1 else _TWO_PARTY
                else:
                    third = min(sharers - {pid}) if in_set else min(sharers)
                    klass = (
                        _TWO_PARTY if home_pid == third else _THREE_PARTY
                    )
            state[0] = pid
            state[1] = set()
            return klass

        # Load.
        if owner == pid or (owner == -1 and pid in sharers):
            return _HIT
        if owner != -1:
            # Issuer and owner differ (same-owner loads are hits), so
            # 2-party exactly when the home node is one of them.
            klass = (
                _TWO_PARTY
                if home_pid == pid or home_pid == owner
                else _THREE_PARTY
            )
            state[1] = {pid, owner}
            state[0] = -1
            return klass
        if len(sharers) > self._hw_ptrs:
            sharers.add(pid)
            return _SOFTWARE
        sharers.add(pid)
        return _LOCAL if home_pid == pid else _REMOTE

    def flush_page(self, cluster: int, first_line: int, nlines: int) -> int:
        """Drop all line state of a page in ``cluster`` (page cleaning).

        Returns the number of lines that were actually present, which the
        protocol can use for the ``fast_read_clean`` ablation.
        """
        directory = self._lines[cluster]
        # The set intersection probes the page's line range against the
        # directory in C; only the (typically one or two) lines actually
        # present are deleted in Python.
        present = directory.keys() & range(first_line, first_line + nlines)
        for line in present:
            del directory[line]
        return len(present)

    def lines_cached(self, cluster: int) -> int:
        """Number of lines with directory state in ``cluster``."""
        return len(self._lines[cluster])
