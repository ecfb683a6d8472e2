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

Line states are packed ints.  Each cluster's directory maps a line id to
one int: the low bits hold ``owner + 1`` (0: no owner), the bits above
them the sharer bitmask (bit ``p`` set when processor ``p`` holds a
shared copy).  A line with no key is uncached.  An owned line never has
sharers, so the owner's state is exactly ``owner + 1`` and a hit test is
one or two integer compares.

Hot-path note: every simulated word access lands in :meth:`CacheSystem.
access`, so the common case — a hit — is resolved with one dict probe and
an integer compare, and the miss transitions are written inline.
Statistics live in a fixed-slot integer list indexed by ``AccessClass``
position (no ``Counter``/enum hashing per access); the ``stats`` property
rebuilds the Counter view for reporting.  The batched probes
(:meth:`~CacheSystem.hit_run`, :meth:`~CacheSystem.hit_lines`,
:meth:`~CacheSystem.access_run`) work a group of consecutive lines with
equal state at a time; see ``docs/PERFORMANCE.md`` for why that is exact.
"""

from __future__ import annotations

import enum
from bisect import bisect_right
from collections import Counter
from itertools import accumulate, groupby, repeat
from operator import eq
from types import MappingProxyType
from typing import Mapping

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
        "_shift",
        "_owner_mask",
        "state_bits",
        "hit_cost",
        "worst_miss",
        "worst_hw_miss",
    )

    def __init__(self, config: MachineConfig, costs: CostModel) -> None:
        self.config = config
        self.costs = costs
        self._hw_ptrs = config.hw_dir_pointers
        # ``owner + 1`` ranges over 0..P, so it takes P.bit_length() bits;
        # sharer bit p sits at ``1 << (p + _shift)``.
        self._shift = config.total_processors.bit_length()
        self._owner_mask = (1 << self._shift) - 1
        #: every packed state is below ``1 << state_bits``
        self.state_bits = self._shift + config.total_processors
        # One directory per cluster: line id -> packed state
        self._lines: list[dict[int, int]] = [
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

    # -- state inspection -------------------------------------------------

    def line_state(self, cluster: int, line: int) -> int | None:
        """Packed state of ``line`` in ``cluster``; None when uncached."""
        return self._lines[cluster].get(line)

    def line_states(self, cluster: int) -> Mapping[int, int]:
        """Read-only live view of ``cluster``'s directory: line id ->
        packed state, in insertion order."""
        return MappingProxyType(self._lines[cluster])

    def decode(self, state: int) -> tuple[int, frozenset[int]]:
        """``(owner or -1, sharer pids)`` of a packed state."""
        sharers = state >> self._shift
        return (state & self._owner_mask) - 1, frozenset(
            p for p in range(sharers.bit_length()) if sharers >> p & 1
        )

    # -- classification ---------------------------------------------------

    def _hits(self, state: int | None, pid: int, is_write: bool) -> bool:
        """Whether an access to a line in ``state`` needs no update."""
        if state == pid + 1:
            return True  # owned by the issuer
        # A line with sharers has no owner, so a load hits on the bit.
        return not is_write and state is not None and bool(
            state >> (pid + self._shift) & 1
        )

    def _transition(
        self, state: int | None, pid: int, is_write: bool, home_pid: int
    ) -> tuple[int, int]:
        """``(class index, new state)`` of one *missing* access.

        The same rules as the inline miss path of :meth:`access`, for
        the batched :meth:`access_run`, which classifies once per group
        of equal-state lines.  ``tests/test_hw_directory.py`` pins the
        two against each other.
        """
        shift = self._shift
        if state is None:
            klass = _LOCAL if home_pid == pid else _REMOTE
            return klass, pid + 1 if is_write else 1 << (pid + shift)
        owner = state & self._owner_mask
        if owner:
            # Dirty in another cache: the issuer and owner differ, so the
            # transaction stays 2-party exactly when the home node is one
            # of them.
            owner -= 1
            klass = (
                _TWO_PARTY
                if home_pid == pid or home_pid == owner
                else _THREE_PARTY
            )
            if is_write:
                return klass, pid + 1
            return klass, (1 << (pid + shift)) | (1 << (owner + shift))
        sharers = state >> shift
        if sharers.bit_count() > self._hw_ptrs:
            klass = _SOFTWARE
        elif not is_write:
            klass = _LOCAL if home_pid == pid else _REMOTE
        else:
            # Invalidate the shared copies; the cost class follows the
            # number of parties: >1 other sharer is always 3-party, a
            # single one is 2-party when the issuer or it is the home.
            others = sharers & ~(1 << pid)
            if not others:
                klass = _LOCAL if home_pid == pid else _REMOTE
            elif not others & (others - 1) and (
                home_pid == pid or others == 1 << home_pid
            ):
                klass = _TWO_PARTY
            else:
                klass = _THREE_PARTY
        if is_write:
            return klass, pid + 1
        return klass, state | (1 << (pid + shift))

    # -- batched probes ---------------------------------------------------

    def hit_run(
        self, cluster: int, pid: int, first_line: int, max_lines: int, is_write: bool
    ) -> int:
        """Longest run of consecutive lines from ``first_line`` that are
        guaranteed hits for ``pid``.

        A read-only probe — no directory update, no statistics.  The
        runtime's batched operations use it to charge whole runs of hit
        words in closed form and account the hits themselves.  Lines
        are judged a group of consecutive equal states at a time.
        """
        groups = groupby(
            map(
                self._lines[cluster].get,
                range(first_line, first_line + max_lines),
            )
        )
        # The :meth:`_hits` test, inlined: this probe runs once per
        # stretch of hit words.
        own = pid + 1
        n = 0
        if is_write:
            for state, group in groups:
                if state != own:
                    break
                n += len(list(group))
        else:
            shift = pid + self._shift
            for state, group in groups:
                if state != own and (state is None or not state >> shift & 1):
                    break
                n += len(list(group))
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
        conflict-free before charging it in one aggregate, and account
        the hits themselves.
        """
        states = map(self._lines[cluster].get, lines)
        if is_write:
            return all(map(eq, states, repeat(pid + 1)))
        hits = self._hits
        return all(hits(state, pid, False) for state, _ in groupby(states))

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

        Batched companion to :meth:`access` for the runtime's block
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

        The run is worked a group at a time: consecutive lines with
        equal state (all on the caller's one page, so one home) get the
        same class and the same new state, so one prefix-sum bisect
        decides how many of them fit the budget and one ``dict.update``
        writes them.

        Returns ``(lines_processed, total_charge)``, the charge
        including the extras of the processed lines.
        """
        directory = self._lines[cluster]
        counts = self._counts
        cost_of = self._cost_of
        worst_hw = self.worst_hw_miss
        soft = cost_of[_SOFTWARE]
        hw_ptrs = self._hw_ptrs
        shift = self._shift
        total = 0
        k = 0
        for state, group in groupby(
            map(directory.get, range(first_line, first_line + len(extras)))
        ):
            if self._hits(state, pid, is_write):
                break  # guaranteed hit: the caller's hit-run takes over
            klass, new = self._transition(state, pid, is_write, home_pid)
            cost = cost_of[klass]
            # (An owned line has no sharers, so it is never software.)
            bound = (
                soft
                if state is not None and (state >> shift).bit_count() > hw_ptrs
                else worst_hw
            )
            n = len(list(group))
            # Line j of the group is admitted iff
            #   total + j * cost + sums[j] + bound <= budget,
            # with sums[j] the group's extras through line j; the left
            # side grows with j, so the admitted lines are a prefix.
            sums = list(accumulate(extras[k : k + n]))
            fit = bisect_right(
                range(n),
                budget - total - bound,
                key=lambda j: sums[j] + j * cost,
            )
            if fit:
                line = first_line + k
                directory.update(zip(range(line, line + fit), repeat(new)))
                counts[klass] += fit
                total += sums[fit - 1] + fit * cost
                k += fit
            if fit < n:
                break
        return k, total

    # -- single access ----------------------------------------------------

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
        # The hit test and the miss transitions are :meth:`_hits` and
        # :meth:`_transition` written out inline: this method runs once
        # per simulated word.
        if state is None:
            klass = _LOCAL if home_pid == pid else _REMOTE
            directory[line] = (
                pid + 1 if is_write else 1 << (pid + self._shift)
            )
        else:
            shift = self._shift
            if state == pid + 1 or (
                not is_write and state >> (pid + shift) & 1
            ):
                self._counts[_HIT] += 1
                return self.hit_cost
            owner = state & self._owner_mask
            if owner:
                # Dirty in another cache; a load leaves both as sharers.
                owner -= 1
                klass = (
                    _TWO_PARTY
                    if home_pid == pid or home_pid == owner
                    else _THREE_PARTY
                )
                directory[line] = (
                    pid + 1
                    if is_write
                    else (1 << (pid + shift)) | (1 << (owner + shift))
                )
            elif is_write:
                directory[line] = pid + 1
                sharers = state >> shift
                others = sharers & ~(1 << pid)
                if sharers.bit_count() > self._hw_ptrs:
                    klass = _SOFTWARE
                elif not others:
                    klass = _LOCAL if home_pid == pid else _REMOTE
                elif not others & (others - 1) and (
                    home_pid == pid or others == 1 << home_pid
                ):
                    klass = _TWO_PARTY
                else:
                    klass = _THREE_PARTY
            else:
                directory[line] = state | (1 << (pid + shift))
                if (state >> shift).bit_count() > self._hw_ptrs:
                    klass = _SOFTWARE
                else:
                    klass = _LOCAL if home_pid == pid else _REMOTE
        self._counts[klass] += 1
        return self._cost_of[klass]

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
