"""The programming environment simulated application threads run against.

Application code is written as Python generators; every potentially
blocking operation is a sub-generator used with ``yield from``:

.. code-block:: python

    def worker(env):
        value = yield from env.read(array.addr(i))
        yield from env.write(array.addr(j), value + 1.0)
        values = yield from env.read_block(array.addr(k), 16)
        yield from env.lock(lk)
        ...
        yield from env.unlock(lk)
        yield from env.barrier()

Reads and writes that hit in the TLB and hardware cache are charged to
the thread's local clock without touching the global event queue; only
mapping faults, synchronization, and quantum expiry suspend the thread.
This mirrors the real system, where hardware shared memory needs no
software intervention and only TLB faults enter the MGS protocol.

At cluster size C == P (``hardware_only``), MGS calls are nulled exactly
as in the paper's 32-processor runs: accesses go straight to the home
copy through hardware coherence, only the software-virtual-memory
translation overhead remains, and release points flush nothing.

Batched operations
------------------

``read`` and ``write`` are the plain one-access-at-a-time path: the
golden reference every other operation is pinned against.  The batched
operations — :meth:`Env.read_block`, :meth:`Env.write_block`,
:meth:`Env.read_many` and :meth:`Env.write_many` — resolve a whole run
of accesses inside one generator instead of paying one sub-generator
round trip per word.  Each call keeps two small caches of what it has
learned: the pages it has resolved (``vpn -> (frame data, owner)``) and
the hardware cache lines it has touched.  A repeat access to a resolved
page skips the TLB and frame-dictionary probes; a repeat access to a
known line skips the hardware directory entirely (it is a hit by
construction).

This is safe because thread execution between suspension points is
atomic: no simulator event — and therefore no protocol action, TLB
shootdown, or directory update by another processor — can run while the
thread's generator is executing.  The caches are local to one call and
are dropped at every suspension point inside it (fault or pause), so a
batched call charges exactly the cycles, updates exactly the statistics,
and suspends at exactly the times the equivalent loop of ``env.read`` /
``env.write`` calls does.  The test suite pins that contract bit-for-bit
against such loops; see ``docs/PERFORMANCE.md``.

Vectorized batches
------------------

``read_many`` additionally proves whole conflict-free access vectors
hit-only up front — every page already mapped, every line a guaranteed
hit (:meth:`CacheSystem.hit_lines`), the whole charge inside the
quantum — and then charges them as one numpy aggregate: one statistics
update, one clock bump, one fancy-indexed gather per touched page,
zero per-word Python.  Any failed precondition falls back to the
per-word loop before a single cycle is charged, so the vector path is
observation-equivalent by construction.

``write_many`` and ``write_block`` get the symmetric treatment: the
all-hit *scatter* path proves every page resolved with write privilege
(no faults), every line a guaranteed write hit (owner == pid, via one
``hit_lines(..., is_write=True)`` probe), and the whole charge inside
the quantum — then lands the stores as one numpy scatter per touched
page.  Write miss runs batch through :meth:`CacheSystem.access_run`
exactly as reads do.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from repro.params import WORD_BYTES
from repro.svm import MapMode

if TYPE_CHECKING:
    from repro.runtime.runner import Runtime
    from repro.runtime.thread import ThreadContext
    from repro.sync import MGSLock

__all__ = ["Env"]

#: below this many addresses, the per-word loop beats the vector setup
_VEC_MIN_ADDRS = 8


def _line_extras(
    addr: int, end: int, line_size: int, tcost: int, whit: int
) -> list[int]:
    """Non-miss charge of each line the words ``[addr, end)`` touch.

    A line's first word pays its translation ``tcost`` (the miss is
    ``access_run``'s to price); every further word of the line is a hit
    at ``whit``.  Only the first and last line can be partial.
    """
    first_end = (addr // line_size + 1) * line_size
    if first_end >= end:
        return [tcost + ((end - addr) // WORD_BYTES - 1) * whit]
    extras = [tcost + ((first_end - addr) // WORD_BYTES - 1) * whit]
    nfull, tail = divmod(end - first_end, line_size)
    extras += [tcost + (line_size // WORD_BYTES - 1) * whit] * nfull
    if tail:
        extras.append(tcost + (tail // WORD_BYTES - 1) * whit)
    return extras


class Env:
    """Per-thread view of the machine.

    The memory operations (``read``, ``write``, ``read_block``,
    ``write_block``, ``read_many``, ``write_many``) are per-instance
    slots, each bound once here to its one implementation, so observers
    such as the race detector can wrap them per instance.
    """

    __slots__ = (
        "_rt",
        "_t",
        "pid",
        "cluster",
        "nprocs",
        "_page_size",
        "_line_size",
        "_quantum",
        "_hw_only",
        "_protocol",
        "_cache",
        "_cache_counts",
        "_hit_cost",
        "_tlb",
        "_frames",
        "_costs",
        "_ta",
        "_tp",
        # per-instance bindings of the memory operations
        "read",
        "write",
        "read_block",
        "write_block",
        "read_many",
        "write_many",
    )

    def __init__(self, runtime: "Runtime", thread: "ThreadContext") -> None:
        self._rt = runtime
        self._t = thread
        self.pid = thread.pid
        config = runtime.config
        self.cluster = config.cluster_of(self.pid)
        self.nprocs = config.total_processors
        self._page_size = config.page_size
        self._line_size = config.line_size
        self._quantum = runtime.quantum
        self._hw_only = runtime.protocol.hw_bypass
        self._protocol = runtime.protocol
        self._cache = runtime.cache
        self._cache_counts = runtime.cache._counts  # slot 0 counts hits
        self._hit_cost = runtime.cache.hit_cost
        self._tlb = runtime.protocol.tlbs[self.pid]
        self._frames = runtime.protocol.frames_view(self.pid)
        self._costs = runtime.costs
        self._ta = self._costs.translate_array
        self._tp = self._costs.translate_pointer
        self.read = self._read
        self.write = self._write
        self.read_block = self._read_block
        self.write_block = self._write_block
        self.read_many = self._read_many
        self.write_many = self._write_many
        detector = runtime.race_detector
        if detector is not None:
            # Opt-in happens-before race detection (repro.analysis):
            # rebinds the six operations to recording wrappers that
            # delegate to the originals unchanged and charge nothing.
            detector.instrument(self)

    def close(self) -> None:
        """Unbind the memory operations once the thread is done.

        Each binding is a method of this Env, or an observer's wrapper
        around one, so it closes a reference cycle through the Env; see
        :meth:`repro.runtime.Runtime.close`.
        """
        self.read = self.write = self.read_block = None
        self.write_block = self.read_many = self.write_many = None

    # ------------------------------------------------------------------
    # memory operations — one word
    # ------------------------------------------------------------------

    def _read(self, addr: int, ptr: bool = False):
        """Load one shared word.  Usage: ``v = yield from env.read(a)``."""
        t = self._t
        costs = self._costs
        t.charge_user(costs.translate_pointer if ptr else costs.translate_array)
        vpn = addr // self._page_size
        if self._hw_only:
            data = self._hw_frame(vpn, t)
        else:
            while self._tlb.lookup(vpn) is None:
                yield ("fault", vpn, False)
            data = self._frames[vpn].data
        owner = self._owner_pid(vpn)
        t.charge_user(
            self._cache.access(
                self.cluster, self.pid, addr // self._line_size, False, owner
            )
        )
        if t.time - t.last_yield > self._quantum:
            yield ("pause",)
        return float(data[(addr % self._page_size) // WORD_BYTES])

    def _write(self, addr: int, value: float, ptr: bool = False):
        """Store one shared word.  Usage: ``yield from env.write(a, v)``."""
        t = self._t
        costs = self._costs
        t.charge_user(costs.translate_pointer if ptr else costs.translate_array)
        vpn = addr // self._page_size
        if self._hw_only:
            data = self._hw_frame(vpn, t)
        else:
            while not self._tlb.has_write(vpn):
                yield ("fault", vpn, True)
            data = self._frames[vpn].data
        owner = self._owner_pid(vpn)
        t.charge_user(
            self._cache.access(
                self.cluster, self.pid, addr // self._line_size, True, owner
            )
        )
        data[(addr % self._page_size) // WORD_BYTES] = value
        if t.time - t.last_yield > self._quantum:
            yield ("pause",)

    # ------------------------------------------------------------------
    # page resolution for the batched operations
    # ------------------------------------------------------------------

    def _load_page(self, vpn: int, write: bool, pages: dict, lines: set):
        """Resolve ``vpn`` (with write privilege iff ``write``); may yield
        mapping faults.

        Returns the ``(frame data, owner)`` entry and caches it in the
        calling operation's ``pages``.  A fault suspends the thread, so
        everything the call learned before it — ``pages`` and ``lines``
        — is dropped first.
        """
        if self._hw_only:
            entry = (self._hw_frame(vpn, self._t), self._rt.aspace.home_proc(vpn))
        else:
            tlb = self._tlb
            while (
                not tlb.has_write(vpn) if write else tlb.lookup(vpn) is None
            ):
                yield ("fault", vpn, write)
                pages.clear()
                lines.clear()
            frame = self._frames[vpn]
            entry = (frame.data, frame.owner_pid)
        pages[vpn] = entry
        return entry

    def _resolve_pages(self, vpns, write: bool):
        """Resolve every page in ``vpns`` iff none needs a fault.

        The non-suspending sibling of :meth:`_load_page`: returns
        ``{vpn: (frame data, owner)}`` when every page is already mapped
        (with write privilege iff ``write``), or None — charging nothing
        — when any would fault or, at C == P, need the one-time TLB fill
        charge.  The vector paths use it to prove a whole batch
        fault-free before committing to it.
        """
        tlb = self._tlb
        pages = {}
        for vpn in vpns:
            if tlb.lookup(vpn) is None:
                return None
            if self._hw_only:
                pages[vpn] = (
                    self._protocol.home(vpn).data,
                    self._rt.aspace.home_proc(vpn),
                )
            elif write and not tlb.has_write(vpn):
                return None
            else:
                frame = self._frames[vpn]
                pages[vpn] = (frame.data, frame.owner_pid)
        return pages

    # ------------------------------------------------------------------
    # memory operations — batched
    # ------------------------------------------------------------------

    def _read_vector(self, addrs, n: int, tcost: int):
        """All-hit aggregate load of ``addrs``; None → caller goes scalar.

        Preconditions proved before anything is charged: every page
        mapped (no faults), every line a guaranteed hit — one
        :meth:`CacheSystem.hit_lines` directory probe — and the whole
        charge of ``n * (translate + hit)`` cycles inside the current
        quantum (no pause).  Then the per-word loop's exact effect is
        applied in aggregate: one clock/bucket bump, ``n`` recorded
        hits, and one numpy gather per touched page.
        """
        t = self._t
        whit = tcost + self._hit_cost
        if n * whit > t.last_yield + self._quantum - t.time:
            return None
        arr = np.asarray(addrs, dtype=np.int64)
        vpns = arr // self._page_size
        uvpns = np.unique(vpns).tolist()
        pages = self._resolve_pages(uvpns, False)
        if pages is None:
            return None
        lines = np.unique(arr // self._line_size).tolist()
        if not self._cache.hit_lines(self.cluster, self.pid, lines, False):
            return None
        self._cache_counts[0] += n
        cost = n * whit
        t.time += cost
        t.user += cost
        widx = (arr % self._page_size) // WORD_BYTES
        out = np.empty(n, dtype=np.float64)
        if len(uvpns) == 1:
            out[:] = pages[uvpns[0]][0][widx]
        else:
            for vpn in uvpns:
                sel = vpns == vpn
                out[sel] = pages[vpn][0][widx[sel]]
        return out.tolist()

    def _read_many(self, addrs: Iterable[int], ptr: bool = False):
        """Load several shared words in one call.

        Usage: ``a, b = yield from env.read_many((addr_a, addr_b))``.
        Equivalent — cycle for cycle, fault for fault, pause for pause —
        to a sequence of ``env.read`` calls over ``addrs``, but resolves
        the whole run inside one generator.  Batches long enough to
        amortize the setup first try the all-hit vector path
        (:meth:`_read_vector`); anything it cannot prove conflict-free
        falls through to the per-word loop untouched.
        """
        t = self._t
        if not isinstance(addrs, (tuple, list)):
            addrs = tuple(addrs)
        tcost = self._tp if ptr else self._ta
        if len(addrs) >= _VEC_MIN_ADDRS:
            out = self._read_vector(addrs, len(addrs), tcost)
            if out is not None:
                return out
        pages = {}
        lines = set()
        access = self._cache.access
        counts = self._cache_counts
        cluster = self.cluster
        pid = self.pid
        page_size = self._page_size
        line_size = self._line_size
        quantum = self._quantum
        hit_cost = self._hit_cost
        out = []
        append = out.append
        ttime = t.time
        tuser = t.user
        for addr in addrs:
            ttime += tcost
            tuser += tcost
            entry = pages.get(addr // page_size)
            if entry is None:
                t.time = ttime
                t.user = tuser
                entry = yield from self._load_page(
                    addr // page_size, False, pages, lines
                )
                ttime = t.time
                tuser = t.user
            line = addr // line_size
            if line in lines:
                counts[0] += 1
                ttime += hit_cost
                tuser += hit_cost
            else:
                cost = access(cluster, pid, line, False, entry[1])
                lines.add(line)
                ttime += cost
                tuser += cost
            if ttime - t.last_yield > quantum:
                t.time = ttime
                t.user = tuser
                yield ("pause",)
                pages.clear()
                lines.clear()
                ttime = t.time
                tuser = t.user
            append(float(entry[0][(addr % page_size) // WORD_BYTES]))
        t.time = ttime
        t.user = tuser
        return out

    def _write_vector(self, addrs, values, n: int, tcost: int):
        """All-hit aggregate scatter of ``values`` to ``addrs``; None →
        caller goes scalar.

        The write twin of :meth:`_read_vector`: every page proved
        write-resolved (no faults), every line a guaranteed *write* hit
        — owner == pid via one ``hit_lines(..., is_write=True)`` probe —
        and the whole ``n * (translate + hit)`` charge inside the
        quantum.  Then one clock bump, ``n`` recorded hits, and one
        numpy fancy-indexed scatter per touched page.  Duplicate target
        addresses bail to the per-word loop, whose last-store-wins order
        is explicit.
        """
        t = self._t
        whit = tcost + self._hit_cost
        if n * whit > t.last_yield + self._quantum - t.time:
            return None
        arr = np.asarray(addrs, dtype=np.int64)
        if len(np.unique(arr)) != n:
            return None
        vpns = arr // self._page_size
        uvpns = np.unique(vpns).tolist()
        pages = self._resolve_pages(uvpns, True)
        if pages is None:
            return None
        lines = np.unique(arr // self._line_size).tolist()
        if not self._cache.hit_lines(self.cluster, self.pid, lines, True):
            return None
        self._cache_counts[0] += n
        cost = n * whit
        t.time += cost
        t.user += cost
        vals = np.asarray(values, dtype=np.float64)
        widx = (arr % self._page_size) // WORD_BYTES
        if len(uvpns) == 1:
            pages[uvpns[0]][0][widx] = vals
        else:
            for vpn in uvpns:
                sel = vpns == vpn
                pages[vpn][0][widx[sel]] = vals[sel]
        return True

    def _write_many(
        self, addrs: Iterable[int], values: Sequence[float], ptr: bool = False
    ):
        """Store several shared words in one call.

        Usage: ``yield from env.write_many((a0, a1), (v0, v1))``.
        Equivalent — cycle for cycle, fault for fault, pause for pause —
        to a sequence of ``env.write`` calls over ``(addrs, values)``
        pairs, but resolves the whole scatter inside one generator.
        Batches long enough to amortize the setup first try the all-hit
        vector path (:meth:`_write_vector`); anything it cannot prove
        conflict-free falls through to the per-word loop untouched.
        Raises ValueError, before anything is charged, when ``addrs``
        and ``values`` differ in length.
        """
        t = self._t
        if not isinstance(addrs, (tuple, list)):
            addrs = tuple(addrs)
        if len(values) != len(addrs):
            raise ValueError(
                f"write_many: {len(addrs)} addresses but {len(values)} values"
            )
        tcost = self._tp if ptr else self._ta
        if len(addrs) >= _VEC_MIN_ADDRS:
            if self._write_vector(addrs, values, len(addrs), tcost):
                return
        pages = {}
        lines = set()
        access = self._cache.access
        counts = self._cache_counts
        cluster = self.cluster
        pid = self.pid
        page_size = self._page_size
        line_size = self._line_size
        quantum = self._quantum
        hit_cost = self._hit_cost
        ttime = t.time
        tuser = t.user
        for addr, value in zip(addrs, values):
            ttime += tcost
            tuser += tcost
            entry = pages.get(addr // page_size)
            if entry is None:
                t.time = ttime
                t.user = tuser
                entry = yield from self._load_page(
                    addr // page_size, True, pages, lines
                )
                ttime = t.time
                tuser = t.user
            line = addr // line_size
            if line in lines:
                counts[0] += 1
                ttime += hit_cost
                tuser += hit_cost
            else:
                cost = access(cluster, pid, line, True, entry[1])
                lines.add(line)
                ttime += cost
                tuser += cost
            # Stores land before a pause, as env.write does.
            entry[0][(addr % page_size) // WORD_BYTES] = value
            if ttime - t.last_yield > quantum:
                t.time = ttime
                t.user = tuser
                yield ("pause",)
                pages.clear()
                lines.clear()
                ttime = t.time
                tuser = t.user
        t.time = ttime
        t.user = tuser

    def _read_block(self, addr: int, nwords: int, ptr: bool = False):
        """Load ``nwords`` consecutive shared words starting at ``addr``.

        Usage: ``row = yield from env.read_block(a.addr(i), n)``.
        Equivalent to ``nwords`` sequential ``env.read`` calls, but
        resolves whole runs of guaranteed-hit lines in closed form: one
        directory probe (:meth:`CacheSystem.hit_run`), one aggregate
        charge, one slice off the frame — instead of per-word work.
        """
        t = self._t
        pages = {}
        lines = set()
        access = self._cache.access
        access_run = self._cache.access_run
        hit_run = self._cache.hit_run
        counts = self._cache_counts
        cluster = self.cluster
        pid = self.pid
        page_size = self._page_size
        line_size = self._line_size
        quantum = self._quantum
        hit_cost = self._hit_cost
        tcost = self._tp if ptr else self._ta
        whit = tcost + hit_cost
        # A miss batch is only worth attempting when the quantum budget
        # can admit at least one worst-case *hardware* line plus its
        # hit words (access_run's per-line bound rejects a first line
        # that is software-class and does not fit).
        batch_floor = self._cache.worst_hw_miss + tcost + (
            line_size // WORD_BYTES - 1
        ) * whit
        out = []
        append = out.append
        extend = out.extend
        ttime = t.time
        tuser = t.user
        end = addr + nwords * WORD_BYTES
        while addr < end:
            vpn = addr // page_size
            entry = pages.get(vpn)
            if entry is None:
                # Unresolved page: translate is charged before any fault,
                # exactly as the per-word path does.
                ttime += tcost
                tuser += tcost
                t.time = ttime
                t.user = tuser
                entry = yield from self._load_page(vpn, False, pages, lines)
                ttime = t.time
                tuser = t.user
                data = entry[0]
                line = addr // line_size
                if line in lines:
                    counts[0] += 1
                    ttime += hit_cost
                    tuser += hit_cost
                else:
                    cost = access(cluster, pid, line, False, entry[1])
                    lines.add(line)
                    ttime += cost
                    tuser += cost
                if ttime - t.last_yield > quantum:
                    t.time = ttime
                    t.user = tuser
                    yield ("pause",)
                    pages.clear()
                    lines.clear()
                    ttime = t.time
                    tuser = t.user
                append(float(data[(addr % page_size) // WORD_BYTES]))
                addr += WORD_BYTES
                continue
            data, owner = entry
            page_end = (vpn + 1) * page_size
            chunk_end = page_end if page_end < end else end
            while addr < chunk_end:
                line = addr // line_size
                max_lines = (chunk_end - 1) // line_size - line + 1
                budget = t.last_yield + quantum - ttime
                # Words beyond the first ``budget // whit + 1`` cannot
                # be charged before the next pause, and the pause stales
                # the probe anyway — so cap the probe at the lines the
                # budget can actually reach instead of the whole chunk.
                m = budget // whit + 1
                cap = (addr + m * WORD_BYTES - 1) // line_size - line + 1
                if cap > max_lines:
                    cap = max_lines
                nhit = hit_run(cluster, pid, line, cap, False)
                if nhit == 0:
                    # A run of genuine misses: service consecutive
                    # missing lines in one directory call, with the
                    # per-line classification, counts, and charges of
                    # the word loop — capped so no quantum pause can
                    # fall inside the batch.
                    k = 0
                    if budget > batch_floor:
                        # Only the ``cap`` lines the budget can reach get
                        # an entry: access_run stops within them anyway.
                        stop = (line + cap) * line_size
                        extras = _line_extras(
                            addr,
                            stop if stop < chunk_end else chunk_end,
                            line_size,
                            tcost,
                            whit,
                        )
                        k, charge = access_run(
                            cluster, pid, line, False, owner, extras, budget
                        )
                    if k:
                        run_end = (line + k) * line_size
                        if run_end > chunk_end:
                            run_end = chunk_end
                        m = (run_end - addr) // WORD_BYTES
                        lines.update(range(line, line + k))
                        counts[0] += m - k
                        ttime += charge
                        tuser += charge
                        w0 = (addr % page_size) // WORD_BYTES
                        extend(data[w0 : w0 + m].tolist())
                        addr = run_end
                        continue
                    # Batch would cross the quantum before its first
                    # line: classify, charge, move one word.
                    cost = access(cluster, pid, line, False, owner)
                    lines.add(line)
                    ttime += tcost + cost
                    tuser += tcost + cost
                    if ttime - t.last_yield > quantum:
                        t.time = ttime
                        t.user = tuser
                        yield ("pause",)
                        pages.clear()
                        lines.clear()
                        ttime = t.time
                        tuser = t.user
                        append(float(data[(addr % page_size) // WORD_BYTES]))
                        addr += WORD_BYTES
                        break  # page/directory knowledge is stale
                    append(float(data[(addr % page_size) // WORD_BYTES]))
                    addr += WORD_BYTES
                    continue
                # Guaranteed-hit run, cut short at the word whose charge
                # crosses the quantum (that word reads after the pause,
                # as the per-word path does).
                run_end = (line + nhit) * line_size
                if run_end > chunk_end:
                    run_end = chunk_end
                k = (run_end - addr) // WORD_BYTES
                if m >= k:
                    m = k
                    paused = k * whit > budget
                else:
                    paused = True
                cost = m * whit
                ttime += cost
                tuser += cost
                counts[0] += m
                w0 = (addr % page_size) // WORD_BYTES
                addr += m * WORD_BYTES
                if paused:
                    extend(data[w0 : w0 + m - 1].tolist())
                    t.time = ttime
                    t.user = tuser
                    yield ("pause",)
                    pages.clear()
                    lines.clear()
                    ttime = t.time
                    tuser = t.user
                    append(float(data[w0 + m - 1]))
                    break  # page/directory knowledge is stale
                extend(data[w0 : w0 + m].tolist())
        t.time = ttime
        t.user = tuser
        return out

    def _write_block_vector(
        self, addr: int, values: Sequence[float], n: int, tcost: int
    ):
        """All-hit aggregate store of a whole contiguous block; None →
        caller runs the chunked loop.

        The contiguous sibling of :meth:`_write_vector`: every touched
        page write-resolved, every line in ``[first, last]`` a
        guaranteed write hit, the whole charge inside the quantum —
        then one aggregate charge and one contiguous slice store per
        page, with no per-chunk probing at all.
        """
        t = self._t
        whit = tcost + self._hit_cost
        if n * whit > t.last_yield + self._quantum - t.time:
            return None
        page_size = self._page_size
        last_addr = addr + (n - 1) * WORD_BYTES
        pages = self._resolve_pages(
            range(addr // page_size, last_addr // page_size + 1), True
        )
        if pages is None:
            return None
        line_size = self._line_size
        if not self._cache.hit_lines(
            self.cluster,
            self.pid,
            range(addr // line_size, last_addr // line_size + 1),
            True,
        ):
            return None
        self._cache_counts[0] += n
        cost = n * whit
        t.time += cost
        t.user += cost
        vi = 0
        end = addr + n * WORD_BYTES
        while addr < end:
            vpn = addr // page_size
            page_end = (vpn + 1) * page_size
            chunk_end = page_end if page_end < end else end
            m = (chunk_end - addr) // WORD_BYTES
            w0 = (addr % page_size) // WORD_BYTES
            pages[vpn][0][w0 : w0 + m] = values[vi : vi + m]
            vi += m
            addr = chunk_end
        return True

    def _write_block(
        self, addr: int, values: Sequence[float], ptr: bool = False
    ):
        """Store consecutive shared words starting at ``addr``.

        Usage: ``yield from env.write_block(a.addr(i), values)``.
        Equivalent to sequential ``env.write`` calls over ``values``,
        with the same closed-form hit-run batching as ``read_block``,
        plus an all-hit whole-block scatter preamble
        (:meth:`_write_block_vector`) for blocks it can prove
        conflict-free in one probe.
        """
        tcost = self._tp if ptr else self._ta
        if len(values) >= _VEC_MIN_ADDRS:
            if self._write_block_vector(addr, values, len(values), tcost):
                return
        t = self._t
        pages = {}
        lines = set()
        access = self._cache.access
        access_run = self._cache.access_run
        hit_run = self._cache.hit_run
        counts = self._cache_counts
        cluster = self.cluster
        pid = self.pid
        page_size = self._page_size
        line_size = self._line_size
        quantum = self._quantum
        hit_cost = self._hit_cost
        whit = tcost + hit_cost
        batch_floor = self._cache.worst_hw_miss + tcost + (
            line_size // WORD_BYTES - 1
        ) * whit
        vi = 0
        ttime = t.time
        tuser = t.user
        end = addr + len(values) * WORD_BYTES
        while addr < end:
            vpn = addr // page_size
            entry = pages.get(vpn)
            if entry is None:
                ttime += tcost
                tuser += tcost
                t.time = ttime
                t.user = tuser
                entry = yield from self._load_page(vpn, True, pages, lines)
                ttime = t.time
                tuser = t.user
                data = entry[0]
                line = addr // line_size
                if line in lines:
                    counts[0] += 1
                    ttime += hit_cost
                    tuser += hit_cost
                else:
                    cost = access(cluster, pid, line, True, entry[1])
                    lines.add(line)
                    ttime += cost
                    tuser += cost
                data[(addr % page_size) // WORD_BYTES] = values[vi]
                vi += 1
                addr += WORD_BYTES
                if ttime - t.last_yield > quantum:
                    t.time = ttime
                    t.user = tuser
                    yield ("pause",)
                    pages.clear()
                    lines.clear()
                    ttime = t.time
                    tuser = t.user
                continue
            data, owner = entry
            page_end = (vpn + 1) * page_size
            chunk_end = page_end if page_end < end else end
            while addr < chunk_end:
                line = addr // line_size
                max_lines = (chunk_end - 1) // line_size - line + 1
                budget = t.last_yield + quantum - ttime
                # Budget-capped probe, as in _read_block.
                m = budget // whit + 1
                cap = (addr + m * WORD_BYTES - 1) // line_size - line + 1
                if cap > max_lines:
                    cap = max_lines
                nhit = hit_run(cluster, pid, line, cap, True)
                if nhit == 0:
                    # Batched miss run, as in _read_block: stores land
                    # in aggregate, and the budget cap proves no pause
                    # falls inside the batch.
                    k = 0
                    if budget > batch_floor:
                        # Only the ``cap`` lines the budget can reach get
                        # an entry: access_run stops within them anyway.
                        stop = (line + cap) * line_size
                        extras = _line_extras(
                            addr,
                            stop if stop < chunk_end else chunk_end,
                            line_size,
                            tcost,
                            whit,
                        )
                        k, charge = access_run(
                            cluster, pid, line, True, owner, extras, budget
                        )
                    if k:
                        run_end = (line + k) * line_size
                        if run_end > chunk_end:
                            run_end = chunk_end
                        m = (run_end - addr) // WORD_BYTES
                        lines.update(range(line, line + k))
                        counts[0] += m - k
                        ttime += charge
                        tuser += charge
                        w0 = (addr % page_size) // WORD_BYTES
                        data[w0 : w0 + m] = values[vi : vi + m]
                        vi += m
                        addr = run_end
                        continue
                    cost = access(cluster, pid, line, True, owner)
                    lines.add(line)
                    ttime += tcost + cost
                    tuser += tcost + cost
                    data[(addr % page_size) // WORD_BYTES] = values[vi]
                    vi += 1
                    addr += WORD_BYTES
                    if ttime - t.last_yield > quantum:
                        t.time = ttime
                        t.user = tuser
                        yield ("pause",)
                        pages.clear()
                        lines.clear()
                        ttime = t.time
                        tuser = t.user
                        break  # page/directory knowledge is stale
                    continue
                run_end = (line + nhit) * line_size
                if run_end > chunk_end:
                    run_end = chunk_end
                k = (run_end - addr) // WORD_BYTES
                if m >= k:
                    m = k
                    paused = k * whit > budget
                else:
                    paused = True
                cost = m * whit
                ttime += cost
                tuser += cost
                counts[0] += m
                w0 = (addr % page_size) // WORD_BYTES
                # Stores land before a pause, as the per-word path does.
                data[w0 : w0 + m] = values[vi : vi + m]
                vi += m
                addr += m * WORD_BYTES
                if paused:
                    t.time = ttime
                    t.user = tuser
                    yield ("pause",)
                    pages.clear()
                    lines.clear()
                    ttime = t.time
                    tuser = t.user
                    break  # page/directory knowledge is stale
        t.time = ttime
        t.user = tuser

    # ------------------------------------------------------------------
    # computation
    # ------------------------------------------------------------------

    def compute(self, cycles: int):
        """Spend ``cycles`` of pure computation."""
        t = self._t
        t.time += cycles
        t.user += cycles
        if t.time - t.last_yield > self._quantum:
            yield ("pause",)

    # ------------------------------------------------------------------
    # synchronization
    # ------------------------------------------------------------------

    def lock(self, lk: "MGSLock"):
        """Acquire an MGS lock (an acquire point; no protocol action
        needed because MGS invalidates eagerly at releases)."""
        yield ("lock", lk)

    def unlock(self, lk: "MGSLock"):
        """Release an MGS lock.  This is a release point: the DUQ is
        flushed *before* the lock is freed — the source of the paper's
        critical-section dilation."""
        yield ("unlock", lk)

    def barrier(self):
        """Wait on the global barrier (also a release point)."""
        yield ("barrier",)

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------

    def _owner_pid(self, vpn: int) -> int:
        if self._hw_only:
            return self._rt.aspace.home_proc(vpn)
        return self._frames[vpn].owner_pid

    def _hw_frame(self, vpn: int, t):
        """Home-copy access for the tightly-coupled configuration."""
        tlb = self._tlb
        if tlb.lookup(vpn) is None:
            # Only SVM overhead remains at C == P: a one-time fill.
            t.charge_user(self._costs.fault_overhead + self._costs.map_fill)
            tlb.fill(vpn, MapMode.WRITE)
        return self._protocol.home(vpn).data

    @property
    def now(self) -> int:
        """The thread's local clock (cycles)."""
        return self._t.time
