"""Per-layer host-time attribution for one traced run, from outside the program.

:meth:`Tracer.install` replaces each layer's entry points with timing
wrappers that call the original unchanged; :meth:`Tracer.uninstall` puts
every original back.  Nothing inside ``src/`` knows it is being traced,
and the benchmark asserts the traced run's simulated statistics equal the
untraced run's.

Three kinds of wrapper:

* a *call* wrapper times one synchronous call (``Machine.send``,
  ``CacheSystem.access``, ``MGSLock.acquire``, ...);
* an *event* trampoline: ``Simulator.schedule_at`` is wrapped so every
  scheduled callback runs inside a timer attributed to the layer that
  owns the callback (by its module), which is how message handlers, lock
  and barrier callbacks and the runtime's thread driver get their time;
* a *step* wrapper for the ``Env`` memory operations, which are
  generators: it times each resumption of the generator, never the time
  it spends suspended.

Each layer's *self* time is the time inside its wrappers minus the time
inside wrappers nested in them.  Fine-grained calls are aggregated into
counters; coarse calls (a point, an app build, ``Runtime.run``,
``Simulator.run``, a phase digest, ``parallel_map``) are also kept as
spans, with ids and parent links, and written as Chrome Trace Event JSON.

Sweep points run in forked pool workers.  ``parallel_map`` is wrapped so
each job runs through :func:`_traced_job`, which clears the worker's copy
of the tracer, runs the job and ships the worker's counters and spans
back with the result; the parent merges them.  The active tracer is a
module global because forked workers can only find it that way.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

from repro.apps import jacobi, tsp, water_kernel
from repro.bench import sweep as bench_sweep
from repro.core.bus import MessageBus
from repro.core.engine import engine_class, engine_names
from repro.hw import CacheSystem
from repro.machine import Machine
from repro.runtime import Env, Runtime
from repro.runtime import runner as runtime_runner
from repro.runtime.replay import PhaseRecorder
from repro.sim import Simulator
from repro.sync import MGSLock, TreeBarrier

_now = time.perf_counter_ns

#: module prefix -> layer of a scheduled callback (first match wins); the
#: layers are named after the program's modules
_MODULE_LAYERS = (
    ("repro.sim", "sim"),
    ("repro.core.bus", "bus"),
    ("repro.machine", "machine"),
    ("repro.net", "machine"),
    ("repro.hw", "hw"),
    ("repro.runtime.env", "env"),
    ("repro.runtime.replay", "replay"),
    ("repro.runtime", "runner"),
    ("repro.sync", "sync"),
    ("repro.protocols", "protocol"),
    ("repro.core", "protocol"),
    ("repro.apps", "apps"),
)

#: the Env memory operations (per-instance bindings) and the words each moves
_ENV_OPS = {
    "read": lambda args, kwargs: 1,
    "write": lambda args, kwargs: 1,
    "read_block": lambda args, kwargs: kwargs.get("nwords", _arg(args, 1, 0)),
    "write_block": lambda args, kwargs: _sized(kwargs.get("values", _arg(args, 1))),
    "read_many": lambda args, kwargs: _sized(kwargs.get("addrs", _arg(args, 0))),
    "write_many": lambda args, kwargs: _sized(kwargs.get("values", _arg(args, 1))),
}

_CACHE_ENTRIES = ("access", "access_run", "hit_run", "hit_lines", "flush_page")

#: app module attribute -> (layer, entry); ``run`` is one simulated point
_APP_ENTRIES = (("build", "apps", "build"), ("golden", "apps", "golden"),
                ("run", "bench", "point"))

_ACTIVE: "Tracer | None" = None


def _arg(args: tuple, i: int, default=()):
    return args[i] if len(args) > i else default


def _sized(values) -> int:
    """Length of ``values`` without consuming it (0 for a bare iterator)."""
    return len(values) if hasattr(values, "__len__") else 0


def _module_layer(module: str) -> str:
    for prefix, layer in _MODULE_LAYERS:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return "other"


class _TracedSlot:
    """Data descriptor standing in for one of ``Env``'s ``__slots__``.

    ``Env`` binds its memory operations per instance (fast path, slow
    path, adaptive bypass); wrapping at the slot catches every binding.
    """

    def __init__(self, member, wrap) -> None:
        self.member = member
        self.wrap = wrap

    def __get__(self, obj, owner=None):
        return self if obj is None else self.member.__get__(obj, owner)

    def __set__(self, obj, value) -> None:
        self.member.__set__(obj, self.wrap(value))


class Tracer:
    """Counters and spans of one traced run."""

    def __init__(self) -> None:
        self.owner_pid = os.getpid()
        self.origin_ns = _now()
        self.stack: list[list[int]] = []  # one [child_ns] frame per open call
        self.open_spans: list[int] = []
        self.self_ns: dict[str, int] = defaultdict(int)  # layer -> ns
        self.calls: dict[str, int] = defaultdict(int)  # entry -> calls
        self.entry_ns: dict[str, int] = defaultdict(int)  # entry -> inclusive ns
        self.words = [0]  # words moved by Env memory operations
        self.spans: list[dict] = []
        self.runs: list[dict] = []  # one observation per Runtime.run
        self._next_span = 0
        self._patches: list[tuple[object, str, object]] = []
        self._layer_cache: dict = {}

    # -- bookkeeping ---------------------------------------------------

    def clear(self) -> None:
        """Forget everything (in place: the wrappers hold references)."""
        self.stack.clear()
        self.open_spans.clear()
        self.self_ns.clear()
        self.calls.clear()
        self.entry_ns.clear()
        self.words[0] = 0
        self.spans.clear()
        self.runs.clear()

    def export(self) -> dict:
        return {
            "self_ns": dict(self.self_ns),
            "calls": dict(self.calls),
            "entry_ns": dict(self.entry_ns),
            "words": self.words[0],
            "spans": list(self.spans),
            "runs": list(self.runs),
        }

    def merge(self, data: dict) -> None:
        for key in ("self_ns", "calls", "entry_ns"):
            mine = getattr(self, key)
            for k, v in data[key].items():
                mine[k] += v
        self.words[0] += data["words"]
        self.spans.extend(data["spans"])
        self.runs.extend(data["runs"])

    @contextmanager
    def span(self, name: str, layer: str, parent: int | None = None):
        """Time a block as a span of ``layer``; yields the span id."""
        pid = os.getpid()
        sid = pid * 1_000_000 + self._next_span
        self._next_span += 1
        if parent is None and self.open_spans:
            parent = self.open_spans[-1]
        frame = [0]
        self.stack.append(frame)
        self.open_spans.append(sid)
        t0 = _now()
        try:
            yield sid
        finally:
            dt = _now() - t0
            self.open_spans.pop()
            self.stack.pop()
            self.self_ns[layer] += dt - frame[0]
            self.entry_ns[name] += dt
            self.calls[name] += 1
            if self.stack:
                self.stack[-1][0] += dt
            self.spans.append(
                {
                    "name": name, "layer": layer, "id": sid, "parent": parent,
                    "pid": pid, "start_ns": t0, "dur_ns": dt,
                }
            )

    # -- wrappers ------------------------------------------------------

    def _timed(self, fn, layer: str, entry: str):
        stack, self_ns, entry_ns, calls = (
            self.stack, self.self_ns, self.entry_ns, self.calls,
        )

        def wrapper(*args, **kwargs):
            frame = [0]
            stack.append(frame)
            t0 = _now()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = _now() - t0
                stack.pop()
                self_ns[layer] += dt - frame[0]
                entry_ns[entry] += dt
                calls[entry] += 1
                if stack:
                    stack[-1][0] += dt

        return wrapper

    def _spanned(self, fn, layer: str, entry: str):
        def wrapper(*args, **kwargs):
            with self.span(entry, layer):
                return fn(*args, **kwargs)

        return wrapper

    def _stepped(self, entry: str, words_of):
        """Wrap a bound generator-returning Env operation."""
        stack, self_ns, entry_ns, calls, words = (
            self.stack, self.self_ns, self.entry_ns, self.calls, self.words,
        )

        def steps(gen):
            value = None
            while True:
                frame = [0]
                stack.append(frame)
                t0 = _now()
                try:
                    req = gen.send(value)
                except StopIteration as stop:
                    done, result = True, stop.value
                else:
                    done = False
                finally:
                    dt = _now() - t0
                    stack.pop()
                    self_ns["env"] += dt - frame[0]
                    entry_ns[entry] += dt
                    if stack:
                        stack[-1][0] += dt
                if done:
                    return result
                value = yield req

        def wrap(bound):
            def wrapper(*args, **kwargs):
                calls[entry] += 1
                words[0] += words_of(args, kwargs)
                return steps(bound(*args, **kwargs))

            return wrapper

        return wrap

    def _layer_of(self, fn) -> str:
        func = getattr(fn, "__func__", fn)
        key = getattr(func, "__code__", func)
        layer = self._layer_cache.get(key)
        if layer is None:
            if key is MessageBus._deliver.__code__:
                layer = "protocol"  # delivery runs the protocol's handler
            else:
                layer = _module_layer(getattr(func, "__module__", "") or "")
            self._layer_cache[key] = layer
        return layer

    def _events(self, schedule_at):
        """``Simulator.schedule_at`` that trampolines every callback."""
        stack, self_ns, layer_of = self.stack, self.self_ns, self._layer_of

        def event(layer, fn, *args):
            frame = [0]
            stack.append(frame)
            t0 = _now()
            try:
                fn(*args)
            finally:
                dt = _now() - t0
                stack.pop()
                self_ns[layer] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt

        def rewrite(sim, at, fn, *args):
            schedule_at(sim, at, event, layer_of(fn), fn, *args)

        return self._timed(rewrite, "sim", "Simulator.schedule_at")

    def _observe_runs(self, run):
        """``Runtime.run`` that records what each simulated run did."""
        runs = self.runs

        def wrapper(rt, *args, **kwargs):
            with self.span("Runtime.run", "runner"):
                result = run(rt, *args, **kwargs)
            flows = result.message_flows.values()
            runs.append(
                {
                    "events": rt.sim.events_processed,
                    "cache": dict(result.cache_stats),
                    "messages": sum(f["count"] for f in flows),
                    "bytes": sum(f["bytes"] for f in flows),
                    "network": {
                        k: result.network_stats[k]
                        for k in ("inter_ssmp", "intra_ssmp", "queue_cycles")
                    },
                    "protocol": dict(result.protocol_stats),
                    "p95": {
                        kind: s["p95"] for kind, s in result.transactions.items()
                    },
                    "locks": {
                        "acquires": result.lock_stats.acquires,
                        "hits": result.lock_stats.hits,
                        "token_transfers": result.lock_stats.token_transfers,
                    },
                    "breakdown": result.breakdown(),
                    "replayed": result.replay_cache.get("replayed", 0),
                }
            )
            return result

        return wrapper

    def _traced_parallel_map(self, parallel_map):
        def wrapper(fn, arg_tuples, jobs=None, priorities=None):
            with self.span("parallel_map", "bench") as sid:
                jobs_in = [(fn, sid, args) for args in arg_tuples]
                out = parallel_map(_traced_job, jobs_in, jobs, priorities)
                results = []
                for result, shipped in out:
                    if shipped is not None:
                        self.merge(shipped)
                    results.append(result)
                return results

        return wrapper

    # -- install / uninstall --------------------------------------------

    def _patch(self, target, name: str, replacement) -> None:
        original = vars(target)[name]
        self._patches.append((target, name, original))
        setattr(target, name, replacement)

    def install(self) -> None:
        global _ACTIVE
        if _ACTIVE is not None:
            raise RuntimeError("a tracer is already installed")
        engines = [engine_class(name) for name in engine_names()]
        timed = [
            (MessageBus, "send", "bus"),
            (Machine, "send", "machine"),
            (Machine, "occupy", "machine"),
            *((CacheSystem, name, "hw") for name in _CACHE_ENTRIES),
            (MGSLock, "acquire", "sync"),
            (MGSLock, "release", "sync"),
            (TreeBarrier, "arrive", "sync"),
            # every Runtime asks whether phase replay applies
            (runtime_runner, "replay_enabled_default", "replay"),
            *(
                (cls, name, "protocol")
                for cls in engines
                for name in ("fault", "release")
                if name in vars(cls)
            ),
        ]
        spanned = [
            (Simulator, "run", "sim", "Simulator.run"),
            (PhaseRecorder, "state_digest", "replay", "PhaseRecorder.state_digest"),
            *(
                (module, name, layer, entry)
                for module in (tsp, jacobi, water_kernel)
                for name, layer, entry in _APP_ENTRIES
            ),
        ]
        for target, name, layer in timed:
            entry = f"{target.__name__}.{name}"
            self._patch(target, name, self._timed(vars(target)[name], layer, entry))
        for target, name, layer, entry in spanned:
            self._patch(target, name, self._spanned(vars(target)[name], layer, entry))
        self._patch(Simulator, "schedule_at", self._events(Simulator.schedule_at))
        self._patch(Runtime, "run", self._observe_runs(Runtime.run))
        self._patch(
            bench_sweep, "parallel_map",
            self._traced_parallel_map(bench_sweep.parallel_map),
        )
        for op, words_of in _ENV_OPS.items():
            slot = _TracedSlot(vars(Env)[op], self._stepped(f"Env.{op}", words_of))
            self._patch(Env, op, slot)
        _ACTIVE = self

    def uninstall(self) -> None:
        global _ACTIVE
        while self._patches:
            target, name, original = self._patches.pop()
            setattr(target, name, original)
        if _ACTIVE is self:
            _ACTIVE = None

    # -- output ----------------------------------------------------------

    def write_chrome_trace(self, path: Path) -> None:
        """Spans as Chrome Trace Event JSON (loads in Perfetto)."""
        events = []
        for pid in sorted({s["pid"] for s in self.spans}):
            role = "benchmark" if pid == self.owner_pid else "pool worker"
            events.append(
                {"name": "process_name", "ph": "M", "pid": pid, "tid": pid,
                 "args": {"name": f"{role} {pid}"}}
            )
        for s in sorted(self.spans, key=lambda s: s["start_ns"]):
            events.append(
                {
                    "name": s["name"], "cat": s["layer"], "ph": "X",
                    "ts": (s["start_ns"] - self.origin_ns) / 1e3,
                    "dur": s["dur_ns"] / 1e3,
                    "pid": s["pid"], "tid": s["pid"],
                    "args": {"span": s["id"], "parent": s["parent"]},
                }
            )
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))


def _traced_job(fn, parent: int, args: tuple):
    """One ``parallel_map`` job under the active tracer.

    In a pool worker the tracer is the worker's forked copy: clear it, run
    the job under a span linked to the parent's ``parallel_map`` span, and
    ship the counters back.  In-process (one job or one CPU) the parent's
    tracer records directly.
    """
    tracer = _ACTIVE
    if tracer is None or os.getpid() == tracer.owner_pid:
        return fn(*args), None
    tracer.clear()
    with tracer.span("job", "bench", parent=parent):
        result = fn(*args)
    return result, tracer.export()
