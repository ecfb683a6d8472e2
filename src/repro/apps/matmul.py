"""Matrix Multiply: C = A x B (Figure 7 of the paper).

Row-blocked: worker p computes the rows of C it owns, reading its rows of
A and the whole of B.  B is read-shared and never written, so each SSMP
replicates it once and keeps it; C rows are written only by their owner.
This gives the paper's result: essentially zero breakup penalty and a
performance curve independent of cluster size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.apps.common import AppRun, block_range, make_runtime
from repro.params import WORD_BYTES, CostModel, MachineConfig
from repro.runtime import Runtime

__all__ = ["MatmulParams", "golden", "build", "run"]

@dataclass(frozen=True)
class MatmulParams:
    """Problem size (paper: 256x256; scaled by default)."""

    n: int = 32
    seed: int = 42
    #: cycles per multiply-accumulate; calibrated so the scaled matrices
    #: keep the paper's compute-to-communication ratio
    compute_per_mac: int = 1000
    #: full C = A x B passes.  1 (the default) runs the classic
    #: one-shot kernel via spawn_all.  Larger values model an iterative
    #: solver re-applying the same operator and switch the app to
    #: phase replay (Runtime.spawn_phases), one phase per pass: every pass
    #: beyond the second is state-idempotent — identical values
    #: rewritten into resident pages — so it collapses to a closed-form
    #: delta the way jacobi/scanphase phases do, with no barrier between
    #: passes (each phase boundary is merely quiescent).
    iterations: int = 1

    def operands(self) -> tuple[np.ndarray, np.ndarray]:
        rng = np.random.default_rng(self.seed)
        a = rng.integers(-4, 5, size=(self.n, self.n)).astype(np.float64)
        b = rng.integers(-4, 5, size=(self.n, self.n)).astype(np.float64)
        return a, b


def golden(params: MatmulParams) -> np.ndarray:
    a, b = params.operands()
    return a @ b


def build(rt: Runtime, params: MatmulParams):
    n = params.n
    config = rt.config
    nprocs = config.total_processors
    wpp = config.words_per_page
    # Rows of A and C are padded to page boundaries, reproducing the
    # paper's geometry where a 256-word row spans whole pages and no two
    # workers ever write the same page.
    row_stride = ((n + wpp - 1) // wpp) * wpp

    def row_home(pg: int) -> int:
        row = min(n - 1, pg * wpp // row_stride)
        per = (n + nprocs - 1) // nprocs
        return min(nprocs - 1, row // per)

    a_mat, b_mat = params.operands()
    arr_a = rt.array("A", n * row_stride, home=row_home)
    arr_b = rt.array("B", n * n)  # interleaved: read by everyone
    arr_c = rt.array("C", n * row_stride, home=row_home)
    init_a = np.zeros(n * row_stride)
    init_c = np.zeros(n * row_stride)
    for i in range(n):
        init_a[i * row_stride : i * row_stride + n] = a_mat[i]
    arr_a.init(init_a)
    arr_b.init(b_mat.ravel())
    arr_c.init(init_c)

    def one_pass(env):
        rows = block_range(n, nprocs, env.pid)
        b_stride = n * WORD_BYTES
        for i in rows:
            a_base = arr_a.addr(i * row_stride)
            a_addrs = tuple(a_base + k * WORD_BYTES for k in range(n))
            for j in range(n):
                # One conflict-free access vector per dot product: row i
                # of A plus column j of B, charged as a single aggregate
                # by the vectorized read_many once both operands are
                # resident; the n multiply-accumulates are one aggregated
                # compute and one numpy dot.
                b_addr = arr_b.addr(j)
                vals = yield from env.read_many(
                    a_addrs + tuple(b_addr + k * b_stride for k in range(n))
                )
                yield from env.compute(n * params.compute_per_mac)
                acc = float(np.dot(vals[:n], vals[n:]))
                yield from env.write(arr_c.addr(i * row_stride + j), acc)

    if params.iterations == 1:
        # Classic one-shot kernel: unchanged spawn_all program (the
        # delegation through one_pass is invisible to the driver).
        def worker(env):
            yield from one_pass(env)
            yield from env.barrier()

        rt.spawn_all(worker)
        return arr_c

    # Iterative variant: each multiply pass is one phase, with no
    # barrier between passes — workers write only their own C rows and
    # read only A/B, so quiescence at the phase boundary is the only
    # ordering the program needs.  Pass 1 faults everything in, pass 2
    # proves the fixed point (identical values into resident pages,
    # identical per-thread durations when the rows divide evenly) and
    # records, every later pass replays.  The barrier-only epilogue gets
    # a distinct key: its generator differs, so its digest must never
    # collide with a pass record.
    def factory(env, phase):
        if phase < params.iterations:
            return one_pass(env)

        def fin(env):
            yield from env.barrier()

        return fin(env)

    rt.spawn_phases(
        factory,
        params.iterations + 1,
        keys=["pass"] * params.iterations + ["fin"],
    )
    return arr_c


def run(
    config: MachineConfig,
    params: MatmulParams | None = None,
    costs: CostModel | None = None,
    replay: bool | None = None,
) -> AppRun:
    params = params if params is not None else MatmulParams()
    rt = make_runtime(config, costs, replay=replay)
    arr_c = build(rt, params)
    result = rt.run()
    n = params.n
    wpp = config.words_per_page
    row_stride = ((n + wpp - 1) // wpp) * wpp
    reference = golden(params)
    snap = arr_c.snapshot()
    measured = np.stack([snap[i * row_stride : i * row_stride + n] for i in range(n)])
    max_error = float(np.max(np.abs(measured - reference)))
    rt.close()
    return AppRun(
        name="matmul",
        result=result,
        valid=max_error < 1e-9,
        max_error=max_error,
        aux={"n": params.n, "iterations": params.iterations},
    )
