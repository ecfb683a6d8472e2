"""Word-loop references for ``Env``'s batched memory operations.

``read_block``, ``write_block``, ``read_many`` and ``write_many`` must
simulate exactly what the equivalent loop of one-word accesses does:
same clocks, same statistics, same faults, same pauses, same data.
:func:`word_loops` swaps their implementations for such loops, built
on ``Env._read``/``Env._write`` (the one-word path), so a test can run
one program both ways and compare every observable.
"""

from contextlib import contextmanager

import pytest

from repro.params import WORD_BYTES
from repro.runtime.env import Env


def _read_many(self, addrs, ptr=False):
    out = []
    for addr in addrs:
        value = yield from self._read(addr, ptr)
        out.append(value)
    return out


def _write_many(self, addrs, values, ptr=False):
    for addr, value in zip(addrs, values):
        yield from self._write(addr, value, ptr)


def _read_block(self, addr, nwords, ptr=False):
    return (
        yield from _read_many(
            self, range(addr, addr + nwords * WORD_BYTES, WORD_BYTES), ptr
        )
    )


def _write_block(self, addr, values, ptr=False):
    for i, value in enumerate(values):
        yield from self._write(addr + i * WORD_BYTES, value, ptr)


_LOOPS = {
    "_read_many": _read_many,
    "_write_many": _write_many,
    "_read_block": _read_block,
    "_write_block": _write_block,
}


@contextmanager
def word_loops(enabled=True):
    """Bind every ``Env`` built inside the block to the word loops.

    ``Env.__init__`` binds each operation from the class, so patching
    the class covers every ``Env`` constructed while the block is open
    — ``Runtime.spawn`` builds them, so spawn inside the block.  With
    ``enabled=False`` the block changes nothing, so one test body can
    run both sides.
    """
    with pytest.MonkeyPatch.context() as mp:
        if enabled:
            for name, loop in _LOOPS.items():
                mp.setattr(Env, name, loop)
        yield
