"""Table 2 completeness: every protocol message type exists, has exactly
one registered handler, and flows on the wire under a mixed workload."""

import dataclasses

import pytest

from repro.core import messages as core_messages
from repro.core.messages import TABLE2_CLASSES, MsgType, ProtocolMessage
from repro.protocols.gcs import messages as gcs_messages
from repro.protocols.sc_pages import messages as sc_messages
from repro.protocols.swdsm import messages as swdsm_messages
from repro.params import MachineConfig
from repro.runtime import Runtime


def test_table2_message_set_is_complete():
    expected = {
        "UPGRADE", "PINV_ACK",  # Local Client -> Remote Client
        "PINV", "UP_ACK",  # Remote Client -> Local Client
        "RREQ", "WREQ", "REL",  # Local Client -> Server
        "RDAT", "WDAT", "RACK",  # Server -> Local Client
        "ACK", "DIFF", "1WDATA", "WNOTIFY",  # Remote Client -> Server
        "INV", "1WINV",  # Server -> Remote Client
    }
    assert {m.value for m in MsgType} == expected


def _engine_message_classes():
    """Every message class of the four engines (Table 2 plus internal)."""
    classes = []
    for module in (core_messages, swdsm_messages, sc_messages, gcs_messages):
        for name in module.__all__:
            obj = getattr(module, name)
            if isinstance(obj, type) and issubclass(obj, ProtocolMessage):
                classes.append(obj)
    return classes


def test_every_type_is_a_frozen_message_class():
    for mtype, cls in TABLE2_CLASSES.items():
        assert issubclass(cls, ProtocolMessage)
        assert cls.label == mtype.value
        msg = cls.__doc__ or ""
        assert msg.strip(), f"{cls.__name__} must document its Table 2 arc"
    classes = _engine_message_classes()
    assert set(TABLE2_CLASSES.values()) <= set(classes)
    for cls in classes:
        msg = cls(vpn=3, src_pid=0, src_cluster=0, dst_pid=5, dst_cluster=2, txn=7)
        for f in dataclasses.fields(msg):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(msg, f.name, getattr(msg, f.name))
        copy = dataclasses.replace(msg, txn=8)
        assert type(copy) is cls and copy is not msg
        fields = [f.name for f in dataclasses.fields(msg)]
        assert {n: getattr(copy, n) for n in fields} == {
            **{n: getattr(msg, n) for n in fields}, "txn": 8
        }, cls.__name__


def test_each_type_has_exactly_one_handler():
    rt = Runtime(MachineConfig(total_processors=4, cluster_size=2))
    bus = rt.protocol.bus
    rt.protocol.bus.check_complete()
    # `register` raises on duplicates, so presence in the dispatch table
    # proves uniqueness; cover all of Table 2 plus nothing dangling.
    assert {m.value for m in MsgType} <= bus.handled_labels()


def test_mixed_workload_exercises_all_sixteen_types():
    """A lock/barrier multi-writer run sends every Table 2 message.

    Three clusters share two pages.  The mix is chosen so that every arc
    fires: remote read and blind-write faults (RREQ/RDAT, WREQ/WDAT),
    read-to-write upgrades (UPGRADE/UP_ACK/WNOTIFY), release rounds with
    dirty and clean replicas (REL/INV/DIFF/ACK/RACK), TLB shootdowns of
    second processors (PINV/PINV_ACK), and a single-writer round
    (1WINV/1WDATA).
    """
    config = MachineConfig(total_processors=6, cluster_size=2,
                           inter_ssmp_delay=500)
    rt = Runtime(config)
    wpp = config.words_per_page
    arr = rt.array("shared", 2 * wpp, home=0)
    arr.init([0.0] * (2 * wpp))
    lk = rt.create_lock()

    def worker(env):
        for it in range(3):
            yield from env.lock(lk)
            v = yield from env.read(arr.addr(0))
            if env.pid == 0:
                # resident read copy upgraded in place
                yield from env.write(arr.addr(0), v + 1.0)
            if env.pid == 2 and it == 0:
                # second writer (multi-writer round with foreign diff)
                yield from env.write(arr.addr(1), v + 2.0)
            if env.pid == 4 and it == 0:
                # blind write to an unreplicated page: WREQ/WDAT
                yield from env.write(arr.addr(wpp), 7.0)
            yield from env.unlock(lk)
            yield from env.barrier()

    rt.spawn_all(worker)
    result = rt.run()

    flows = result.message_flows
    for mtype in MsgType:
        assert flows.get(mtype.value, {"count": 0})["count"] > 0, (
            f"{mtype.value} never delivered"
        )
    # and the bus saw exactly what the machine's label counters saw
    for label, flow in flows.items():
        assert rt.machine.stats.by_label[label] == flow["count"]
