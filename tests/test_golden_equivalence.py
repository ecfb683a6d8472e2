"""Golden cycle-count equivalence for the Figure 6 Jacobi curve.

The typed message bus must be a pure refactor of the hand-wired callback
sends: one simulator event per message, identical labels, identical wire
sizes.  These totals were captured from the pre-bus protocol engines on
the default cost model (8 processors, 32x32 Jacobi, 3 iterations,
1000-cycle inter-SSMP delay) for all three external interconnect models.
Any drift — an extra event, a changed size, a reordered send — shifts
them and fails this test.

The same goldens also pin the fast-path access engine: the default run
uses the fast paths, so the totals above must hold with them on, and
``test_fastpath_and_slow_path_full_state_identical`` compares every
observable — clocks, stats, message flows, final memory — between the
fast and slow engines.
"""

import pytest

from repro.apps import jacobi, tsp
from repro.apps.jacobi import JacobiParams
from repro.params import MachineConfig, NetworkConfig

#: network -> cluster size -> (total_time, inter_ssmp, intra_ssmp msgs)
#: (re-captured when the Jacobi kernel moved to the batched row APIs:
#: whole-row read_block/write_block and one aggregated compute per row —
#: message counts were unchanged, simulated totals shifted slightly)
GOLDEN = {
    "fixed": {
        1: (621723, 182, 286),
        2: (593898, 78, 286),
        4: (591843, 26, 286),
        8: (512474, 0, 0),
    },
    "bus": {
        1: (627161, 182, 286),
        2: (603497, 78, 286),
        4: (596738, 26, 286),
        8: (512474, 0, 0),
    },
    "fabric": {
        1: (623643, 182, 286),
        2: (594938, 78, 286),
        4: (592867, 26, 286),
        8: (512474, 0, 0),
    },
}


@pytest.mark.parametrize("network", sorted(GOLDEN))
def test_jacobi_figure6_curve_is_bit_for_bit(network):
    for cluster_size, expected in GOLDEN[network].items():
        config = MachineConfig(
            total_processors=8,
            cluster_size=cluster_size,
            network=NetworkConfig(external=network),
        )
        run = jacobi.run(config, JacobiParams(n=32, iterations=3))
        run.require_valid()
        measured = (
            run.result.total_time,
            run.result.messages_inter_ssmp,
            run.result.messages_intra_ssmp,
        )
        assert measured == expected, (
            f"{network} C={cluster_size}: {measured} != golden {expected}"
        )


def _full_state(fastpath: bool):
    config = MachineConfig(total_processors=8, cluster_size=2)
    rt = jacobi.make_runtime(config, fastpath=fastpath)
    final = jacobi.build(rt, JacobiParams(n=32, iterations=3))
    result = rt.run()
    return {
        "total_time": result.total_time,
        "threads": [
            (t.time, t.user, t.lock, t.barrier, t.mgs, t.finish_time)
            for t in result.threads
        ],
        "cache": dict(result.cache_stats),
        "protocol": dict(result.protocol_stats),
        "messages": (result.messages_inter_ssmp, result.messages_intra_ssmp),
        "flows": result.message_flows,
        "events": rt.sim.events_processed,
        "grid": final.snapshot().tolist(),
    }


def test_fastpath_and_slow_path_full_state_identical():
    fast = _full_state(True)
    slow = _full_state(False)
    for key in fast:
        assert fast[key] == slow[key], f"fastpath changed {key}"


# ---------------------------------------------------------------------------
# both sides of the machine's route split
# ---------------------------------------------------------------------------
#
# ``Machine`` tabulates the latency of a stateless link once and sends on
# it with one addition; only links that keep state (contended external
# models, fault injection, the reliable transport) go through
# ``Interconnect.transit``.  The rows below were captured before the
# route tables existed and pin each side of that split: a mesh internal
# network (stateless, endpoint-dependent latency), a lossy external
# network under the reliable transport (stateful), and a small TSP point
# (lock- and message-bound).  The contended bus/fabric side is pinned by
# ``GOLDEN`` above.  Each row is (total_time, inter_ssmp, intra_ssmp,
# network_summary()).


def _net(internal="wire", reliable=False, **counts):
    """A ``network_summary()`` with every counter not named left at zero."""
    summary = {
        "external_model": "fixed",
        "internal_model": internal,
        "reliable_transport": reliable,
        "queue_cycles": 0,
        "queue_cycles_by_link": {},
        "retransmits_by_link": {},
    }
    for name in (
        "inter_ssmp", "intra_ssmp", "inter_ssmp_bytes", "wire_messages",
        "drops", "dups_injected", "delays_injected", "retransmits",
        "acks_sent", "dups_suppressed",
    ):
        summary[name] = 0
    summary.update(counts)
    return summary


#: Jacobi Figure 6 curve (as ``GOLDEN``) with ``NetworkConfig(internal="mesh")``
MESH_GOLDEN = {
    1: (621723, 182, 286, _net("mesh", inter_ssmp=182, intra_ssmp=286,
                               inter_ssmp_bytes=54656, wire_messages=182)),
    2: (593898, 78, 286, _net("mesh", inter_ssmp=78, intra_ssmp=286,
                              inter_ssmp_bytes=23424, wire_messages=78)),
    4: (591845, 26, 286, _net("mesh", inter_ssmp=26, intra_ssmp=286,
                              inter_ssmp_bytes=7808, wire_messages=26)),
    8: (512474, 0, 0, _net("mesh")),
}

#: Jacobi at C=2 on a lossy external network (the transport turns on)
LOSSY = NetworkConfig(drop_rate=0.10, dup_rate=0.02, delay_rate=0.02,
                      fault_seed=12345)
LOSSY_GOLDEN = (
    605511, 78, 286,
    _net(
        reliable=True, inter_ssmp=78, intra_ssmp=286, inter_ssmp_bytes=23424,
        wire_messages=172, drops=21, dups_injected=2, delays_injected=4,
        retransmits=23, retransmits_by_link={"lan": 23}, acks_sent=90,
        dups_suppressed=12,
        faults_by_link={
            "lan": {"transmissions": 191, "drops": 21, "dups": 2, "delays": 4}
        },
    ),
)

#: a small TSP point: 7 cities, 8 processors, C=2
TSP_GOLDEN = (
    49781323, 13433, 11869,
    _net(inter_ssmp=13433, intra_ssmp=11869, inter_ssmp_bytes=3209048,
         wire_messages=13433),
)


def _route_row(run):
    run.require_valid()
    r = run.result
    return (r.total_time, r.messages_inter_ssmp, r.messages_intra_ssmp,
            r.network_stats)


@pytest.mark.parametrize("cluster_size", sorted(MESH_GOLDEN))
def test_mesh_internal_network_is_bit_for_bit(cluster_size):
    config = MachineConfig(
        total_processors=8,
        cluster_size=cluster_size,
        network=NetworkConfig(internal="mesh"),
    )
    run = jacobi.run(config, JacobiParams(n=32, iterations=3))
    assert _route_row(run) == MESH_GOLDEN[cluster_size]


def test_lossy_reliable_transport_is_bit_for_bit():
    config = MachineConfig(total_processors=8, cluster_size=2, network=LOSSY)
    run = jacobi.run(config, JacobiParams(n=32, iterations=3))
    assert _route_row(run) == LOSSY_GOLDEN


def test_small_tsp_point_is_bit_for_bit():
    config = MachineConfig(total_processors=8, cluster_size=2)
    run = tsp.run(config, tsp.TSPParams(ncities=7))
    assert _route_row(run) == TSP_GOLDEN
