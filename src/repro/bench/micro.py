"""Micro-measurements of primitive MGS operations (Table 3).

The paper measures these on a 20 MHz Alewife with 1 KB pages and a
0-cycle inter-SSMP delay; we reproduce the same directed scenarios on the
simulator and report simulated cycles:

* **TLB Fill** — the page is already resident in the faulting SSMP;
  another processor copies the mapping.
* **Inter-SSMP Read Miss** — no local copy; ``RREQ``/``RDAT`` round trip
  including home-page cleaning and DMA.
* **Inter-SSMP Write Miss** — same, plus write bookkeeping and twinning.
* **Release (1 writer)** — single-writer optimization path: ``REL`` ->
  ``1WINV`` -> clean + TLB shootdown -> ``1WDATA`` -> merge -> ``RACK``.
* **Release (2 writers)** — two SSMPs hold fully dirty write copies;
  ``REL`` -> two ``INV`` -> diffs -> serialized merges -> ``RACK``.

The hardware-miss and translation groups of Table 3 are cost-model
inputs, reported straight from :class:`~repro.params.CostModel` (the
hardware classification itself is tested in ``tests/test_hw.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.params import CostModel, MachineConfig
from repro.runtime import Runtime

__all__ = ["MicroCosts", "measure_micro_costs", "PAPER_TABLE3"]

#: Table 3 of the paper (cycles at 20 MHz, 1 KB pages, 0-cycle delay).
PAPER_TABLE3 = {
    "cache_miss_local": 11,
    "cache_miss_remote": 38,
    "cache_miss_2party": 42,
    "cache_miss_3party": 63,
    "remote_software": 425,
    "translate_array": 18,
    "translate_pointer": 24,
    "tlb_fill": 1037,
    "read_miss": 6982,
    "write_miss": 16331,
    "release_1writer": 14226,
    "release_2writers": 32570,
}


@dataclass
class MicroCosts:
    """Measured costs of the primitive operations, in simulated cycles."""

    tlb_fill: int
    read_miss: int
    write_miss: int
    release_1writer: int
    release_2writers: int

    def as_dict(self) -> dict[str, int]:
        return {
            "tlb_fill": self.tlb_fill,
            "read_miss": self.read_miss,
            "write_miss": self.write_miss,
            "release_1writer": self.release_1writer,
            "release_2writers": self.release_2writers,
        }


def _drain(rt: Runtime) -> None:
    rt.sim.run(max_events=100_000)


def _fault(rt: Runtime, pid: int, vpn: int, write: bool) -> int:
    """Issue a fault and return its latency."""
    start = rt.sim.now
    finished: dict[str, int] = {}
    rt.protocol.fault(pid, vpn, write, lambda: finished.setdefault("t", rt.sim.now))
    _drain(rt)
    return finished["t"] - start


def _release(rt: Runtime, pid: int) -> int:
    start = rt.sim.now
    finished: dict[str, int] = {}
    rt.protocol.release(pid, lambda: finished.setdefault("t", rt.sim.now))
    _drain(rt)
    return finished["t"] - start


def _warm_home_lines(rt: Runtime, vpn: int) -> None:
    """Make the home SSMP's caches hold every line of the page, so the
    grant path pays a realistic page-cleaning cost."""
    home_pid = rt.aspace.home_proc(vpn)
    home_cluster = rt.config.cluster_of(home_pid)
    first = vpn * rt.config.lines_per_page
    for line in range(first, first + rt.config.lines_per_page):
        rt.cache.access(home_cluster, home_pid, line, True, home_pid)


def _dirty_whole_page(rt: Runtime, cluster: int, vpn: int) -> None:
    """Flip every word of a write copy so the release diff is full-page,
    matching the paper's micro-benchmark conditions."""
    frame = rt.protocol.frame(cluster, vpn)
    assert frame is not None and frame.data is not None
    frame.data += 1.0


def measure_micro_costs(
    costs: CostModel | None = None, inter_ssmp_delay: int = 0
) -> MicroCosts:
    """Run every software-shared-memory micro-benchmark of Table 3."""
    costs = costs if costs is not None else CostModel()

    # Three clusters of two processors: home cluster 0, clients 1 and 2.
    config = MachineConfig(
        total_processors=6, cluster_size=2, inter_ssmp_delay=inter_ssmp_delay
    )

    # --- TLB fill: page already resident in the faulting SSMP ----------
    rt = Runtime(config, costs)
    arr = rt.array("page", config.words_per_page, home=0)
    vpn = arr.base // config.page_size
    _warm_home_lines(rt, vpn)
    _fault(rt, 2, vpn, False)  # proc 2 (cluster 1) replicates the page
    tlb_fill = _fault(rt, 3, vpn, False)  # proc 3 finds it locally
    rt.close()

    # --- inter-SSMP read miss ------------------------------------------
    rt = Runtime(config, costs)
    arr = rt.array("page", config.words_per_page, home=0)
    vpn = arr.base // config.page_size
    _warm_home_lines(rt, vpn)
    read_miss = _fault(rt, 2, vpn, False)
    rt.close()

    # --- inter-SSMP write miss -----------------------------------------
    rt = Runtime(config, costs)
    arr = rt.array("page", config.words_per_page, home=0)
    vpn = arr.base // config.page_size
    _warm_home_lines(rt, vpn)
    write_miss = _fault(rt, 2, vpn, True)
    rt.close()

    # --- release, single writer ----------------------------------------
    rt = Runtime(config, costs)
    arr = rt.array("page", config.words_per_page, home=0)
    vpn = arr.base // config.page_size
    _warm_home_lines(rt, vpn)
    _fault(rt, 2, vpn, True)
    _dirty_whole_page(rt, 1, vpn)
    release_1writer = _release(rt, 2)
    rt.close()

    # --- release, two writers ------------------------------------------
    rt = Runtime(config, costs)
    arr = rt.array("page", config.words_per_page, home=0)
    vpn = arr.base // config.page_size
    _warm_home_lines(rt, vpn)
    _fault(rt, 2, vpn, True)  # cluster 1
    _fault(rt, 4, vpn, True)  # cluster 2
    _dirty_whole_page(rt, 1, vpn)
    _dirty_whole_page(rt, 2, vpn)
    release_2writers = _release(rt, 2)
    rt.close()

    return MicroCosts(
        tlb_fill=tlb_fill,
        read_miss=read_miss,
        write_miss=write_miss,
        release_1writer=release_1writer,
        release_2writers=release_2writers,
    )
