"""Property-based tests for the hardware coherence directory."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw import CacheSystem
from repro.params import CostModel, MachineConfig

COSTS = CostModel()


@st.composite
def access_traces(draw):
    nprocs = draw(st.sampled_from([2, 4, 8]))
    ops = draw(
        st.lists(
            st.tuples(
                st.integers(0, nprocs - 1),  # pid
                st.integers(0, 5),  # line
                st.booleans(),  # is_write
                st.integers(0, nprocs - 1),  # home pid
            ),
            min_size=1,
            max_size=60,
        )
    )
    return nprocs, ops


@settings(max_examples=200, deadline=None)
@given(trace=access_traces())
def test_directory_invariants(trace):
    """After every access: a dirty line has no sharers; costs are always
    one of the Table 3 classes; a repeated access by the same processor
    is always a hit."""
    nprocs, ops = trace
    config = MachineConfig(total_processors=nprocs, cluster_size=nprocs)
    cache = CacheSystem(config, COSTS)
    valid_costs = {
        COSTS.cache_hit,
        COSTS.miss_local,
        COSTS.miss_remote,
        COSTS.miss_2party,
        COSTS.miss_3party,
        COSTS.miss_software_dir,
    }
    for pid, line, is_write, home in ops:
        cost = cache.access(0, pid, line, is_write, home)
        assert cost in valid_costs
        owner, sharers = cache.decode(cache.line_state(0, line))
        if owner != -1:
            assert not sharers, "dirty line must have no sharers"
        # Immediate re-access hits.
        assert cache.access(0, pid, line, is_write, home) == COSTS.cache_hit


@settings(max_examples=100, deadline=None)
@given(
    readers=st.lists(st.integers(0, 7), min_size=1, max_size=12),
    home=st.integers(0, 7),
)
def test_read_sharing_accumulates_sharers(readers, home):
    config = MachineConfig(total_processors=8, cluster_size=8)
    cache = CacheSystem(config, COSTS)
    for pid in readers:
        cache.access(0, pid, 0, False, home)
    owner, sharers = cache.decode(cache.line_state(0, 0))
    assert owner == -1
    assert sharers == set(readers)


@settings(max_examples=100, deadline=None)
@given(ops=st.lists(st.tuples(st.integers(0, 3), st.booleans()), max_size=30))
def test_flush_resets_everything(ops):
    config = MachineConfig(total_processors=4, cluster_size=4)
    cache = CacheSystem(config, COSTS)
    for pid, is_write in ops:
        cache.access(0, pid, 7, is_write, 0)
    cache.flush_page(0, 0, 64)
    assert cache.lines_cached(0) == 0
