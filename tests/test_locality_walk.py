"""The fused locality walk against the per-access hierarchy API.

``CacheHierarchy.walk`` inlines the I-fetch and data access of every
instruction with MRU and same-line/same-page fast paths; it must leave
exactly the state, counters and events the ``access_instruction`` /
``access_data`` loop does, on any geometry and any address stream.
"""

from collections import namedtuple
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.cache.hierarchy import (
    EVENT_L1,
    EVENT_L2,
    EVENT_TLB,
    CacheHierarchy,
    DataAccessResult,
    InstructionAccessResult,
    LocalityWalk,
    cache_geometry,
    event_latency_tables,
)
from repro.config import CacheConfig, TLBConfig, baseline_config
from repro.core.framework import run_execution_driven
from repro.core.profiler import profile_trace
from repro.core.serialization import profile_to_dict
from repro.experiments import fig6_absolute
from repro.experiments.common import ExperimentScale, prepare_benchmark
from repro.frontend.warming import walk_window

Access = namedtuple("Access", "pc mem_addr")


def per_access_walk(hierarchy, instructions):
    """The walk spelled out through the single-access API."""
    icodes = bytearray(len(instructions))
    dcodes = bytearray(len(instructions))
    for index, inst in enumerate(instructions):
        fetch = hierarchy.access_instruction(inst.pc)
        icodes[index] = (EVENT_L1 * fetch.il1_miss
                         | EVENT_L2 * fetch.l2_miss
                         | EVENT_TLB * fetch.itlb_miss)
        if inst.mem_addr is not None:
            data = hierarchy.access_data(inst.mem_addr)
            dcodes[index] = (EVENT_L1 * data.dl1_miss
                             | EVENT_L2 * data.l2_miss
                             | EVENT_TLB * data.dtlb_miss)
    return bytes(icodes), bytes(dcodes)


def snapshot(hierarchy):
    """Everything observable about a hierarchy's state and counters."""
    caches = (hierarchy.il1, hierarchy.dl1, hierarchy.l2)
    tlbs = (hierarchy.itlb, hierarchy.dtlb)
    return {
        "contents": [cache.contents() for cache in caches],
        "tlb_sets": [[list(ways) for ways in tlb._sets] for tlb in tlbs],
        "counters": [(s.accesses, s.misses) for s in caches + tlbs],
        "l2_split": (hierarchy.l2_instruction_accesses,
                     hierarchy.l2_instruction_misses,
                     hierarchy.l2_data_accesses,
                     hierarchy.l2_data_misses),
        "miss_rates": hierarchy.miss_rates(),
    }


def _cache(name, sets, ways, line):
    return CacheConfig(name, sets * ways * line, ways, line, 1)


@st.composite
def cache_configs(draw, name):
    """Direct-mapped, set-associative and fully associative caches."""
    line = draw(st.sampled_from((4, 8, 16)))
    kind = draw(st.sampled_from(("direct", "set", "full")))
    if kind == "direct":
        return _cache(name, draw(st.sampled_from((1, 2, 4))), 1, line)
    if kind == "full":
        return _cache(name, 1, draw(st.integers(1, 4)), line)
    return _cache(name, draw(st.sampled_from((2, 4))),
                  draw(st.integers(2, 3)), line)


@st.composite
def tlb_configs(draw, name):
    """TLBs with tiny pages, including single-set ones."""
    ways = draw(st.integers(1, 3))
    sets = draw(st.sampled_from((1, 1, 2)))
    return TLBConfig(name, sets * ways, ways,
                     page_bytes=draw(st.sampled_from((16, 32, 64))))


@st.composite
def machines(draw):
    return replace(
        baseline_config(),
        il1=draw(cache_configs("il1")), dl1=draw(cache_configs("dl1")),
        l2=draw(cache_configs("ul2")),
        itlb=draw(tlb_configs("itlb")), dtlb=draw(tlb_configs("dtlb")))


# I and D addresses share one small range so lines alias in the L2;
# runs of nearby PCs exercise the same-line/same-page fast paths.
addresses = st.integers(0, 255)
streams = st.lists(
    st.builds(Access, pc=addresses,
              mem_addr=st.one_of(st.none(), addresses)),
    max_size=80)


class TestWalkMatchesPerAccessLoop:
    @settings(max_examples=300, deadline=None)
    @given(config=machines(), first=streams, second=streams)
    def test_events_state_and_counters(self, config, first, second):
        walked = CacheHierarchy(config)
        stepped = CacheHierarchy(config)
        for window in (first, second):  # the second walk starts warm
            assert walked.walk(window) == per_access_walk(stepped,
                                                          window)
            assert snapshot(walked) == snapshot(stepped)

    @settings(max_examples=100, deadline=None)
    @given(config=machines(), first=streams, between=streams,
           second=streams)
    def test_interleaved_single_accesses(self, config, first, between,
                                         second):
        """Single accesses between two walks move the MRU ways; the
        second walk's fast paths must not trust the first's last line."""
        walked = CacheHierarchy(config)
        stepped = CacheHierarchy(config)
        walked.walk(first)
        per_access_walk(stepped, first)
        per_access_walk(walked, between)
        per_access_walk(stepped, between)
        assert walked.walk(second) == per_access_walk(stepped, second)
        assert snapshot(walked) == snapshot(stepped)

    def test_aliasing_i_and_d_lines_share_the_l2(self):
        config = replace(baseline_config(),
                         il1=_cache("il1", 1, 1, 16),
                         dl1=_cache("dl1", 1, 1, 16),
                         l2=_cache("ul2", 1, 2, 16))
        # The fetch of 0x0 fills the L2 line the load of 0x4 then hits.
        icodes, dcodes = CacheHierarchy(config).walk(
            [Access(0x0, 0x4), Access(0x100, None)])
        assert icodes[0] == EVENT_L1 | EVENT_L2 | EVENT_TLB
        assert dcodes[0] == EVENT_L1 | EVENT_TLB
        assert dcodes[1] == 0

    def test_empty_window(self):
        hierarchy = CacheHierarchy(baseline_config())
        assert hierarchy.walk([]) == (b"", b"")
        assert hierarchy.il1.accesses == 0


class TestResetStatistics:
    def test_zeroes_counters_keeps_state(self):
        hierarchy = CacheHierarchy(baseline_config())
        hierarchy.walk([Access(0x1000, 0x9000), Access(0x2000, 0x5000)])
        contents = hierarchy.dl1.contents()
        hierarchy.reset_statistics()
        assert all(value == 0.0 for value in
                   hierarchy.miss_rates().values())
        assert hierarchy.l2.accesses == hierarchy.l2_data_misses == 0
        assert hierarchy.dl1.contents() == contents


class TestLatencyTables:
    def test_tables_follow_the_hierarchy_rules(self):
        config = baseline_config()
        hierarchy = CacheHierarchy(config)
        stall, latency = event_latency_tables(config)
        for code in range(8):
            flags = (bool(code & EVENT_L1), bool(code & EVENT_L2),
                     bool(code & EVENT_TLB))
            assert stall[code] == hierarchy.fetch_stall(
                InstructionAccessResult(*flags))
            assert latency[code] == hierarchy.load_latency(
                DataAccessResult(*flags))


class TestLocalityWalkCheck:
    def test_accepts_matching_window(self):
        config = baseline_config()
        LocalityWalk(b"\0\0", b"\0\0", cache_geometry(config)).check(
            2, config)

    def test_rejects_length_mismatch(self):
        config = baseline_config()
        walk = LocalityWalk(b"\0", b"\0", cache_geometry(config))
        with pytest.raises(ValueError, match="covers 1"):
            walk.check(2, config)

    def test_rejects_other_geometry(self):
        config = baseline_config()
        walk = LocalityWalk(b"", b"", cache_geometry(config))
        with pytest.raises(ValueError, match="geometry"):
            walk.check(0, config.with_cache_scale(2.0))
        # A core-only change keeps the geometry.
        walk.check(0, config.with_width(2))


class TestSharedWalk:
    """A window walked once and handed to both consumers gives the
    numbers each consumer gets by walking the window itself."""

    SCALE = ExperimentScale(warmup=1_000, reference=2_000,
                            reduction_factor=4.0, seeds=(0,),
                            benchmarks=("gzip",))

    @pytest.fixture
    def window(self):
        return prepare_benchmark("gzip", self.SCALE)

    @pytest.fixture
    def registry(self):
        obs.reset_registry()
        yield obs.get_registry()
        obs.reset_registry()

    def test_shared_equals_own_walk(self, window):
        warm, trace = window
        config = baseline_config().with_cache_scale(0.25)
        locality = walk_window(trace, config, warmup_trace=warm)
        assert profile_to_dict(profile_trace(
            trace, config, warmup_trace=warm, locality=locality)) == \
            profile_to_dict(profile_trace(trace, config,
                                          warmup_trace=warm))
        shared, _ = run_execution_driven(trace, config, warmup_trace=warm,
                                         locality=locality)
        own, _ = run_execution_driven(trace, config, warmup_trace=warm)
        assert shared == own

    def test_consumers_reject_another_window(self, window):
        warm, trace = window
        config = baseline_config()
        locality = walk_window(warm, config)
        with pytest.raises(ValueError, match="covers"):
            profile_trace(trace, config, warmup_trace=warm,
                          locality=locality)
        with pytest.raises(ValueError, match="covers"):
            run_execution_driven(trace, config, warmup_trace=warm,
                                 locality=locality)

    def test_fig6_walks_once_and_shares_twice(self, registry):
        fig6_absolute._measure_benchmark("gzip", self.SCALE)
        snapshot = registry.snapshot()
        assert snapshot["phases"]["locality"]["count"] == 1
        assert snapshot["counters"]["locality.shared"] == 2
