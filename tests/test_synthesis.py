"""Tests for synthetic trace generation (the nine-step algorithm)."""

import pytest

from repro.isa.iclass import BRANCH_CLASSES, IClass
from repro.branch.unit import BranchOutcome
from repro.core.profiler import profile_trace
from repro.core.reduction import reduce_flow_graph
from repro.core.synthesis import generate_synthetic_trace
from repro.core.synthetic import dependency_targets


def synthesize(*args, **kwargs):
    """The generator's columns, materialized per instruction."""
    return generate_synthetic_trace(*args, **kwargs).to_synthetic_trace()


@pytest.fixture
def tiny_profile(tiny_trace, config):
    return profile_trace(tiny_trace, config, order=1)


@pytest.fixture
def small_profile(small_trace, config):
    return profile_trace(small_trace, config, order=1)


class TestWalk:
    def test_emits_budgeted_blocks(self, tiny_profile):
        reduced = reduce_flow_graph(tiny_profile.sfg, 4)
        synthetic = synthesize(tiny_profile, 4, seed=0)
        branches = sum(1 for inst in synthetic if inst.is_branch)
        assert branches == reduced.total_blocks

    def test_deterministic_per_seed(self, small_profile):
        a = synthesize(small_profile, 4, seed=7)
        b = synthesize(small_profile, 4, seed=7)
        assert len(a) == len(b)
        assert [i.iclass for i in a] == [i.iclass for i in b]
        assert [i.dep_distances for i in a] == \
            [i.dep_distances for i in b]

    def test_seeds_differ(self, small_profile):
        a = synthesize(small_profile, 4, seed=1)
        b = synthesize(small_profile, 4, seed=2)
        assert [i.iclass for i in a] != [i.iclass for i in b]

    def test_order_zero_walk(self, small_trace, config):
        profile = profile_trace(small_trace, config, order=0)
        synthetic = synthesize(profile, 4, seed=0)
        reduced = reduce_flow_graph(profile.sfg, 4)
        branches = sum(1 for inst in synthetic if inst.is_branch)
        assert branches == reduced.total_blocks

    def test_block_mix_preserved(self, small_profile, small_trace):
        synthetic = synthesize(small_profile, 2, seed=0)
        real_mix = small_trace.instruction_mix()
        loads = sum(inst.is_load for inst in synthetic) / len(synthetic)
        assert abs(loads - real_mix.get(IClass.LOAD, 0.0)) < 0.08

    def test_max_instructions_cap(self, small_profile):
        synthetic = synthesize(small_profile, 1, seed=0,
                               max_instructions=100)
        assert len(synthetic) <= 100 + 30  # cap checked per block

    def test_reduced_graph_ownership_checked(self, small_profile,
                                             tiny_profile):
        foreign = reduce_flow_graph(tiny_profile.sfg, 2)
        with pytest.raises(ValueError):
            synthesize(small_profile, 2, reduced=foreign)


class TestDependencies:
    def test_no_dependency_on_branch_or_store(self, small_profile):
        # Paper section 2.2 step 4: rejected and redrawn, squashed
        # after 1000 tries.
        synthetic = synthesize(small_profile, 2, seed=3)
        instructions = synthetic.instructions
        for index, inst in enumerate(instructions):
            for target in dependency_targets(instructions, index):
                assert instructions[target].produces_register

    def test_distances_positive(self, small_profile):
        synthetic = synthesize(small_profile, 2, seed=3)
        for inst in synthetic:
            for distance in inst.dep_distances:
                assert distance > 0


class TestAnnotations:
    def test_flags_only_on_loads(self, small_profile):
        synthetic = synthesize(small_profile, 2, seed=1)
        for inst in synthetic:
            if not inst.is_load:
                assert not inst.dl1_miss
                assert not inst.l2d_miss
                assert not inst.dtlb_miss

    def test_l2_miss_requires_l1_miss(self, small_profile):
        synthetic = synthesize(small_profile, 2, seed=1)
        for inst in synthetic:
            if inst.l2d_miss:
                assert inst.dl1_miss
            if inst.l2i_miss:
                assert inst.il1_miss

    def test_outcomes_only_on_branches(self, small_profile):
        synthetic = synthesize(small_profile, 2, seed=1)
        for inst in synthetic:
            if inst.is_branch:
                assert inst.outcome in BranchOutcome
            else:
                assert inst.outcome is None
                assert not inst.taken

    def test_misprediction_rate_preserved(self, small_trace, config):
        profile = profile_trace(small_trace, config, order=1)
        synthetic = synthesize(profile, 2, seed=0)
        # Real rate from the profile's own annotations.
        mispredicts = sum(s.outcome_counts[BranchOutcome.MISPREDICTION]
                          for s in profile.sfg.contexts.values())
        total = sum(s.occurrences for s in profile.sfg.contexts.values())
        real_rate = mispredicts / total
        branches = [i for i in synthetic if i.is_branch]
        syn_rate = sum(i.outcome is BranchOutcome.MISPREDICTION
                       for i in branches) / len(branches)
        assert abs(syn_rate - real_rate) < 0.05

    def test_perfect_profile_gives_clean_trace(self, small_trace,
                                               config):
        profile = profile_trace(small_trace, config, order=1,
                                branch_mode="perfect",
                                perfect_caches=True)
        synthetic = synthesize(profile, 2, seed=0)
        for inst in synthetic:
            assert not inst.il1_miss and not inst.dl1_miss
            if inst.is_branch:
                assert inst.outcome is BranchOutcome.CORRECT

    def test_taken_rate_preserved(self, small_trace, config):
        profile = profile_trace(small_trace, config, order=1)
        synthetic = synthesize(profile, 2, seed=0)
        taken_real = sum(s.taken for s in profile.sfg.contexts.values())
        total = sum(s.occurrences for s in profile.sfg.contexts.values())
        branches = [i for i in synthetic if i.is_branch]
        taken_syn = sum(i.taken for i in branches) / len(branches)
        assert abs(taken_syn - taken_real / total) < 0.07
