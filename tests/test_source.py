"""Tests for pipeline instruction sources (execution-driven and
pre-annotated) and the row columns they share."""

import gc
import weakref
from dataclasses import replace

import pytest

from repro.config import baseline_config
from repro.isa.iclass import IClass
from repro.branch.unit import BranchOutcome
from repro.cpu.pipeline import simulate
from repro.cpu.source import (
    CTRL_LIVE,
    ExecutionDrivenSource,
    FetchSlot,
    PreannotatedSource,
    MAX_DEPENDENCY_DISTANCE,
)

#: Tallies every row source carries next to its rows.
_TALLIES = ("branches", "taken_branches", "mispredictions",
            "redirections", "act_l2", "act_dl1", "act_bpred")


class TestExecutionDrivenSource:
    def test_consumes_whole_trace(self, tiny_trace, config):
        source = ExecutionDrivenSource(tiny_trace, config)
        count = 0
        while source.fetch() is not None:
            count += 1
        assert count == len(tiny_trace)

    def test_dependency_distances_match_registers(self, tiny_trace,
                                                  config):
        source = ExecutionDrivenSource(tiny_trace, config)
        # tiny program block 0: load r1; alu r2 <- r1; branch <- r2.
        # Within one block iteration the alu depends on the load one
        # instruction earlier and the branch on the alu one earlier.
        slots = [source.fetch() for _ in range(3)]
        assert slots[1].dep_distances == (1,)
        assert slots[2].dep_distances == (1,)

    def test_first_reads_have_no_producers(self, tiny_trace, config):
        source = ExecutionDrivenSource(tiny_trace, config)
        first = source.fetch()  # load: src r4 never written
        assert first.dep_distances == ()

    def test_distance_capped(self, small_trace, config):
        source = ExecutionDrivenSource(small_trace, config)
        while True:
            slot = source.fetch()
            if slot is None:
                break
            for distance in slot.dep_distances:
                assert 0 < distance <= MAX_DEPENDENCY_DISTANCE

    def test_branches_classified(self, tiny_trace, config):
        source = ExecutionDrivenSource(tiny_trace, config)
        outcomes = []
        while True:
            slot = source.fetch()
            if slot is None:
                break
            if slot.is_branch:
                outcomes.append(slot.outcome)
            else:
                assert slot.outcome is None
        assert outcomes
        assert all(isinstance(o, BranchOutcome) for o in outcomes)

    def test_perfect_branch_prediction(self, tiny_trace, config):
        source = ExecutionDrivenSource(tiny_trace, config,
                                       perfect_branch_prediction=True)
        while True:
            slot = source.fetch()
            if slot is None:
                break
            if slot.is_branch:
                assert slot.outcome is BranchOutcome.CORRECT

    def test_perfect_caches_no_stalls(self, tiny_trace, config):
        source = ExecutionDrivenSource(tiny_trace, config,
                                       perfect_caches=True)
        while True:
            slot = source.fetch()
            if slot is None:
                break
            assert slot.fetch_stall == 0
            assert not slot.il1_miss and not slot.dl1_miss
            if slot.is_load:
                assert slot.exec_latency == config.dl1.hit_latency

    def test_load_latency_follows_hierarchy(self, tiny_trace, config):
        source = ExecutionDrivenSource(tiny_trace, config)
        latencies = set()
        while True:
            slot = source.fetch()
            if slot is None:
                break
            if slot.is_load:
                latencies.add(slot.exec_latency)
        valid = {config.dl1.hit_latency, config.l2.hit_latency,
                 config.memory_latency}
        extended = valid | {v + config.dtlb.miss_latency for v in valid}
        assert latencies <= extended

    def test_filler_slots_inert(self, tiny_trace, config):
        source = ExecutionDrivenSource(tiny_trace, config)
        filler = source.peek_filler(0)
        assert filler.dep_distances == ()
        assert filler.outcome is None
        assert filler.fetch_stall == 0

    def test_peek_does_not_consume(self, tiny_trace, config):
        source = ExecutionDrivenSource(tiny_trace, config)
        source.peek_filler(0)
        source.peek_filler(5)
        slot = source.fetch()
        assert slot.raw.seq == 0


class TestPreannotatedSource:
    def _slots(self, n=5):
        return [FetchSlot(IClass.INT_ALU, exec_latency=1)
                for _ in range(n)]

    def test_replays_in_order(self):
        slots = self._slots()
        source = PreannotatedSource(slots)
        assert [source.fetch() for _ in range(5)] == slots
        assert source.fetch() is None

    def test_len(self):
        assert len(PreannotatedSource(self._slots(3))) == 3

    def test_peek_filler_wraps(self):
        source = PreannotatedSource(self._slots(2))
        filler = source.peek_filler(7)
        assert filler.iclass is IClass.INT_ALU

    def test_on_dispatch_noop(self):
        source = PreannotatedSource(self._slots(1))
        source.on_dispatch(source.fetch())  # must not raise


class TestOneRowBuilder:
    """The execution-driven source resolves its window into the same
    row columns the slot replay builds from its materialized slots."""

    @pytest.mark.parametrize("anti", [False, True])
    def test_rows_match_replayed_slots(self, small_trace, config, anti):
        config = replace(config, enforce_anti_dependencies=anti)
        rows = ExecutionDrivenSource(
            small_trace, config, perfect_branch_prediction=True)
        drained = ExecutionDrivenSource(
            small_trace, config, perfect_branch_prediction=True)
        slots = []
        while (slot := drained.fetch()) is not None:
            slots.append(slot)
        replay = PreannotatedSource(slots)
        assert rows.rows == replay.rows
        assert rows.ic == replay.ic
        for tally in _TALLIES:
            assert getattr(rows, tally) == getattr(replay, tally), tally

    def test_live_rows_are_the_branches(self, small_trace, config):
        source = ExecutionDrivenSource(small_trace, config)
        live = [i for i, row in enumerate(source.rows)
                if row[6] & CTRL_LIVE]
        assert live == [i for i, inst in enumerate(small_trace)
                        if inst.is_branch]
        # Outcomes are counted when the fetch stage classifies them,
        # and every classified branch is trained at dispatch.
        assert source.mispredictions == source.redirections == 0
        result = simulate(config, source)
        assert source.mispredictions == result.branch_mispredictions > 0
        assert source.predictor.updates == len(live)
        assert not source._untrained

    def test_rows_freed_with_source(self, small_trace, config):
        """Nothing keeps a source's rows alive once it is dropped: no
        reference cycle waits for the garbage collector."""
        gc.disable()
        try:
            source = ExecutionDrivenSource(small_trace, config)
            simulate(config, source)
            ref = weakref.ref(source)
            del source
            assert ref() is None
        finally:
            gc.enable()
