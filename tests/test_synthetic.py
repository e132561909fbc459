"""Tests for synthetic instruction/trace containers and slot
conversion."""

import pytest

from repro.config import baseline_config
from repro.isa.iclass import IClass, execution_latency
from repro.branch.unit import BranchOutcome
from repro.core.synthetic import (ColumnarTrace, SyntheticInstruction,
                                  SyntheticTrace)
from repro.cpu.source import ColumnarSource


def _trace(instructions):
    return SyntheticTrace(name="t", instructions=instructions, order=1,
                          reduction_factor=10)


def _resolved(instructions, config):
    """``(exec_latency, fetch_stall)`` per instruction from both
    resolvers: ``to_fetch_slots`` (the reference replay) and
    ColumnarSource's column resolution (the production path)."""
    trace = _trace(instructions)
    slots = trace.to_fetch_slots(config)
    source = ColumnarSource(ColumnarTrace.from_synthetic(trace), config)
    return {
        "to_fetch_slots": [(slot.exec_latency, slot.fetch_stall)
                           for slot in slots],
        "ColumnarSource": [(row[0], row[7]) for row in source.rows],
    }


class TestSyntheticInstruction:
    def test_flags(self):
        inst = SyntheticInstruction(IClass.LOAD, dl1_miss=True)
        assert inst.is_load
        assert inst.produces_register
        assert not inst.is_branch

    def test_store_produces_nothing(self):
        assert not SyntheticInstruction(IClass.STORE).produces_register

    def test_branch_produces_nothing(self):
        inst = SyntheticInstruction(IClass.INT_COND_BRANCH,
                                    outcome=BranchOutcome.CORRECT)
        assert inst.is_branch
        assert not inst.produces_register


class TestToFetchSlots:
    def test_load_latency_mapping(self):
        config = baseline_config()
        cases = [
            (SyntheticInstruction(IClass.LOAD), config.dl1.hit_latency),
            (SyntheticInstruction(IClass.LOAD, dl1_miss=True),
             config.l2.hit_latency),
            (SyntheticInstruction(IClass.LOAD, dl1_miss=True,
                                  l2d_miss=True), config.memory_latency),
            (SyntheticInstruction(IClass.LOAD, dtlb_miss=True),
             config.dl1.hit_latency + config.dtlb.miss_latency),
        ]
        resolutions = _resolved([c[0] for c in cases], config)
        for resolver, resolved in resolutions.items():
            for (latency, _), (_, expected) in zip(resolved, cases):
                assert latency == expected, resolver

    def test_fetch_stall_mapping(self):
        config = baseline_config()
        cases = [
            (SyntheticInstruction(IClass.INT_ALU), 0),
            (SyntheticInstruction(IClass.INT_ALU, il1_miss=True),
             config.l2.hit_latency),
            (SyntheticInstruction(IClass.INT_ALU, il1_miss=True,
                                  l2i_miss=True), config.memory_latency),
            (SyntheticInstruction(IClass.INT_ALU, itlb_miss=True),
             config.itlb.miss_latency),
        ]
        resolutions = _resolved([c[0] for c in cases], config)
        for resolver, resolved in resolutions.items():
            for (_, stall), (_, expected) in zip(resolved, cases):
                assert stall == expected, resolver

    def test_non_load_latency_is_class_latency(self):
        config = baseline_config()
        inst = SyntheticInstruction(IClass.FP_DIV)
        for resolver, resolved in _resolved([inst], config).items():
            assert resolved[0][0] == execution_latency(IClass.FP_DIV), \
                resolver

    def test_branch_annotations_forwarded(self):
        config = baseline_config()
        inst = SyntheticInstruction(IClass.INT_COND_BRANCH, taken=True,
                                    outcome=BranchOutcome.MISPREDICTION)
        slot = _trace([inst]).to_fetch_slots(config)[0]
        assert slot.taken is True
        assert slot.outcome is BranchOutcome.MISPREDICTION

    def test_dep_distances_forwarded(self):
        config = baseline_config()
        inst = SyntheticInstruction(IClass.INT_ALU, dep_distances=(3, 7))
        slot = _trace([inst]).to_fetch_slots(config)[0]
        assert slot.dep_distances == (3, 7)


class TestSummary:
    def test_summary_rates(self):
        instructions = [
            SyntheticInstruction(IClass.LOAD, dl1_miss=True),
            SyntheticInstruction(IClass.LOAD),
            SyntheticInstruction(IClass.INT_ALU),
            SyntheticInstruction(IClass.INT_COND_BRANCH,
                                 outcome=BranchOutcome.MISPREDICTION),
        ]
        summary = _trace(instructions).summary()
        assert summary["instructions"] == 4
        assert summary["load_fraction"] == pytest.approx(0.5)
        assert summary["dl1_miss_rate"] == pytest.approx(0.5)
        assert summary["misprediction_rate"] == pytest.approx(1.0)

    def test_container_protocol(self):
        trace = _trace([SyntheticInstruction(IClass.INT_ALU)])
        assert len(trace) == 1
        assert trace[0].iclass is IClass.INT_ALU
        assert [i.iclass for i in trace] == [IClass.INT_ALU]


class TestColumnarTrace:
    def test_from_synthetic_round_trips(self):
        instructions = [
            SyntheticInstruction(IClass.LOAD, dep_distances=(2, 5),
                                 dl1_miss=True, l2d_miss=True,
                                 dtlb_miss=True),
            SyntheticInstruction(IClass.INT_ALU, il1_miss=True,
                                 l2i_miss=True, itlb_miss=True),
            SyntheticInstruction(IClass.INT_COND_BRANCH, taken=True,
                                 outcome=BranchOutcome.MISPREDICTION),
            SyntheticInstruction(IClass.INDIRECT_BRANCH,
                                 outcome=BranchOutcome.FETCH_REDIRECTION),
        ]
        columns = ColumnarTrace.from_synthetic(_trace(instructions))
        assert len(columns) == 4
        assert columns.dep_off.tolist() == [0, 2, 2, 2, 2]
        back = columns.to_synthetic_trace()
        fields = ("iclass", "dep_distances", "il1_miss", "l2i_miss",
                  "itlb_miss", "dl1_miss", "l2d_miss", "dtlb_miss",
                  "taken", "outcome")
        for original, copy in zip(instructions, back):
            for name in fields:
                assert getattr(copy, name) == getattr(original, name), name
        assert back.summary() == _trace(instructions).summary()
