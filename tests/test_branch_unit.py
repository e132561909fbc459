"""Tests for the branch predictor unit's outcome taxonomy."""

import pytest

from repro.config import BranchPredictorConfig
from repro.isa.iclass import IClass
from repro.isa.instruction import DynamicInstruction
from repro.branch.unit import BranchOutcome, BranchPredictorUnit


def _branch(pc=0x1000, taken=True, target=0x2000,
            iclass=IClass.INT_COND_BRANCH, seq=0):
    return DynamicInstruction(seq=seq, pc=pc, iclass=iclass, bb_id=0,
                              taken=taken, target=target)


@pytest.fixture
def unit():
    return BranchPredictorUnit(BranchPredictorConfig(
        meta_entries=256, bimodal_entries=256,
        local_history_entries=256, local_pht_entries=256,
        local_history_bits=8, btb_entries=64, btb_associativity=4))


class TestConditionalOutcomes:
    def test_wrong_direction_is_misprediction(self, unit):
        branch = _branch(taken=True)
        for _ in range(8):
            unit.train(_branch(taken=False))
        assert unit.classify(branch) is BranchOutcome.MISPREDICTION

    def test_correct_not_taken_needs_no_btb(self, unit):
        for _ in range(8):
            unit.train(_branch(taken=False))
        assert unit.classify(_branch(taken=False)) is BranchOutcome.CORRECT

    def test_correct_taken_with_btb_miss_is_redirection(self, unit):
        # Train direction only (train() fills the BTB, so train a branch
        # at a different PC and force direction state via the direction
        # predictor directly).
        for _ in range(8):
            unit.direction.update(0x1000, True)
        outcome = unit.classify(_branch(taken=True))
        assert outcome is BranchOutcome.FETCH_REDIRECTION

    def test_correct_taken_with_btb_hit_is_correct(self, unit):
        for _ in range(8):
            unit.train(_branch(taken=True))
        assert unit.classify(_branch(taken=True)) is BranchOutcome.CORRECT

    def test_stale_btb_target_is_redirection(self, unit):
        for _ in range(8):
            unit.train(_branch(taken=True, target=0x2000))
        outcome = unit.classify(_branch(taken=True, target=0x3000))
        assert outcome is BranchOutcome.FETCH_REDIRECTION


class TestIndirectOutcomes:
    def test_btb_miss_is_misprediction(self, unit):
        branch = _branch(iclass=IClass.INDIRECT_BRANCH)
        assert unit.classify(branch) is BranchOutcome.MISPREDICTION

    def test_btb_hit_is_correct(self, unit):
        branch = _branch(iclass=IClass.INDIRECT_BRANCH, target=0x4000)
        unit.train(branch)
        assert unit.classify(branch) is BranchOutcome.CORRECT

    def test_changed_target_is_misprediction(self, unit):
        unit.train(_branch(iclass=IClass.INDIRECT_BRANCH, target=0x4000))
        outcome = unit.classify(
            _branch(iclass=IClass.INDIRECT_BRANCH, target=0x5000))
        assert outcome is BranchOutcome.MISPREDICTION


class TestUnitBookkeeping:
    def test_counters(self, unit):
        branch = _branch()
        unit.classify(branch)
        unit.train(branch)
        assert unit.lookups == 1
        assert unit.updates == 1

    def test_classify_rejects_non_branch(self, unit):
        inst = DynamicInstruction(0, 0x1000, IClass.LOAD, 0)
        with pytest.raises(ValueError):
            unit.classify(inst)

    def test_record_wraps_classify(self, unit):
        record = unit.record(_branch(seq=42, taken=True))
        assert record.seq == 42
        assert record.taken is True
        assert record.outcome in BranchOutcome

    def test_not_taken_branches_do_not_fill_btb(self, unit):
        for _ in range(8):
            unit.train(_branch(taken=False))
        assert unit.btb.lookup(0x1000) is None


class TestLookupSideEffects:
    """``classify`` trains nothing, but a BTB hit refreshes the entry's
    LRU recency; execution-driven and profiled branch numbers depend on
    this, so it is pinned rather than left implicit."""

    #: Five indirect branches in one BTB set (16 sets of 4 ways; the set
    #: index is ``(pc >> 3) % 16``).
    PCS = [0x1000 + way * 16 * 8 for way in range(5)]

    def _fill_set(self, unit):
        for pc in self.PCS[:4]:
            unit.train(_branch(pc=pc, iclass=IClass.INDIRECT_BRANCH,
                               target=pc + 4))

    def _outcome(self, unit, pc):
        return unit.classify(_branch(pc=pc, iclass=IClass.INDIRECT_BRANCH,
                                     target=pc + 4))

    def test_without_lookup_oldest_entry_is_evicted(self, unit):
        self._fill_set(unit)
        unit.train(_branch(pc=self.PCS[4], iclass=IClass.INDIRECT_BRANCH,
                           target=self.PCS[4] + 4))
        assert self._outcome(unit, self.PCS[0]) is \
            BranchOutcome.MISPREDICTION

    def test_lookup_hit_refreshes_recency(self, unit):
        self._fill_set(unit)
        assert self._outcome(unit, self.PCS[0]) is BranchOutcome.CORRECT
        unit.train(_branch(pc=self.PCS[4], iclass=IClass.INDIRECT_BRANCH,
                           target=self.PCS[4] + 4))
        # The looked-up entry survived; the next-oldest was evicted.
        assert self._outcome(unit, self.PCS[0]) is BranchOutcome.CORRECT
        assert self._outcome(unit, self.PCS[1]) is \
            BranchOutcome.MISPREDICTION
        assert unit.updates == 5
