"""Synthetic trace records (paper Figure 1, step 2 output).

A synthetic instruction carries exactly what the paper's synthetic trace
simulator consumes: an instruction type, dependency distances for its
operands, pre-assigned cache hit/miss flags and — for branches — the
taken flag and predictor outcome.  It has no PC, no registers and no
addresses: all locality behaviour was decided statistically at
generation time.

:class:`ColumnarTrace` is the one format synthesis hands to the
pipeline: the scalar generator (:mod:`repro.core.synthesis`) and the
vector generator (:mod:`repro.core.columnar`) both emit it, differing
only in their draw stream, and the pipeline resolves it through
:class:`~repro.cpu.source.ColumnarSource`.  :class:`SyntheticTrace`
holds per-instruction :class:`SyntheticInstruction` objects for code
that reads instructions one by one (acceptance checks, tests) and for
the hand-built baseline generators, which become columns through
:meth:`ColumnarTrace.from_synthetic`.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.config import MachineConfig
from repro.isa.iclass import (
    BRANCH_CLASSES,
    IClass,
    execution_latency,
)
from repro.branch.unit import BranchOutcome
from repro.cpu.source import FetchSlot


class SyntheticInstruction:
    """One statistically generated instruction."""

    __slots__ = ("iclass", "dep_distances", "il1_miss", "l2i_miss",
                 "itlb_miss", "dl1_miss", "l2d_miss", "dtlb_miss",
                 "taken", "outcome")

    def __init__(self, iclass: IClass,
                 dep_distances: Tuple[int, ...] = (),
                 il1_miss: bool = False, l2i_miss: bool = False,
                 itlb_miss: bool = False, dl1_miss: bool = False,
                 l2d_miss: bool = False, dtlb_miss: bool = False,
                 taken: bool = False,
                 outcome: Optional[BranchOutcome] = None) -> None:
        self.iclass = iclass
        self.dep_distances = dep_distances
        self.il1_miss = il1_miss
        self.l2i_miss = l2i_miss
        self.itlb_miss = itlb_miss
        self.dl1_miss = dl1_miss
        self.l2d_miss = l2d_miss
        self.dtlb_miss = dtlb_miss
        self.taken = taken
        self.outcome = outcome

    @property
    def is_branch(self) -> bool:
        return self.iclass in BRANCH_CLASSES

    @property
    def is_load(self) -> bool:
        return self.iclass is IClass.LOAD

    @property
    def produces_register(self) -> bool:
        return (self.iclass is not IClass.STORE
                and self.iclass not in BRANCH_CLASSES)


class SyntheticTrace:
    """A generated instruction stream plus its provenance."""

    def __init__(self, name: str,
                 instructions: List[SyntheticInstruction],
                 order: int, reduction_factor: float,
                 seed: Optional[int] = None) -> None:
        self.name = name
        self.instructions = instructions
        self.order = order
        self.reduction_factor = reduction_factor
        self.seed = seed

    def __len__(self) -> int:
        return len(self.instructions)

    def __iter__(self):
        return iter(self.instructions)

    def __getitem__(self, index):
        return self.instructions[index]

    def to_fetch_slots(self, config: MachineConfig) -> List[FetchSlot]:
        """Convert annotations into pipeline fetch slots (paper §2.3):
        a load's latency comes from the deepest level it misses in, and
        instruction-side misses become fetch stalls."""
        slots: List[FetchSlot] = []
        memory_latency = config.memory_latency
        l2_latency = config.l2.hit_latency
        dl1_latency = config.dl1.hit_latency
        itlb_penalty = config.itlb.miss_latency
        dtlb_penalty = config.dtlb.miss_latency
        for inst in self.instructions:
            stall = 0
            if inst.l2i_miss:
                stall = memory_latency
            elif inst.il1_miss:
                stall = l2_latency
            if inst.itlb_miss:
                stall += itlb_penalty
            if inst.is_load:
                if inst.l2d_miss:
                    latency = memory_latency
                elif inst.dl1_miss:
                    latency = l2_latency
                else:
                    latency = dl1_latency
                if inst.dtlb_miss:
                    latency += dtlb_penalty
            else:
                latency = execution_latency(inst.iclass)
            slots.append(FetchSlot(
                iclass=inst.iclass,
                exec_latency=latency,
                fetch_stall=stall,
                dep_distances=inst.dep_distances,
                taken=inst.taken,
                outcome=inst.outcome,
                il1_miss=inst.il1_miss,
                l2i_miss=inst.l2i_miss,
                dl1_miss=inst.dl1_miss,
                l2d_miss=inst.l2d_miss,
                itlb_miss=inst.itlb_miss,
                dtlb_miss=inst.dtlb_miss,
            ))
        return slots

    def summary(self) -> dict:
        """Aggregate annotation rates (testing/reporting aid)."""
        n = max(1, len(self.instructions))
        loads = [i for i in self.instructions if i.is_load]
        branches = [i for i in self.instructions if i.is_branch]
        return {
            "instructions": len(self.instructions),
            "load_fraction": len(loads) / n,
            "branch_fraction": len(branches) / n,
            "il1_miss_rate": sum(i.il1_miss for i in self.instructions) / n,
            "dl1_miss_rate": (sum(i.dl1_miss for i in loads) / len(loads)
                              if loads else 0.0),
            "misprediction_rate": (
                sum(i.outcome is BranchOutcome.MISPREDICTION
                    for i in branches) / len(branches) if branches else 0.0),
        }


def dependency_targets(instructions: Sequence[SyntheticInstruction],
                       index: int) -> List[int]:
    """Indices this instruction depends on (testing aid)."""
    return [index - d for d in instructions[index].dep_distances
            if 0 <= index - d]


#: Branch outcomes indexed by their ``ColumnarTrace.outcome`` code.
_OUTCOMES = (BranchOutcome(0), BranchOutcome(1), BranchOutcome(2))


class ColumnarTrace:
    """A synthetic trace as parallel numpy columns.

    Dependencies are CSR: instruction ``i`` carries distances
    ``dep_val[dep_off[i]:dep_off[i+1]]``.  ``outcome`` holds
    :class:`BranchOutcome` codes (0 correct / 1 redirection /
    2 misprediction) and is only meaningful where the class is a
    branch.
    """

    __slots__ = ("name", "order", "reduction_factor", "seed",
                 "iclass", "dep_off", "dep_val", "il1", "l2i", "itlb",
                 "dl1", "l2d", "dtlb", "taken", "outcome")

    def __len__(self) -> int:
        return int(self.iclass.size)

    @classmethod
    def from_synthetic(cls, trace: SyntheticTrace) -> "ColumnarTrace":
        """Columns of a per-instruction trace (the hand-built baseline
        generators' route into the pipeline)."""
        instructions = trace.instructions
        columns = cls.__new__(cls)
        columns.name = trace.name
        columns.order = trace.order
        columns.reduction_factor = trace.reduction_factor
        columns.seed = trace.seed
        columns.iclass = np.asarray(
            [int(inst.iclass) for inst in instructions], dtype=np.uint8)
        for column, attr in (("il1", "il1_miss"), ("l2i", "l2i_miss"),
                             ("itlb", "itlb_miss"), ("dl1", "dl1_miss"),
                             ("l2d", "l2d_miss"), ("dtlb", "dtlb_miss"),
                             ("taken", "taken")):
            setattr(columns, column, np.asarray(
                [bool(getattr(inst, attr)) for inst in instructions],
                dtype=bool))
        columns.outcome = np.asarray(
            [int(inst.outcome) if inst.outcome is not None else 0
             for inst in instructions], dtype=np.uint8)
        dep_off = [0]
        dep_val: List[int] = []
        for inst in instructions:
            dep_val.extend(inst.dep_distances)
            dep_off.append(len(dep_val))
        columns.dep_off = np.asarray(dep_off, dtype=np.int64)
        columns.dep_val = np.asarray(dep_val, dtype=np.int64)
        return columns

    def to_synthetic_trace(self) -> SyntheticTrace:
        """Materialize per-instruction objects (tests, acceptance
        checks and the fuzz oracle; the pipeline consumes the columns
        directly)."""
        iclasses = [IClass(code) for code in self.iclass.tolist()]
        dep_off = self.dep_off.tolist()
        dep_val = self.dep_val.tolist()
        il1 = self.il1.tolist()
        l2i = self.l2i.tolist()
        itlb = self.itlb.tolist()
        dl1 = self.dl1.tolist()
        l2d = self.l2d.tolist()
        dtlb = self.dtlb.tolist()
        taken = self.taken.tolist()
        outcome = self.outcome.tolist()
        new = SyntheticInstruction.__new__
        out: List[SyntheticInstruction] = []
        append = out.append
        for i, iclass in enumerate(iclasses):
            inst = new(SyntheticInstruction)
            inst.iclass = iclass
            lo, hi = dep_off[i], dep_off[i + 1]
            inst.dep_distances = tuple(dep_val[lo:hi]) if hi > lo else ()
            inst.il1_miss = il1[i]
            inst.l2i_miss = l2i[i]
            inst.itlb_miss = itlb[i]
            inst.dl1_miss = dl1[i]
            inst.l2d_miss = l2d[i]
            inst.dtlb_miss = dtlb[i]
            inst.taken = taken[i]
            inst.outcome = (_OUTCOMES[outcome[i]]
                            if iclass in BRANCH_CLASSES else None)
            append(inst)
        return SyntheticTrace(
            name=self.name, instructions=out, order=self.order,
            reduction_factor=self.reduction_factor, seed=self.seed)

    def summary(self) -> dict:
        """Aggregate annotation rates (vectorized twin of
        :meth:`SyntheticTrace.summary`)."""
        n = max(1, len(self))
        is_branch = np.isin(self.iclass,
                            [int(c) for c in BRANCH_CLASSES])
        loads = int((self.iclass == int(IClass.LOAD)).sum())
        branches = int(is_branch.sum())
        return {
            "instructions": len(self),
            "load_fraction": loads / n,
            "branch_fraction": branches / n,
            "il1_miss_rate": float(self.il1.sum()) / n,
            "dl1_miss_rate": (float(self.dl1.sum()) / loads
                              if loads else 0.0),
            "misprediction_rate": (
                float((self.outcome[is_branch] == 2).sum()) / branches
                if branches else 0.0),
        }
