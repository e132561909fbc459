"""Instruction sources: how the pipeline learns each instruction's
latencies, dependencies and branch outcome.

A :class:`FetchSlot` is the pipeline's view of one instruction — class,
execution latency, fetch stall, RAW dependency distances and branch
outcome — deliberately identical for real and synthetic instructions.
The :class:`ExecutionDrivenSource` computes slots from a dynamic trace
with live caches and a live branch predictor (the reference simulator).

The statistical simulator, which per the paper "does not need to model
branch predictors nor caches", replays annotations the synthetic trace
generator assigned in advance.  Columns are the one synthetic-trace
format: :class:`ColumnarSource` resolves a
:class:`~repro.core.synthetic.ColumnarTrace` — from the scalar or the
vector generator, which differ only in their draw stream — for the
pipeline's columnar loop.  :class:`PreannotatedSource` replays a list of
``FetchSlot`` objects; it is the replay source of the frozen
:class:`~repro.cpu.reference.ReferencePipeline`, the tests and the fuzz
oracle, not of any production path.
"""

from __future__ import annotations

from typing import List, Optional, Protocol, Sequence, Tuple

import numpy as np

from repro.config import MachineConfig
from repro.isa.iclass import IClass, execution_latency, functional_unit
from repro.frontend.trace import Trace
from repro.branch.unit import BranchOutcome, BranchPredictorUnit
from repro.cache.hierarchy import (
    EVENT_L1,
    EVENT_L2,
    EVENT_TLB,
    CacheHierarchy,
    LocalityWalk,
    event_latency_tables,
)

#: Dependency distances beyond this horizon cannot constrain any
#: realistic instruction window; the paper caps the dependency-distance
#: distribution at 512 for the same reason (section 2.1.1).
MAX_DEPENDENCY_DISTANCE = 512


class FetchSlot:
    """Everything the pipeline needs to know about one instruction."""

    __slots__ = (
        "iclass",
        "fu",
        "fu_index",
        "is_mem",
        "exec_latency",
        "fetch_stall",
        "dep_distances",
        "is_branch",
        "is_load",
        "is_store",
        "taken",
        "outcome",
        "il1_miss",
        "l2i_miss",
        "dl1_miss",
        "l2d_miss",
        "itlb_miss",
        "dtlb_miss",
        "raw",
    )

    def __init__(
        self,
        iclass: IClass,
        exec_latency: int,
        fetch_stall: int = 0,
        dep_distances: Tuple[int, ...] = (),
        taken: bool = False,
        outcome: Optional[BranchOutcome] = None,
        il1_miss: bool = False,
        l2i_miss: bool = False,
        dl1_miss: bool = False,
        l2d_miss: bool = False,
        itlb_miss: bool = False,
        dtlb_miss: bool = False,
        raw: object = None,
    ) -> None:
        self.iclass = iclass
        self.fu = functional_unit(iclass)
        self.exec_latency = exec_latency
        self.fetch_stall = fetch_stall
        self.dep_distances = dep_distances
        self.is_branch = iclass in (IClass.INT_COND_BRANCH,
                                    IClass.FP_COND_BRANCH,
                                    IClass.INDIRECT_BRANCH)
        self.is_load = iclass is IClass.LOAD
        self.is_store = iclass is IClass.STORE
        # Precomputed for the pipeline's issue/dispatch hot paths:
        # FunctionalUnit is an IntEnum, so the plain-int index lets the
        # issue stage address list-based FU pools without hashing.
        self.fu_index = int(self.fu)
        self.is_mem = self.is_load or self.is_store
        self.taken = taken
        self.outcome = outcome
        self.il1_miss = il1_miss
        self.l2i_miss = l2i_miss
        self.dl1_miss = dl1_miss
        self.l2d_miss = l2d_miss
        self.itlb_miss = itlb_miss
        self.dtlb_miss = dtlb_miss
        self.raw = raw


class InstructionSource(Protocol):
    """Protocol the pipeline's fetch engine drives."""

    def fetch(self) -> Optional[FetchSlot]:
        """Consume and resolve the next correct-path instruction, or
        return None when the stream is exhausted."""
        ...

    def peek_filler(self, offset: int) -> Optional[FetchSlot]:
        """Return a wrong-path filler slot *offset* instructions ahead
        without consuming the stream or touching locality state."""
        ...

    def on_dispatch(self, slot: FetchSlot) -> None:
        """Notification that *slot* reached dispatch (used by the
        execution-driven source for speculative predictor update)."""
        ...


#: Fillers are immutable to the pipeline (slots are only ever read), so
#: one shared instance per instruction class serves every wrong-path
#: fetch instead of constructing a fresh FetchSlot each time.
_FILLER_CACHE: dict = {}


def _filler_slot(iclass: IClass) -> FetchSlot:
    """A wrong-path filler: occupies fetch/window/FU resources with the
    class's base latency, but carries no dependencies, no locality events
    and an inert branch outcome.  Both simulators use the same rule, per
    DESIGN.md (the paper injects wrong-path instructions purely "to model
    resource contention")."""
    slot = _FILLER_CACHE.get(iclass)
    if slot is None:
        slot = FetchSlot(iclass=iclass,
                         exec_latency=execution_latency(iclass))
        _FILLER_CACHE[iclass] = slot
    return slot


#: Event code -> (L1 miss, L2 miss, TLB miss) flags of a FetchSlot.
_EVENT_FLAGS = tuple((bool(code & EVENT_L1), bool(code & EVENT_L2),
                      bool(code & EVENT_TLB)) for code in range(8))


class ExecutionDrivenSource:
    """Resolves a dynamic trace with live locality structures.

    Per fetched instruction it:

    * reads the fetch's and the data access's locality event codes from
      the window's :class:`~repro.cache.hierarchy.LocalityWalk` and maps
      them to a fetch stall and (for loads) a load latency through two
      8-entry tables built from the hierarchy's latency rules;
    * classifies branches against the live predictor — a lookup that
      does not train it (a BTB hit does refresh that entry's LRU
      recency) — training happens at dispatch via :meth:`on_dispatch`,
      giving the dispatch-time speculative update the paper assumes;
    * computes the RAW dependency distance of every source operand (the
      same definition the statistical profiler uses).

    Cache events do not depend on pipeline timing: the pipeline fetches
    the real instructions exactly once, in program order (wrong-path
    fillers never touch locality state), so walking the whole window up
    front gives the events a per-fetch access would.  Pass the window's
    *locality* walk when it was computed already; otherwise the source
    walks *hierarchy* (warm or not) over the trace on construction.
    """

    def __init__(self, trace: Trace, config: MachineConfig,
                 perfect_caches: bool = False,
                 perfect_branch_prediction: bool = False,
                 hierarchy: Optional[CacheHierarchy] = None,
                 predictor: Optional[BranchPredictorUnit] = None,
                 locality: Optional[LocalityWalk] = None) -> None:
        self.trace = trace
        self.config = config
        self.perfect_caches = perfect_caches
        self.perfect_branch_prediction = perfect_branch_prediction
        self.predictor = predictor or BranchPredictorUnit(config.predictor)
        self._instructions = trace.instructions
        self._pos = 0
        self._last_writer: dict = {}
        self._last_reader: dict = {}
        if perfect_caches:
            # Every access hits: code 0, no stall, DL1 hit latency.
            self._icodes = self._dcodes = bytes(len(self._instructions))
        else:
            if locality is None:
                # Callers may inject pre-warmed locality structures
                # (e.g. the SimPoint baseline warms them on the
                # instructions preceding a representative interval).
                from repro.frontend.warming import walk_window

                locality = walk_window(trace, config, hierarchy=hierarchy)
            else:
                locality.check(len(self._instructions), config)
            self._icodes, self._dcodes = locality.icodes, locality.dcodes
        self._stall, self._load_latency = event_latency_tables(config)

    def __len__(self) -> int:
        return len(self._instructions)

    def fetch(self) -> Optional[FetchSlot]:
        instructions = self._instructions
        pos = self._pos
        if pos >= len(instructions):
            return None
        inst = instructions[pos]
        self._pos = pos + 1
        icode = self._icodes[pos]
        il1_miss, l2i_miss, itlb_miss = _EVENT_FLAGS[icode]

        dep_distances = []
        last_writer = self._last_writer
        last_reader = self._last_reader
        anti = self.config.enforce_anti_dependencies
        seq = inst.seq
        for reg in inst.src_regs:
            writer = last_writer.get(reg)
            if writer is not None:
                distance = seq - writer
                if 0 < distance <= MAX_DEPENDENCY_DISTANCE:
                    dep_distances.append(distance)
            if anti:
                last_reader[reg] = seq
        if inst.dst_reg is not None:
            if anti:
                # Without register renaming, a write must wait for the
                # previous writer (WAW) and previous readers (WAR) of
                # its destination register.
                for prior in (last_writer.get(inst.dst_reg),
                              last_reader.get(inst.dst_reg)):
                    if prior is not None:
                        distance = seq - prior
                        if 0 < distance <= MAX_DEPENDENCY_DISTANCE:
                            dep_distances.append(distance)
            last_writer[inst.dst_reg] = seq

        dl1_miss = l2d_miss = dtlb_miss = False
        if inst.is_load and (inst.mem_addr is not None
                             or self.perfect_caches):
            dcode = self._dcodes[pos]
            latency = self._load_latency[dcode]
            dl1_miss, l2d_miss, dtlb_miss = _EVENT_FLAGS[dcode]
        else:
            latency = execution_latency(inst.iclass)

        taken = False
        outcome: Optional[BranchOutcome] = None
        if inst.is_branch:
            taken = inst.taken
            if self.perfect_branch_prediction:
                outcome = BranchOutcome.CORRECT
            else:
                outcome = self.predictor.classify(inst)

        return FetchSlot(
            iclass=inst.iclass,
            exec_latency=latency,
            fetch_stall=self._stall[icode],
            dep_distances=tuple(dep_distances),
            taken=taken,
            outcome=outcome,
            il1_miss=il1_miss,
            l2i_miss=l2i_miss,
            dl1_miss=dl1_miss,
            l2d_miss=l2d_miss,
            itlb_miss=itlb_miss,
            dtlb_miss=dtlb_miss,
            raw=inst,
        )

    def peek_filler(self, offset: int) -> Optional[FetchSlot]:
        instructions = self._instructions
        if not instructions:
            return None
        index = (self._pos + offset) % len(instructions)
        return _filler_slot(instructions[index].iclass)

    def on_dispatch(self, slot: FetchSlot) -> None:
        if (slot.is_branch and slot.raw is not None
                and not self.perfect_branch_prediction):
            self.predictor.train(slot.raw)


#: Per-IClass lookup rows (indexed by the IClass integer code) for the
#: vectorized slot computation and for columnar wrong-path fillers.
_BASE_LAT = np.asarray([execution_latency(c) for c in IClass],
                       dtype=np.int64)
_FU_IDX = [int(functional_unit(c)) for c in IClass]
_CLASS_IS_MEM = [c in (IClass.LOAD, IClass.STORE) for c in IClass]
_CLASS_IS_BRANCH = [c in (IClass.INT_COND_BRANCH, IClass.FP_COND_BRANCH,
                          IClass.INDIRECT_BRANCH) for c in IClass]

#: Shared one-distance dependency tuples, indexed by distance: nearly
#: every synthetic instruction carries exactly one dependency, and
#: sharing these spares ColumnarSource one allocation per instruction.
_SINGLE_DEPS = tuple((distance,)
                     for distance in range(MAX_DEPENDENCY_DISTANCE + 1))

#: Control-byte bits consumed by the pipeline's columnar fetch stage.
CTRL_TAKEN = 1
CTRL_MISPREDICT = 2
CTRL_REDIRECT = 4
CTRL_STALL = 8

#: Columnar row tuples for wrong-path fillers, indexed by IClass code:
#: class base latency, no dependencies, no control bits — the columnar
#: equivalent of the shared ``_filler_slot`` instances.
_FILLER_ROWS = [
    (int(execution_latency(c)), int(functional_unit(c)), (),
     c is IClass.LOAD, c is IClass.STORE,
     c in (IClass.LOAD, IClass.STORE), 0)
    for c in IClass
]


class ColumnarSource:
    """The synthetic-trace simulator's instruction source.

    Resolves a :class:`repro.core.synthetic.ColumnarTrace` into parallel
    per-instruction columns — execution latency, fetch stall,
    functional unit, memory/load/store flags, dependency tuples and a
    packed branch/stall control byte — with whole-trace numpy
    expressions instead of one ``FetchSlot`` construction per
    instruction (the columnwise equivalent of
    ``SyntheticTrace.to_fetch_slots``).  ``SuperscalarPipeline.run``
    detects this source and switches to its columnar loop, which walks
    these columns directly; the generic :class:`InstructionSource`
    protocol methods below materialize classic ``FetchSlot`` objects
    lazily, so the source also works (more slowly) with any
    configuration the columnar loop does not cover (in-order issue).

    Counters the scalar fetch stage accumulates per instruction are
    precomputed here as column sums: every correct-path instruction is
    fetched, dispatched and committed exactly once (wrong-path fillers
    never commit and real instructions are never squashed — everything
    younger than a mispredicted branch is filler by construction), so
    branch/locality tallies do not depend on pipeline timing.
    """

    def __init__(self, trace, config: MachineConfig) -> None:
        self.trace = trace
        self.config = config
        iclass = trace.iclass.astype(np.int64)
        n = iclass.size
        is_load = iclass == int(IClass.LOAD)
        is_store = iclass == int(IClass.STORE)
        is_branch = np.asarray(_CLASS_IS_BRANCH)[iclass]
        memory_latency = config.memory_latency
        l2_latency = config.l2.hit_latency

        # to_fetch_slots(), columnwise: load latency from the deepest
        # missing level plus the D-TLB penalty; instruction-side misses
        # as fetch stalls plus the I-TLB penalty.
        lat = np.where(
            is_load,
            np.where(trace.l2d, memory_latency,
                     np.where(trace.dl1, l2_latency,
                              config.dl1.hit_latency))
            + trace.dtlb * config.dtlb.miss_latency,
            _BASE_LAT[iclass])
        stall = np.where(trace.l2i, memory_latency,
                         np.where(trace.il1, l2_latency, 0)) \
            + trace.itlb * config.itlb.miss_latency

        # Like the generic fetch stage, the taken flag counts only on
        # branches and the D-cache miss flag only on memory operations.
        taken = is_branch & trace.taken
        is_mem = is_load | is_store
        ctrl = (taken * CTRL_TAKEN
                + (is_branch & (trace.outcome == 2)) * CTRL_MISPREDICT
                + (is_branch & (trace.outcome == 1)) * CTRL_REDIRECT
                + (stall > 0) * CTRL_STALL)

        deps: List[Tuple[int, ...]] = [()] * n
        dep_off = trace.dep_off.tolist()
        dep_val = trace.dep_val.tolist()
        single = _SINGLE_DEPS
        for i in np.flatnonzero(np.diff(trace.dep_off)).tolist():
            lo, hi = dep_off[i], dep_off[i + 1]
            distance = dep_val[lo]
            if hi - lo == 1 and 0 < distance <= MAX_DEPENDENCY_DISTANCE:
                deps[i] = single[distance]
            else:
                deps[i] = tuple(dep_val[lo:hi])

        # One prebuilt row tuple per instruction: everything the
        # pipeline's columnar loop needs lands on the inflight record
        # with a single list read and a single attribute store (plain
        # lists and tuples — numpy scalar indexing inside the cycle
        # loop would dominate it).
        self.ic: List[int] = iclass.tolist()
        self.stall: List[int] = stall.tolist()
        self.rows: List[tuple] = list(zip(
            lat.tolist(),
            np.asarray(_FU_IDX)[iclass].tolist(),
            deps,
            is_load.tolist(),
            is_store.tolist(),
            is_mem.tolist(),
            ctrl.tolist(),
        ))

        # Timing-independent fetch/dispatch tallies (see class docs).
        self.branches = int(is_branch.sum())
        self.taken_branches = int(taken.sum())
        branch_outcomes = trace.outcome[is_branch]
        self.mispredictions = int((branch_outcomes == 2).sum())
        self.redirections = int((branch_outcomes == 1).sum())
        self.act_l2 = int(trace.il1.sum()) + int((is_mem & trace.dl1).sum())
        self.act_dl1 = int(is_mem.sum())
        # Fetch classifies each branch once and dispatch updates the
        # predictor model once per correct-path branch.
        self.act_bpred = 2 * self.branches
        self._pos = 0

    def __len__(self) -> int:
        return len(self.ic)

    # -- generic InstructionSource protocol (correctness fallback) ----

    def _slot_at(self, index: int) -> FetchSlot:
        trace = self.trace
        iclass = IClass(self.ic[index])
        is_branch = iclass in (IClass.INT_COND_BRANCH,
                               IClass.FP_COND_BRANCH,
                               IClass.INDIRECT_BRANCH)
        row = self.rows[index]
        return FetchSlot(
            iclass=iclass,
            exec_latency=row[0],
            fetch_stall=self.stall[index],
            dep_distances=row[2],
            taken=bool(trace.taken[index]),
            outcome=(BranchOutcome(int(trace.outcome[index]))
                     if is_branch else None),
            il1_miss=bool(trace.il1[index]),
            l2i_miss=bool(trace.l2i[index]),
            dl1_miss=bool(trace.dl1[index]),
            l2d_miss=bool(trace.l2d[index]),
            itlb_miss=bool(trace.itlb[index]),
            dtlb_miss=bool(trace.dtlb[index]),
        )

    def fetch(self) -> Optional[FetchSlot]:
        if self._pos >= len(self.ic):
            return None
        slot = self._slot_at(self._pos)
        self._pos += 1
        return slot

    def peek_filler(self, offset: int) -> Optional[FetchSlot]:
        if not self.ic:
            return None
        index = (self._pos + offset) % len(self.ic)
        return _filler_slot(IClass(self.ic[index]))

    def on_dispatch(self, slot: FetchSlot) -> None:
        return None


class PreannotatedSource:
    """Replays pre-resolved fetch slots through the generic
    :class:`InstructionSource` protocol.

    The reference and test replay source: the frozen
    :class:`~repro.cpu.reference.ReferencePipeline`, the equivalence
    tests and the fuzz oracle feed it ``SyntheticTrace.to_fetch_slots``
    output or hand-built slots.  Like :class:`ColumnarSource` it holds
    no caches and no predictor — every outcome was assigned in advance.
    """

    def __init__(self, slots: Sequence[FetchSlot]) -> None:
        self._slots: List[FetchSlot] = list(slots)
        self._pos = 0

    def __len__(self) -> int:
        return len(self._slots)

    def fetch(self) -> Optional[FetchSlot]:
        if self._pos >= len(self._slots):
            return None
        slot = self._slots[self._pos]
        self._pos += 1
        return slot

    def peek_filler(self, offset: int) -> Optional[FetchSlot]:
        if not self._slots:
            return None
        index = (self._pos + offset) % len(self._slots)
        return _filler_slot(self._slots[index].iclass)

    def on_dispatch(self, slot: FetchSlot) -> None:
        return None
