"""Instruction sources: how the pipeline learns each instruction's
latencies, dependencies and branch outcome.

Every source resolves its instructions into the same row columns —
one prebuilt row tuple per instruction (execution latency, functional
unit, dependency tuple, load/store/memory flags, a packed control
byte), the class and fetch-stall columns, and the fetch/dispatch
tallies that do not depend on pipeline timing — through one builder,
:meth:`RowSource._resolve_rows`.  The pipeline's one cycle loop walks
those columns directly:

* :class:`ExecutionDrivenSource` resolves a dynamic trace against the
  window's locality events once; only branch outcomes stay live
  (``CTRL_LIVE`` rows), classified against the live predictor at fetch
  and trained at dispatch — the reference simulator;
* :class:`ColumnarSource` resolves a
  :class:`~repro.core.synthetic.ColumnarTrace` — from the scalar or
  the vector generator, which differ only in their draw stream — whose
  outcomes the generator assigned in advance (the statistical
  simulator, which per the paper "does not need to model branch
  predictors nor caches");
* :class:`PreannotatedSource` resolves a list of :class:`FetchSlot`
  objects (hand-built streams, ``SyntheticTrace.to_fetch_slots``).

A :class:`FetchSlot` is one instruction in the protocol of the frozen
:class:`~repro.cpu.reference.ReferencePipeline` (:class:`InstructionSource`):
:class:`PreannotatedSource` replays its slots and
:class:`ExecutionDrivenSource` materializes them from its columns, so
both simulators see one resolution.
"""

from __future__ import annotations

from collections import deque
from operator import attrgetter
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
    """Everything the reference pipeline needs to know about one
    instruction."""

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
    """Protocol the frozen reference pipeline's fetch engine drives."""

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

#: Per-IClass lookup rows, indexed by the IClass integer code.
_BASE_LAT = np.asarray([execution_latency(c) for c in IClass],
                       dtype=np.int32)
_FU_IDX = np.asarray([int(functional_unit(c)) for c in IClass],
                     dtype=np.int64)
_CLASS_IS_BRANCH = np.asarray(
    [c in (IClass.INT_COND_BRANCH, IClass.FP_COND_BRANCH,
           IClass.INDIRECT_BRANCH) for c in IClass])

#: IClass -> integer code (a dict lookup beats ``int()`` on an enum).
_CLASS_CODE = {c: int(c) for c in IClass}

#: Dependency tuples by code: 0 is no dependency and code d in
#: 1..512 the one distance d (nearly every instruction carries at most
#: one dependency); a :class:`_DepCodes` table appends the rest.
_DEP_TUPLES = ((),) + tuple((distance,) for distance
                            in range(1, MAX_DEPENDENCY_DISTANCE + 1))


class _DepCodes:
    """Dependency tuples as integer codes into one table per source, so
    equal tuples are stored once."""

    def __init__(self) -> None:
        self.table: List[tuple] = list(_DEP_TUPLES)
        self._index: dict = {}

    def code(self, deps: tuple) -> int:
        if len(deps) < 2 and (not deps
                              or 0 < deps[0] <= MAX_DEPENDENCY_DISTANCE):
            return deps[0] if deps else 0
        code = self._index.get(deps)
        if code is None:
            code = self._index[deps] = len(self.table)
            self.table.append(deps)
        return code


#: Control-byte bits consumed by the pipeline's fetch stage.  A
#: ``CTRL_LIVE`` row is a real branch whose outcome the source
#: classifies at fetch (:meth:`RowSource.classify`) and trains at
#: dispatch (:meth:`RowSource.train`).
CTRL_TAKEN = 1
CTRL_MISPREDICT = 2
CTRL_REDIRECT = 4
CTRL_STALL = 8
CTRL_LIVE = 16

#: Row tuples for wrong-path fillers, indexed by IClass code: class
#: base latency, no dependencies, no control bits, no stall — the row
#: equivalent of the shared ``_filler_slot`` instances.
_FILLER_ROWS = [
    (int(execution_latency(c)), int(functional_unit(c)), (),
     c is IClass.LOAD, c is IClass.STORE,
     c in (IClass.LOAD, IClass.STORE), 0, 0)
    for c in IClass
]


class RowSource:
    """Row columns of one instruction stream, as the cycle loop reads
    them.

    ``rows[i]`` is ``(exec_latency, fu_index, dep_distances, is_load,
    is_store, is_mem, ctrl, fetch_stall)`` and ``ic[i]`` the class code
    (wrong-path fillers follow it).  A list of tuples and bytes: numpy
    scalar indexing inside the cycle loop would dominate it.

    Branch and locality tallies that a per-instruction fetch stage
    would accumulate are column sums here: every correct-path
    instruction is fetched, dispatched and committed exactly once
    (wrong-path fillers never commit, and real instructions are never
    squashed — everything younger than a mispredicted branch is filler
    by construction), so they do not depend on pipeline timing.  Only
    live branch outcomes are counted at classify time.
    """

    _pos = 0

    def __len__(self) -> int:
        return len(self.ic)

    def _resolve_rows(self, iclass: np.ndarray, lat: np.ndarray,
                      stall: np.ndarray, dep_code: np.ndarray,
                      dep_table: List[tuple], taken: np.ndarray,
                      branch_ctrl: np.ndarray, il1: np.ndarray,
                      dl1: np.ndarray) -> None:
        """The one row builder.

        *iclass*, *lat* and *stall* are integer columns; instruction
        *i*'s dependency tuple is ``dep_table[dep_code[i]]``.  *taken*,
        *il1* and *dl1* are direction/miss flags (*taken* and
        *branch_ctrl* count only on branches, *dl1* only on memory
        operations, as a per-instruction fetch stage reads them).
        *branch_ctrl* holds each branch's ``CTRL_MISPREDICT``,
        ``CTRL_REDIRECT`` or ``CTRL_LIVE`` bit.

        A row is a function of (class, latency, dependencies, control
        byte, stall), so instructions share one tuple per distinct
        combination: the rows cost one list slot per instruction plus
        one tuple per combination, found by one sort.
        """
        is_load = iclass == int(IClass.LOAD)
        is_mem = is_load | (iclass == int(IClass.STORE))
        is_branch = _CLASS_IS_BRANCH[iclass]
        taken = is_branch & taken
        ctrl = np.where(is_branch, branch_ctrl, 0).astype(np.uint8)
        ctrl[taken] |= CTRL_TAKEN
        ctrl[stall > 0] |= CTRL_STALL

        # One integer per combination, mixed-radix; compacted to ranks
        # whenever the next digit could overflow.
        key = np.zeros(len(iclass), dtype=np.int64)
        span = 1
        for column in (iclass, ctrl, stall, lat, dep_code):
            radix = int(column.max(initial=0)) + 1
            if span * radix >= 1 << 62:
                _, key = np.unique(key, return_inverse=True)
                span = int(key.max(initial=0)) + 1
            key *= radix
            key += column
            span *= radix
        combos, first = np.unique(key, return_index=True)
        first_class = iclass[first]
        shared = list(zip(
            lat[first].tolist(),
            _FU_IDX[first_class].tolist(),
            [dep_table[code] for code in dep_code[first].tolist()],
            (first_class == int(IClass.LOAD)).tolist(),
            (first_class == int(IClass.STORE)).tolist(),
            is_mem[first].tolist(),
            ctrl[first].tolist(),
            stall[first].tolist(),
        ))
        del first, first_class
        self.rows: List[tuple] = list(map(
            shared.__getitem__, memoryview(np.searchsorted(combos, key))))
        del shared, combos, key
        self.ic: bytes = iclass.astype(np.uint8).tobytes()

        self.branches = int(np.count_nonzero(is_branch))
        self.taken_branches = int(np.count_nonzero(taken))
        self.mispredictions = int(np.count_nonzero(ctrl & CTRL_MISPREDICT))
        self.redirections = int(np.count_nonzero(ctrl & CTRL_REDIRECT))
        self.act_l2 = (int(np.count_nonzero(il1))
                       + int(np.count_nonzero(is_mem & dl1)))
        self.act_dl1 = int(np.count_nonzero(is_mem))
        # Fetch classifies each branch once and dispatch updates the
        # predictor model once per correct-path branch.
        self.act_bpred = 2 * self.branches

    def classify(self, ctrl: int, index: int) -> int:
        """Fetch-time outcome of live row *index*: *ctrl* with its
        ``CTRL_MISPREDICT`` or ``CTRL_REDIRECT`` bit set."""
        raise NotImplementedError(f"{type(self).__name__} has no live rows")

    def train(self) -> None:
        """Dispatch-time predictor update for the oldest live row
        classified and not yet trained."""
        raise NotImplementedError(f"{type(self).__name__} has no live rows")


def _dependency_codes(instructions, anti: bool, codes: _DepCodes
                      ) -> List[int]:
    """Code (see :class:`_DepCodes`) of every instruction's RAW
    dependency distances, one per source operand in operand order (the
    statistical profiler's definition); with *anti* (no register
    renaming) a write also waits for the previous writer (WAW) and
    readers (WAR) of its destination register."""
    limit = MAX_DEPENDENCY_DISTANCE
    last_writer: dict = {}
    out: List[int] = []
    append = out.append
    if not anti:
        # Fast path: a missing writer reads as infinitely far back, and
        # a lone distance is its own code.
        writer = last_writer.get
        never = -(1 << 62)
        for seq, srcs, dst in zip(map(attrgetter("seq"), instructions),
                                  map(attrgetter("src_regs"), instructions),
                                  map(attrgetter("dst_reg"), instructions)):
            code = 0
            found = None
            for reg in srcs:
                distance = seq - writer(reg, never)
                if 0 < distance <= limit:
                    if not code:
                        code = distance
                    elif found is None:
                        found = [code, distance]
                    else:
                        found.append(distance)
            append(code if found is None else codes.code(tuple(found)))
            if dst is not None:
                last_writer[dst] = seq
        return out
    last_reader: dict = {}
    for inst in instructions:
        found = []
        seq = inst.seq
        for reg in inst.src_regs:
            prior = last_writer.get(reg)
            if prior is not None and 0 < seq - prior <= limit:
                found.append(seq - prior)
            last_reader[reg] = seq
        dst = inst.dst_reg
        if dst is not None:
            for prior in (last_writer.get(dst), last_reader.get(dst)):
                if prior is not None and 0 < seq - prior <= limit:
                    found.append(seq - prior)
            last_writer[dst] = seq
        append(codes.code(tuple(found)))
    return out


class ExecutionDrivenSource(RowSource):
    """Resolves a dynamic trace with live locality structures.

    Once per window it:

    * reads every fetch's and data access's locality event codes from
      the window's :class:`~repro.cache.hierarchy.LocalityWalk` and maps
      them to fetch stalls and (for loads) load latencies through two
      8-entry tables built from the hierarchy's latency rules;
    * computes the RAW dependency distance of every source operand (the
      same definition the statistical profiler uses), plus WAW/WAR
      distances under ``enforce_anti_dependencies``;
    * builds the row columns every source shares.

    Cache events do not depend on pipeline timing: the pipeline fetches
    the real instructions exactly once, in program order (wrong-path
    fillers never touch locality state), so walking the whole window up
    front gives the events a per-fetch access would.  Pass the window's
    *locality* walk when it was computed already; otherwise the source
    walks *hierarchy* (warm or not) over the trace on construction.

    Plus live branches: branch outcomes depend on when the predictor
    was trained, so real branches are ``CTRL_LIVE`` rows.  The fetch
    stage classifies them against the live predictor — a lookup that
    does not train it (a BTB hit does refresh that entry's LRU recency)
    — and the dispatch stage trains it, giving the dispatch-time
    speculative update the paper assumes.  With
    *perfect_branch_prediction* every branch is predicted correctly and
    the predictor is never touched.

    :meth:`fetch`, :meth:`peek_filler` and :meth:`on_dispatch` serve the
    frozen reference pipeline, materializing ``FetchSlot`` objects from
    the same columns.
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
        instructions = self._instructions = trace.instructions
        n = len(instructions)
        if perfect_caches:
            # Every access hits: code 0, no stall, DL1 hit latency.
            self._icodes = self._dcodes = bytes(n)
        else:
            if locality is None:
                # Callers may inject pre-warmed locality structures
                # (e.g. the SimPoint baseline warms them on the
                # instructions preceding a representative interval).
                from repro.frontend.warming import walk_window

                locality = walk_window(trace, config, hierarchy=hierarchy)
            else:
                locality.check(n, config)
            self._icodes, self._dcodes = locality.icodes, locality.dcodes
        stall_table, load_table = event_latency_tables(config)

        iclass = np.fromiter(map(_CLASS_CODE.__getitem__,
                                 map(attrgetter("iclass"), instructions)),
                             dtype=np.uint8, count=n)
        icodes = np.frombuffer(self._icodes, dtype=np.uint8)
        dcodes = np.frombuffer(self._dcodes, dtype=np.uint8)
        is_branch = _CLASS_IS_BRANCH[iclass]
        # Loads see the data hierarchy's latency when they carry an
        # address (always, under perfect caches); every other
        # instruction, and a load without an address, its class's.
        hierarchy_load = iclass == int(IClass.LOAD)
        if not perfect_caches:
            hierarchy_load &= np.fromiter(
                (addr is not None
                 for addr in map(attrgetter("mem_addr"), instructions)),
                dtype=bool, count=n)
        lat = np.where(hierarchy_load,
                       np.asarray(load_table, dtype=np.int32)[dcodes],
                       _BASE_LAT[iclass])
        taken = np.zeros(n, dtype=bool)
        branch_index = np.flatnonzero(is_branch)
        taken[branch_index] = [instructions[i].taken
                               for i in branch_index.tolist()]
        codes = _DepCodes()
        dep_code = np.asarray(
            _dependency_codes(instructions,
                              config.enforce_anti_dependencies, codes),
            dtype=np.int32)
        self._resolve_rows(
            iclass, lat, np.asarray(stall_table, dtype=np.int32)[icodes],
            dep_code, codes.table, taken,
            np.full(n, 0 if perfect_branch_prediction else CTRL_LIVE,
                    dtype=np.uint8),
            (icodes & EVENT_L1) > 0,
            hierarchy_load & ((dcodes & EVENT_L1) > 0))
        # Classified live branches awaiting dispatch, oldest first.
        # Correct-path branches are dispatched in program order and
        # never squashed, so dispatch always trains the oldest.
        self._untrained: deque = deque()

    def classify(self, ctrl: int, index: int) -> int:
        inst = self._instructions[index]
        self._untrained.append(inst)
        outcome = self.predictor.classify(inst)
        if outcome is BranchOutcome.MISPREDICTION:
            self.mispredictions += 1
            return ctrl | CTRL_MISPREDICT
        if outcome is BranchOutcome.FETCH_REDIRECTION:
            self.redirections += 1
            return ctrl | CTRL_REDIRECT
        return ctrl

    def train(self) -> None:
        self.predictor.train(self._untrained.popleft())

    # -- FetchSlot protocol of the frozen reference pipeline ----------

    def fetch(self) -> Optional[FetchSlot]:
        pos = self._pos
        if pos >= len(self.rows):
            return None
        self._pos = pos + 1
        inst = self._instructions[pos]
        row = self.rows[pos]
        il1_miss, l2i_miss, itlb_miss = _EVENT_FLAGS[self._icodes[pos]]
        dl1_miss = l2d_miss = dtlb_miss = False
        if row[3] and (inst.mem_addr is not None or self.perfect_caches):
            dl1_miss, l2d_miss, dtlb_miss = _EVENT_FLAGS[self._dcodes[pos]]
        taken = False
        outcome: Optional[BranchOutcome] = None
        if inst.is_branch:
            taken = inst.taken
            outcome = (BranchOutcome.CORRECT
                       if self.perfect_branch_prediction
                       else self.predictor.classify(inst))
        return FetchSlot(
            iclass=inst.iclass,
            exec_latency=row[0],
            fetch_stall=row[7],
            dep_distances=row[2],
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


class ColumnarSource(RowSource):
    """The synthetic-trace simulator's instruction source.

    Resolves a :class:`repro.core.synthetic.ColumnarTrace` into the
    shared row columns with whole-trace numpy expressions (the
    columnwise equivalent of ``SyntheticTrace.to_fetch_slots``): load
    latency from the deepest missing level plus the D-TLB penalty,
    instruction-side misses as fetch stalls plus the I-TLB penalty,
    branch outcomes as control bits.
    """

    def __init__(self, trace, config: MachineConfig) -> None:
        self.trace = trace
        self.config = config
        iclass = trace.iclass.astype(np.int64)
        n = iclass.size
        memory_latency = config.memory_latency
        l2_latency = config.l2.hit_latency
        lat = np.where(
            iclass == int(IClass.LOAD),
            np.where(trace.l2d, memory_latency,
                     np.where(trace.dl1, l2_latency,
                              config.dl1.hit_latency))
            + trace.dtlb * config.dtlb.miss_latency,
            _BASE_LAT[iclass])
        stall = np.where(trace.l2i, memory_latency,
                         np.where(trace.il1, l2_latency, 0)) \
            + trace.itlb * config.itlb.miss_latency

        # A lone in-range distance is its own code; the rest go through
        # the table.
        dep_off = trace.dep_off
        dep_val = trace.dep_val
        count = np.diff(dep_off)
        dep_code = np.zeros(n, dtype=np.int64)
        lone = np.flatnonzero(count == 1)
        distance = dep_val[dep_off[lone]]
        in_range = (distance > 0) & (distance <= MAX_DEPENDENCY_DISTANCE)
        dep_code[lone[in_range]] = distance[in_range]
        codes = _DepCodes()
        rest = np.flatnonzero((count > 1) | ((count == 1) & (dep_code == 0)))
        if rest.size:
            offsets = dep_off.tolist()
            values = dep_val.tolist()
            dep_code[rest] = [
                codes.code(tuple(values[offsets[i]:offsets[i + 1]]))
                for i in rest.tolist()]

        outcome = trace.outcome
        self._resolve_rows(
            iclass, lat, stall, dep_code, codes.table, trace.taken,
            (outcome == int(BranchOutcome.MISPREDICTION)) * CTRL_MISPREDICT
            + (outcome == int(BranchOutcome.FETCH_REDIRECTION))
            * CTRL_REDIRECT,
            trace.il1, trace.dl1)


#: Row columns :class:`PreannotatedSource` resolves on first use.
_ROW_COLUMNS = frozenset({
    "ic", "rows", "branches", "taken_branches", "mispredictions",
    "redirections", "act_l2", "act_dl1", "act_bpred"})

_CTRL_OF_OUTCOME = {BranchOutcome.MISPREDICTION: CTRL_MISPREDICT,
                    BranchOutcome.FETCH_REDIRECTION: CTRL_REDIRECT}


class PreannotatedSource(RowSource):
    """Pre-resolved fetch slots: hand-built streams and
    ``SyntheticTrace.to_fetch_slots`` output.

    The replay source of the frozen
    :class:`~repro.cpu.reference.ReferencePipeline` (through the
    :class:`InstructionSource` protocol), the equivalence tests and the
    fuzz oracle.  The cycle loop reads the same slots as row columns,
    resolved on first use so the reference replay never pays for them.
    Like :class:`ColumnarSource` it holds no caches and no predictor —
    every outcome was assigned in advance.
    """

    def __init__(self, slots: Sequence[FetchSlot]) -> None:
        self._slots: List[FetchSlot] = list(slots)
        self._pos = 0

    def __len__(self) -> int:
        return len(self._slots)

    def __getattr__(self, name: str):
        if name not in _ROW_COLUMNS:
            raise AttributeError(name)
        slots = self._slots
        n = len(slots)

        def column(attr, dtype=np.int64):
            return np.fromiter(map(int, map(attrgetter(attr), slots)),
                               dtype=dtype, count=n)

        codes = _DepCodes()
        dep_code = np.fromiter(
            (codes.code(tuple(slot.dep_distances)) for slot in slots),
            dtype=np.int64, count=n)
        self._resolve_rows(
            column("iclass"), column("exec_latency"),
            column("fetch_stall"), dep_code, codes.table,
            column("taken", bool),
            np.fromiter((_CTRL_OF_OUTCOME.get(slot.outcome, 0)
                         for slot in slots), dtype=np.int64, count=n),
            column("il1_miss", bool), column("dl1_miss", bool))
        return getattr(self, name)

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
