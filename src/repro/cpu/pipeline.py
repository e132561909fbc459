"""Cycle-based superscalar out-of-order pipeline.

The stage structure follows sim-outorder (the paper's simulator):

* **fetch** — up to ``decode_width * fetch_speed`` instructions per cycle
  into the IFQ; a taken branch ends the fetch group; I-cache misses stall
  the fetch engine; a fetch redirection (BTB miss on a correctly
  predicted taken branch) costs a short front-end bubble; a mispredicted
  branch switches fetch to wrong-path filler instructions until the
  branch resolves (paper section 2.3).
* **dispatch** — up to ``decode_width`` from IFQ into the RUU (and LSQ
  for memory ops); RAW dependencies resolve against the last 512
  dispatched instructions by dependency distance; branch predictors are
  speculatively updated here (dispatch-time update, section 2.1.3).
* **issue/execute** — up to ``issue_width`` data-ready instructions to
  the functional-unit pool each cycle, oldest first.
* **writeback** — completions wake dependents; a resolving mispredicted
  branch squashes all younger instructions and redirects fetch after the
  misprediction penalty.
* **commit** — up to ``commit_width`` completed instructions in order
  from the RUU head.

Per-cycle occupancies and per-unit activity counts feed the power model.

This is the event-driven implementation (see ``docs/performance.md``):
after any cycle in which no stage did work, the clock fast-forwards to
the next scheduled event (earliest functional-unit completion, fetch
unblock, or IFQ-head decode readiness) and the skipped idle cycles are
accounted analytically.  ``_Inflight`` records are pooled, and the RUU
and IFQ are index-based ring buffers instead of deques.  The results
are cycle-for-cycle identical to the strictly iterative loop preserved
in :mod:`repro.cpu.reference`, which
``tests/test_pipeline_equivalence.py`` enforces exactly.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Dict, List, Optional

from repro.config import MachineConfig
from repro.errors import SimulationError
from repro.obs.metrics import record_simulation
from repro.isa.iclass import FunctionalUnit
from repro.branch.unit import BranchOutcome
from repro.cpu.results import SimulationResult
from repro.cpu.source import ColumnarSource, FetchSlot, InstructionSource

from repro.health.budget import checkpoint as _health_checkpoint

#: Dependency-resolution window (matches the profile's distance cap).
_HISTORY = 512

#: Cycles between cooperative health checkpoints (deadline check,
#: progress heartbeat, RSS guardrail — :mod:`repro.health`).  The
#: checkpoint consumes no randomness and touches no machine state, so
#: the simulated results are bit-identical with or without a budget;
#: the in-loop cost is one integer comparison per cycle.
_HEALTH_EVERY = 4096


class _Inflight:
    """Book-keeping for one instruction in the pipeline.

    Instances are pooled: a record is recycled once nothing can
    reference it again — at commit (after its history slot, waiter list
    and store-forwarding pointer are cleared) or when the IFQ is
    squashed before the instruction ever dispatched.  Squashed RUU
    instructions are *not* recycled; they may still sit in the ready
    heap or a completion bucket, where the ``squashed`` flag keeps them
    inert.
    """

    # ``row`` is only populated (and only read) by the columnar fast
    # path, which carries the instruction's immutable data — latency,
    # FU index, dependency tuple, load/store/mem flags, control byte —
    # as one prebuilt tuple instead of a FetchSlot.
    __slots__ = ("slot", "pseq", "pending", "waiters", "completed",
                 "squashed", "recover", "wrong_path", "is_mem",
                 "decode_ready", "issued", "hist_slot", "row")

    def __init__(self, slot: FetchSlot, pseq: int, wrong_path: bool) -> None:
        self.slot = slot
        self.pseq = pseq
        self.decode_ready = 0
        self.issued = False
        self.pending = 0
        self.waiters: List["_Inflight"] = []
        self.completed = False
        self.squashed = False
        self.recover = False
        self.wrong_path = wrong_path
        self.is_mem = slot.is_mem
        self.hist_slot = -1


class SuperscalarPipeline:
    """One configured out-of-order core; call :meth:`run` once."""

    def __init__(self, config: MachineConfig,
                 source: InstructionSource) -> None:
        # MachineConfig validates its own widths/sizes; these are the
        # derived and unvalidated knobs a livelocked pipeline would
        # otherwise only reveal as an infinite loop.
        for knob in ("fetch_width", "ifq_size", "decode_width",
                     "issue_width", "commit_width", "ruu_size"):
            value = getattr(config, knob)
            if value < 1:
                raise SimulationError(
                    f"machine config {knob} must be >= 1, got {value!r}; "
                    f"the pipeline cannot make progress")
        self.config = config
        self.source = source

    def run(self, max_cycles: Optional[int] = None,
            commit_log: Optional[list] = None) -> SimulationResult:
        """Simulate until the source drains; return the result.

        When *commit_log* is a list, every retired instruction appends
        ``(cycle, pseq)`` to it in retirement order — the differential
        fuzzing oracle (:mod:`repro.fuzz.oracle`) diffs this schedule
        against the reference pipeline's.  ``None`` (the default) keeps
        the commit stage allocation-free.
        """
        config = self.config
        source = self.source
        if isinstance(source, ColumnarSource) and not config.in_order_issue:
            # Synthetic traces: same machine, no per-instruction
            # objects (see _run_columnar).  In-order issue walks the
            # RUU through slot objects, so it stays on the generic
            # loop via the source's protocol methods.
            return self._run_columnar(max_cycles, commit_log)
        fetch_width = config.fetch_width
        decode_width = config.decode_width
        issue_width = config.issue_width
        commit_width = config.commit_width
        ifq_size = config.ifq_size
        ruu_size = config.ruu_size
        lsq_size = config.lsq_size
        mispredict_penalty = config.branch_misprediction_penalty
        redirect_penalty = config.fetch_redirect_penalty
        frontend_depth = config.frontend_depth
        in_order = config.in_order_issue
        conservative_loads = config.conservative_loads
        source_fetch = source.fetch
        source_peek_filler = source.peek_filler
        source_on_dispatch = source.on_dispatch
        heap_push = heappush
        heap_pop = heappop
        last_store: Optional[_Inflight] = None
        # FU pools indexed by FunctionalUnit value (an IntEnum); the
        # FetchSlot precomputes ``fu_index`` so the issue stage indexes
        # plain lists instead of hashing enum keys.
        fu_caps: List[int] = [0] * len(FunctionalUnit)
        fu_caps[FunctionalUnit.INT_ALU] = config.int_alus
        fu_caps[FunctionalUnit.LOAD_STORE] = config.load_store_units
        fu_caps[FunctionalUnit.FP_ADDER] = config.fp_adders
        fu_caps[FunctionalUnit.INT_MULT_DIV] = config.int_mult_divs
        fu_caps[FunctionalUnit.FP_MULT_DIV] = config.fp_mult_divs
        fu_counts: List[int] = [0] * len(FunctionalUnit)

        # Index-based ring buffers: the RUU and IFQ have hard capacity
        # bounds, so a fixed list with head/count cursors replaces the
        # deque (no per-cycle allocation, O(1) everything).
        ruu_buf: List[Optional[_Inflight]] = [None] * ruu_size
        ruu_head = 0
        ruu_count = 0
        ifq_buf: List[Optional[_Inflight]] = [None] * ifq_size
        ifq_head = 0
        ifq_count = 0

        # Ready queue, split by arrival order.  Instructions that are
        # data-ready at dispatch arrive in strictly increasing pseq
        # (dispatch drains the in-order IFQ and pseq never rewinds), so
        # a plain FIFO list holds them with no heap discipline at all.
        # Only writeback wakeups (arbitrary order) and FU-contention
        # deferrals go through a real heap; issue pops the global
        # pseq-minimum across both, which preserves oldest-first issue
        # exactly.
        rq_fifo: List[_Inflight] = []
        rq_head = 0
        rq_heap: list = []  # heap of (pseq, _Inflight)
        completing: Dict[int, List[_Inflight]] = {}
        event_times: list = []  # heap of completion cycles (one per key)
        history: List[Optional[_Inflight]] = [None] * _HISTORY
        hist_pos = 0
        dispatch_count = 0
        lsq_count = 0
        free: List[_Inflight] = []  # recycled _Inflight records
        free_pop = free.pop
        free_append = free.append

        cycle = 0
        next_health = _HEALTH_EVERY
        fetch_block_until = 0
        episode: Optional[_Inflight] = None  # unresolved mispredicted branch
        filler_offset = 0
        exhausted = False
        pseq_counter = 0
        committed = 0

        # Accounting
        ruu_occupancy_sum = 0
        lsq_occupancy_sum = 0
        ifq_occupancy_sum = 0
        squashed_total = 0
        branches = taken_branches = redirections = mispredictions = 0
        act_fetch = act_dispatch = act_issue = act_commit = 0
        act_bpred = act_il1 = act_dl1 = act_l2 = 0

        if max_cycles is None:
            source_len = len(source) if hasattr(source, "__len__") else 0
            max_cycles = 1000 * max(source_len, 1) + 100_000

        while True:
            # ---------------------------------------------------- commit
            retired = 0
            while ruu_count and retired < commit_width:
                head = ruu_buf[ruu_head]
                if not head.completed:
                    break
                # The vacated slot is not cleared: ring entries beyond
                # ``count`` are never read, only overwritten.
                ruu_head += 1
                if ruu_head == ruu_size:
                    ruu_head = 0
                ruu_count -= 1
                if head.is_mem:
                    lsq_count -= 1
                retired += 1
                if commit_log is not None:
                    commit_log.append((cycle, head.pseq))
                # Recycle: a committed record is inert everywhere it
                # may still appear (completed=True short-circuits the
                # dependency paths), so clearing those references and
                # pooling it is behaviour-preserving.  hist_slot is
                # always valid here: commit implies dispatch, which
                # assigned it.
                slot_index = head.hist_slot
                if history[slot_index] is head:
                    history[slot_index] = None
                if head.waiters:
                    head.waiters.clear()
                if last_store is head:
                    last_store = None
                free_append(head)
            act_commit += retired
            committed += retired

            # ------------------------------------------------- writeback
            # ``event_times`` and ``completing`` move in lockstep: a
            # cycle is pushed exactly when its bucket is created and
            # popped exactly when it is drained, so the heap top tells
            # whether anything completes this cycle without touching
            # the dict.
            if event_times and event_times[0] == cycle:
                heap_pop(event_times)
                done = completing.pop(cycle)
                for inst in done:
                    if inst.squashed:
                        continue
                    inst.completed = True
                    waiters = inst.waiters
                    if waiters:
                        for waiter in waiters:
                            if waiter.squashed:
                                continue
                            waiter.pending -= 1
                            if waiter.pending == 0:
                                heap_push(rq_heap, (waiter.pseq, waiter))
                    if inst.recover:
                        # Mispredicted branch resolves: squash younger.
                        pseq_limit = inst.pseq
                        while ruu_count:
                            tail = ruu_head + ruu_count - 1
                            if tail >= ruu_size:
                                tail -= ruu_size
                            victim = ruu_buf[tail]
                            if victim.pseq <= pseq_limit:
                                break
                            ruu_buf[tail] = None
                            ruu_count -= 1
                            victim.squashed = True
                            if victim.is_mem:
                                lsq_count -= 1
                            squashed_total += 1
                        squashed_total += ifq_count
                        index = ifq_head
                        for _ in range(ifq_count):
                            junk = ifq_buf[index]
                            ifq_buf[index] = None
                            index += 1
                            if index == ifq_size:
                                index = 0
                            # Never dispatched: nothing references it.
                            free_append(junk)
                        ifq_head = 0
                        ifq_count = 0
                        episode = None
                        filler_offset = 0
                        if cycle + mispredict_penalty > fetch_block_until:
                            fetch_block_until = cycle + mispredict_penalty
                worked = True
            else:
                worked = retired > 0

            # ----------------------------------------------------- issue
            if in_order:
                # In-order issue: instructions leave for the functional
                # units strictly in program order; the first stalled
                # instruction blocks all younger ones.
                issued = 0
                fu_free = fu_caps[:]
                index = ruu_head
                for _ in range(ruu_count):
                    inst = ruu_buf[index]
                    index += 1
                    if index == ruu_size:
                        index = 0
                    if issued >= issue_width:
                        break
                    if inst.issued:
                        continue
                    slot = inst.slot
                    fi = slot.fu_index
                    if inst.pending > 0 or fu_free[fi] <= 0:
                        break
                    fu_free[fi] -= 1
                    inst.issued = True
                    issued += 1
                    fu_counts[fi] += 1
                    finish = cycle + slot.exec_latency
                    bucket = completing.get(finish)
                    if bucket is None:
                        completing[finish] = [inst]
                        heap_push(event_times, finish)
                    else:
                        bucket.append(inst)
                act_issue += issued
                if issued:
                    worked = True
            elif rq_heap or rq_head < len(rq_fifo):
                fu_free = fu_caps[:]
                issued = 0
                deferred = []
                n_deferred = 0
                rq_tail = len(rq_fifo)
                while issued < issue_width and n_deferred < 64:
                    # Pop the lowest pseq across the FIFO and the heap.
                    if rq_head < rq_tail:
                        inst = rq_fifo[rq_head]
                        if rq_heap and rq_heap[0][0] < inst.pseq:
                            inst = heap_pop(rq_heap)[1]
                        else:
                            rq_head += 1
                    elif rq_heap:
                        inst = heap_pop(rq_heap)[1]
                    else:
                        break
                    if inst.squashed:
                        continue
                    slot = inst.slot
                    fi = slot.fu_index
                    if fu_free[fi] > 0:
                        fu_free[fi] -= 1
                        inst.issued = True
                        issued += 1
                        fu_counts[fi] += 1
                        finish = cycle + slot.exec_latency
                        bucket = completing.get(finish)
                        if bucket is None:
                            completing[finish] = [inst]
                            heap_push(event_times, finish)
                        else:
                            bucket.append(inst)
                    else:
                        deferred.append((inst.pseq, inst))
                        n_deferred += 1
                # Deferred instructions re-enter via the heap after the
                # scan (never mid-scan: each blocked instruction must be
                # passed over exactly once per cycle, as the reference
                # loop does).
                for item in deferred:
                    heap_push(rq_heap, item)
                if rq_head == rq_tail and rq_head:
                    del rq_fifo[:rq_head]
                    rq_head = 0
                act_issue += issued
                if issued:
                    worked = True

            # -------------------------------------------------- dispatch
            dispatched = 0
            while (ifq_count and dispatched < decode_width
                   and ruu_count < ruu_size):
                inst = ifq_buf[ifq_head]
                if inst.decode_ready > cycle:
                    break  # still in the decode/rename front-end stages
                if inst.is_mem and lsq_count >= lsq_size:
                    break
                ifq_head += 1
                if ifq_head == ifq_size:
                    ifq_head = 0
                ifq_count -= 1
                tail = ruu_head + ruu_count
                if tail >= ruu_size:
                    tail -= ruu_size
                ruu_buf[tail] = inst
                ruu_count += 1
                if inst.is_mem:
                    lsq_count += 1
                slot = inst.slot
                if slot.is_branch and not inst.wrong_path:
                    source_on_dispatch(slot)
                    act_bpred += 1
                # Resolve RAW dependencies against dispatch history.
                distances = slot.dep_distances
                if distances:
                    for distance in distances:
                        if distance > dispatch_count or distance > _HISTORY:
                            continue
                        index = hist_pos - distance
                        if index < 0:
                            index += _HISTORY
                        producer = history[index]
                        if (producer is None or producer.completed
                                or producer.squashed):
                            continue
                        inst.pending += 1
                        producer.waiters.append(inst)
                if conservative_loads:
                    if (slot.is_load and last_store is not None
                            and not last_store.completed
                            and not last_store.squashed):
                        inst.pending += 1
                        last_store.waiters.append(inst)
                    if slot.is_store:
                        last_store = inst
                history[hist_pos] = inst
                inst.hist_slot = hist_pos
                hist_pos += 1
                if hist_pos == _HISTORY:
                    hist_pos = 0
                dispatch_count += 1
                dispatched += 1
                if inst.pending == 0:
                    rq_fifo.append(inst)
            act_dispatch += dispatched
            if dispatched:
                worked = True

            # ----------------------------------------------------- fetch
            if cycle >= fetch_block_until:
                fetched = 0
                decode_ready = cycle + frontend_depth
                while fetched < fetch_width and ifq_count < ifq_size:
                    if episode is not None:
                        slot = source_peek_filler(filler_offset)
                        if slot is None:
                            break
                        filler_offset += 1
                        wrong_path = True
                    elif exhausted:
                        break
                    else:
                        slot = source_fetch()
                        if slot is None:
                            exhausted = True
                            break
                        wrong_path = False
                    if free:
                        # Pooled records need no pending/squashed/
                        # hist_slot reset: pending is always 0 by the
                        # time a record is recyclable, only RUU-squashed
                        # records (never recycled) carry squashed=True,
                        # and hist_slot is only read at commit, which
                        # dispatch always re-assigns first.
                        inst = free_pop()
                        inst.slot = slot
                        inst.pseq = pseq_counter
                        inst.decode_ready = decode_ready
                        inst.issued = False
                        inst.completed = False
                        inst.recover = False
                        inst.wrong_path = wrong_path
                        inst.is_mem = slot.is_mem
                    else:
                        inst = _Inflight(slot, pseq_counter, wrong_path)
                        inst.decode_ready = decode_ready
                    pseq_counter += 1
                    tail = ifq_head + ifq_count
                    if tail >= ifq_size:
                        tail -= ifq_size
                    ifq_buf[tail] = inst
                    ifq_count += 1
                    fetched += 1
                    if wrong_path:
                        # Fillers are inert by construction (see
                        # _filler_slot): no locality events, no branch
                        # outcome, no fetch stall — they only occupy
                        # fetch/window/FU resources and D-cache ports.
                        if inst.is_mem:
                            act_dl1 += 1
                        continue
                    act_l2 += slot.il1_miss
                    if inst.is_mem:
                        act_dl1 += 1
                        act_l2 += slot.dl1_miss
                    if slot.is_branch:
                        act_bpred += 1
                        branches += 1
                        outcome = slot.outcome
                        if slot.taken:
                            taken_branches += 1
                        if outcome is BranchOutcome.MISPREDICTION:
                            mispredictions += 1
                            inst.recover = True
                            episode = inst
                            filler_offset = 0
                        elif outcome is BranchOutcome.FETCH_REDIRECTION:
                            redirections += 1
                            fetch_block_until = cycle + 1 + redirect_penalty
                            break
                        if slot.taken:
                            break
                    if slot.fetch_stall:
                        fetch_block_until = cycle + 1 + slot.fetch_stall
                        break
                act_fetch += fetched
                act_il1 += fetched
                if fetched:
                    worked = True

            # ------------------------------------------------ accounting
            ruu_occupancy_sum += ruu_count
            lsq_occupancy_sum += lsq_count
            ifq_occupancy_sum += ifq_count
            cycle += 1
            if cycle >= next_health:
                next_health = cycle + _HEALTH_EVERY
                _health_checkpoint(committed)

            if exhausted and not ifq_count and not ruu_count:
                break
            if cycle >= max_cycles:
                raise RuntimeError(
                    f"pipeline did not drain within {max_cycles} cycles "
                    f"({committed} committed)"
                )

            if not worked:
                # Event-driven fast-forward: a cycle in which every
                # stage was a no-op leaves the machine state untouched,
                # so nothing can change before the next scheduled event
                # — the earliest completion, the fetch unblock, or the
                # IFQ head leaving the decode front-end.  Skip straight
                # there and account the idle cycles analytically.
                # A candidate equal to ``cycle`` means the event is due
                # right now (it expired with the clock increment): the
                # skip clamps to zero and the loop proceeds normally.
                # Candidates in the past are stale, not constraints.
                target = max_cycles
                if event_times and event_times[0] < target:
                    target = event_times[0]
                if cycle <= fetch_block_until < target:
                    target = fetch_block_until
                if ifq_count:
                    head_ready = ifq_buf[ifq_head].decode_ready
                    if cycle <= head_ready < target:
                        target = head_ready
                skip = target - cycle
                if skip > 0:
                    ruu_occupancy_sum += ruu_count * skip
                    lsq_occupancy_sum += lsq_count * skip
                    ifq_occupancy_sum += ifq_count * skip
                    cycle = target
                    if cycle >= max_cycles:
                        raise RuntimeError(
                            f"pipeline did not drain within {max_cycles} "
                            f"cycles ({committed} committed)"
                        )

        activity = {
            "fetch": act_fetch, "dispatch": act_dispatch,
            "issue": act_issue, "commit": act_commit,
            "bpred": act_bpred, "il1": act_il1, "dl1": act_dl1,
            "l2": act_l2,
            "int_alu": fu_counts[FunctionalUnit.INT_ALU],
            "load_store": fu_counts[FunctionalUnit.LOAD_STORE],
            "fp_adder": fu_counts[FunctionalUnit.FP_ADDER],
            "int_mult_div": fu_counts[FunctionalUnit.INT_MULT_DIV],
            "fp_mult_div": fu_counts[FunctionalUnit.FP_MULT_DIV],
        }
        result = SimulationResult(
            cycles=cycle,
            instructions=committed,
            avg_ruu_occupancy=ruu_occupancy_sum / cycle if cycle else 0.0,
            avg_lsq_occupancy=lsq_occupancy_sum / cycle if cycle else 0.0,
            avg_ifq_occupancy=ifq_occupancy_sum / cycle if cycle else 0.0,
            activity=activity,
            branches=branches,
            taken_branches=taken_branches,
            fetch_redirections=redirections,
            branch_mispredictions=mispredictions,
            squashed_instructions=squashed_total,
        )
        record_simulation(result)
        return result


    def _run_columnar(self, max_cycles: Optional[int] = None,
                      commit_log: Optional[list] = None) -> SimulationResult:
        """The columnar twin of :meth:`run`: the loop every synthetic
        trace runs on.

        Same machine, same stage order, cycle-for-cycle identical
        results (``tests/test_pipeline_equivalence.py`` pins this
        against the frozen reference on every machine variant, and the
        fuzzer on each case's machine shape) — but fed from a
        :class:`ColumnarSource`'s parallel columns: per-instruction
        latency, functional unit, dependency tuple and a packed
        branch/stall control byte land directly on the pooled
        ``_Inflight`` records, so no ``FetchSlot`` or
        ``SyntheticInstruction`` ever exists on this path.  Branch and
        locality tallies that the generic fetch stage accumulates per
        instruction come precomputed from the source (they are column
        sums; only wrong-path filler D-cache accesses remain
        timing-dependent and are counted here).
        """
        from repro.cpu.source import (CTRL_MISPREDICT, CTRL_REDIRECT,
                                      CTRL_STALL, CTRL_TAKEN)
        config = self.config
        source: ColumnarSource = self.source
        fetch_width = config.fetch_width
        decode_width = config.decode_width
        issue_width = config.issue_width
        commit_width = config.commit_width
        ifq_size = config.ifq_size
        ruu_size = config.ruu_size
        lsq_size = config.lsq_size
        mispredict_penalty = config.branch_misprediction_penalty
        redirect_penalty = config.fetch_redirect_penalty
        frontend_depth = config.frontend_depth
        conservative_loads = config.conservative_loads
        heap_push = heappush
        heap_pop = heappop
        last_store: Optional[_Inflight] = None
        fu_caps: List[int] = [0] * len(FunctionalUnit)
        fu_caps[FunctionalUnit.INT_ALU] = config.int_alus
        fu_caps[FunctionalUnit.LOAD_STORE] = config.load_store_units
        fu_caps[FunctionalUnit.FP_ADDER] = config.fp_adders
        fu_caps[FunctionalUnit.INT_MULT_DIV] = config.int_mult_divs
        fu_caps[FunctionalUnit.FP_MULT_DIV] = config.fp_mult_divs
        fu_counts: List[int] = [0] * len(FunctionalUnit)

        # The source's per-instruction columns (plain lists / tuples);
        # _FILLER_ROWS supplies wrong-path instructions (class base
        # latency, no dependencies — like _filler_slot).
        from repro.cpu.source import _FILLER_ROWS
        ic_col = source.ic
        stall_col = source.stall
        rows = source.rows
        n = len(ic_col)
        pos = source._pos
        filler_rows = _FILLER_ROWS

        ruu_buf: List[Optional[_Inflight]] = [None] * ruu_size
        ruu_head = 0
        ruu_count = 0
        ifq_buf: List[Optional[_Inflight]] = [None] * ifq_size
        ifq_head = 0
        ifq_count = 0
        rq_fifo: List[_Inflight] = []
        rq_head = 0
        rq_heap: list = []
        completing: Dict[int, List[_Inflight]] = {}
        event_times: list = []
        history: List[Optional[_Inflight]] = [None] * _HISTORY
        hist_pos = 0
        dispatch_count = 0
        lsq_count = 0
        free: List[_Inflight] = []
        free_pop = free.pop
        free_append = free.append
        inflight_new = _Inflight.__new__

        cycle = 0
        next_health = _HEALTH_EVERY
        fetch_block_until = 0
        episode: Optional[_Inflight] = None
        filler_offset = 0
        exhausted = False
        pseq_counter = 0
        committed = 0

        ruu_occupancy_sum = 0
        lsq_occupancy_sum = 0
        ifq_occupancy_sum = 0
        squashed_total = 0
        act_fetch = act_dispatch = act_issue = 0
        act_dl1_filler = 0

        if max_cycles is None:
            max_cycles = 1000 * max(n, 1) + 100_000

        while True:
            # ---------------------------------------------------- commit
            retired = 0
            while ruu_count and retired < commit_width:
                head = ruu_buf[ruu_head]
                if not head.completed:
                    break
                ruu_head += 1
                if ruu_head == ruu_size:
                    ruu_head = 0
                ruu_count -= 1
                if head.is_mem:
                    lsq_count -= 1
                retired += 1
                if commit_log is not None:
                    commit_log.append((cycle, head.pseq))
                slot_index = head.hist_slot
                if history[slot_index] is head:
                    history[slot_index] = None
                if head.waiters:
                    head.waiters.clear()
                if last_store is head:
                    last_store = None
                free_append(head)
            committed += retired

            # ------------------------------------------------- writeback
            if event_times and event_times[0] == cycle:
                heap_pop(event_times)
                done = completing.pop(cycle)
                for inst in done:
                    if inst.squashed:
                        continue
                    inst.completed = True
                    waiters = inst.waiters
                    if waiters:
                        for waiter in waiters:
                            if waiter.squashed:
                                continue
                            waiter.pending -= 1
                            if waiter.pending == 0:
                                heap_push(rq_heap, (waiter.pseq, waiter))
                    if inst.recover:
                        pseq_limit = inst.pseq
                        while ruu_count:
                            tail = ruu_head + ruu_count - 1
                            if tail >= ruu_size:
                                tail -= ruu_size
                            victim = ruu_buf[tail]
                            if victim.pseq <= pseq_limit:
                                break
                            ruu_buf[tail] = None
                            ruu_count -= 1
                            victim.squashed = True
                            if victim.is_mem:
                                lsq_count -= 1
                            squashed_total += 1
                        squashed_total += ifq_count
                        index = ifq_head
                        for _ in range(ifq_count):
                            junk = ifq_buf[index]
                            ifq_buf[index] = None
                            index += 1
                            if index == ifq_size:
                                index = 0
                            free_append(junk)
                        ifq_head = 0
                        ifq_count = 0
                        episode = None
                        filler_offset = 0
                        if cycle + mispredict_penalty > fetch_block_until:
                            fetch_block_until = cycle + mispredict_penalty
                worked = True
            else:
                worked = retired > 0

            # ----------------------------------------------------- issue
            if rq_heap or rq_head < len(rq_fifo):
                fu_free = fu_caps[:]
                issued = 0
                deferred = []
                n_deferred = 0
                rq_tail = len(rq_fifo)
                while issued < issue_width and n_deferred < 64:
                    if rq_head < rq_tail:
                        inst = rq_fifo[rq_head]
                        if rq_heap and rq_heap[0][0] < inst.pseq:
                            inst = heap_pop(rq_heap)[1]
                        else:
                            rq_head += 1
                    elif rq_heap:
                        inst = heap_pop(rq_heap)[1]
                    else:
                        break
                    if inst.squashed:
                        continue
                    row = inst.row
                    fi = row[1]
                    if fu_free[fi] > 0:
                        fu_free[fi] -= 1
                        issued += 1
                        fu_counts[fi] += 1
                        finish = cycle + row[0]
                        bucket = completing.get(finish)
                        if bucket is None:
                            completing[finish] = [inst]
                            heap_push(event_times, finish)
                        else:
                            bucket.append(inst)
                    else:
                        deferred.append((inst.pseq, inst))
                        n_deferred += 1
                for item in deferred:
                    heap_push(rq_heap, item)
                if rq_head == rq_tail and rq_head:
                    del rq_fifo[:rq_head]
                    rq_head = 0
                act_issue += issued
                if issued:
                    worked = True

            # -------------------------------------------------- dispatch
            dispatched = 0
            while (ifq_count and dispatched < decode_width
                   and ruu_count < ruu_size):
                inst = ifq_buf[ifq_head]
                if inst.decode_ready > cycle:
                    break
                if inst.is_mem and lsq_count >= lsq_size:
                    break
                ifq_head += 1
                if ifq_head == ifq_size:
                    ifq_head = 0
                ifq_count -= 1
                tail = ruu_head + ruu_count
                if tail >= ruu_size:
                    tail -= ruu_size
                ruu_buf[tail] = inst
                ruu_count += 1
                if inst.is_mem:
                    lsq_count += 1
                row = inst.row
                distances = row[2]
                if distances:
                    for distance in distances:
                        if distance > dispatch_count or distance > _HISTORY:
                            continue
                        index = hist_pos - distance
                        if index < 0:
                            index += _HISTORY
                        producer = history[index]
                        if (producer is None or producer.completed
                                or producer.squashed):
                            continue
                        inst.pending += 1
                        producer.waiters.append(inst)
                if conservative_loads:
                    if (row[3] and last_store is not None
                            and not last_store.completed
                            and not last_store.squashed):
                        inst.pending += 1
                        last_store.waiters.append(inst)
                    if row[4]:
                        last_store = inst
                history[hist_pos] = inst
                inst.hist_slot = hist_pos
                hist_pos += 1
                if hist_pos == _HISTORY:
                    hist_pos = 0
                dispatch_count += 1
                dispatched += 1
                if inst.pending == 0:
                    rq_fifo.append(inst)
            act_dispatch += dispatched
            if dispatched:
                worked = True

            # ----------------------------------------------------- fetch
            if cycle >= fetch_block_until:
                fetched = 0
                decode_ready = cycle + frontend_depth
                while fetched < fetch_width and ifq_count < ifq_size:
                    if episode is not None:
                        row = filler_rows[ic_col[(pos + filler_offset)
                                                 % n]]
                        filler_offset += 1
                        wrong_path = True
                        idx = -1
                    elif exhausted:
                        break
                    else:
                        if pos >= n:
                            exhausted = True
                            break
                        idx = pos
                        pos += 1
                        row = rows[idx]
                        wrong_path = False
                    if free:
                        inst = free_pop()
                    else:
                        inst = inflight_new(_Inflight)
                        inst.waiters = []
                        inst.pending = 0
                        inst.squashed = False
                        inst.hist_slot = -1
                    # Unlike the generic loop, wrong_path is not
                    # stored: the columnar dispatch stage never reads
                    # it (branch tallies are precomputed).
                    inst.pseq = pseq_counter
                    inst.decode_ready = decode_ready
                    inst.completed = False
                    inst.recover = False
                    inst.row = row
                    is_mem = row[5]
                    inst.is_mem = is_mem
                    pseq_counter += 1
                    tail = ifq_head + ifq_count
                    if tail >= ifq_size:
                        tail -= ifq_size
                    ifq_buf[tail] = inst
                    ifq_count += 1
                    fetched += 1
                    if wrong_path:
                        if is_mem:
                            act_dl1_filler += 1
                        continue
                    ctrl = row[6]
                    if ctrl:
                        # Packed branch/stall control byte; the bit
                        # priority reproduces the generic loop's exact
                        # break order (a correctly predicted taken
                        # branch ends the group before any I-miss
                        # stall is considered).
                        if ctrl & CTRL_MISPREDICT:
                            inst.recover = True
                            episode = inst
                            filler_offset = 0
                            if ctrl & CTRL_TAKEN:
                                break
                            if ctrl & CTRL_STALL:
                                fetch_block_until = \
                                    cycle + 1 + stall_col[idx]
                                break
                        elif ctrl & CTRL_REDIRECT:
                            fetch_block_until = \
                                cycle + 1 + redirect_penalty
                            break
                        elif ctrl & CTRL_TAKEN:
                            break
                        elif ctrl & CTRL_STALL:
                            fetch_block_until = cycle + 1 + stall_col[idx]
                            break
                act_fetch += fetched
                if fetched:
                    worked = True

            # ------------------------------------------------ accounting
            ruu_occupancy_sum += ruu_count
            lsq_occupancy_sum += lsq_count
            ifq_occupancy_sum += ifq_count
            cycle += 1
            if cycle >= next_health:
                next_health = cycle + _HEALTH_EVERY
                _health_checkpoint(committed)

            if exhausted and not ifq_count and not ruu_count:
                break
            if cycle >= max_cycles:
                source._pos = pos
                raise RuntimeError(
                    f"pipeline did not drain within {max_cycles} cycles "
                    f"({committed} committed)"
                )

            if not worked:
                target = max_cycles
                if event_times and event_times[0] < target:
                    target = event_times[0]
                if cycle <= fetch_block_until < target:
                    target = fetch_block_until
                if ifq_count:
                    head_ready = ifq_buf[ifq_head].decode_ready
                    if cycle <= head_ready < target:
                        target = head_ready
                skip = target - cycle
                if skip > 0:
                    ruu_occupancy_sum += ruu_count * skip
                    lsq_occupancy_sum += lsq_count * skip
                    ifq_occupancy_sum += ifq_count * skip
                    cycle = target
                    if cycle >= max_cycles:
                        source._pos = pos
                        raise RuntimeError(
                            f"pipeline did not drain within {max_cycles} "
                            f"cycles ({committed} committed)"
                        )

        source._pos = pos
        activity = {
            "fetch": act_fetch, "dispatch": act_dispatch,
            "issue": act_issue, "commit": committed,
            "bpred": source.act_bpred, "il1": act_fetch,
            "dl1": source.act_dl1 + act_dl1_filler,
            "l2": source.act_l2,
            "int_alu": fu_counts[FunctionalUnit.INT_ALU],
            "load_store": fu_counts[FunctionalUnit.LOAD_STORE],
            "fp_adder": fu_counts[FunctionalUnit.FP_ADDER],
            "int_mult_div": fu_counts[FunctionalUnit.INT_MULT_DIV],
            "fp_mult_div": fu_counts[FunctionalUnit.FP_MULT_DIV],
        }
        result = SimulationResult(
            cycles=cycle,
            instructions=committed,
            avg_ruu_occupancy=ruu_occupancy_sum / cycle if cycle else 0.0,
            avg_lsq_occupancy=lsq_occupancy_sum / cycle if cycle else 0.0,
            avg_ifq_occupancy=ifq_occupancy_sum / cycle if cycle else 0.0,
            activity=activity,
            branches=source.branches,
            taken_branches=source.taken_branches,
            fetch_redirections=source.redirections,
            branch_mispredictions=source.mispredictions,
            squashed_instructions=squashed_total,
        )
        record_simulation(result)
        return result


def simulate(config: MachineConfig,
             source: InstructionSource,
             max_cycles: Optional[int] = None) -> SimulationResult:
    """Convenience wrapper: build and run a pipeline."""
    return SuperscalarPipeline(config, source).run(max_cycles=max_cycles)
