"""Frozen pre-overhaul implementations of the three hot phases.

These are the profiler and synthesis generator exactly as they were
before the hot-path performance overhaul (per-draw ``bisect_right``
over freshly built cumulative lists, per-restart cumulative rebuilds,
dict-backed distance histograms), kept runnable so ``repro bench`` can
measure the "before" side of every speedup in-process, on the same
machine and Python, against the same inputs.  The frozen pipeline loop
lives in :mod:`repro.cpu.reference` (it doubles as the equivalence
oracle) and is re-exported here for symmetry.

Do not optimize this module; its value is that it stays slow and
faithful to the original code.  Behaviour contracts (draw order, trace
layout) are pinned by ``tests/test_determinism_golden.py`` comparing
the optimized modules against goldens generated with this code.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from itertools import accumulate
from typing import Dict, List, Optional

from repro.config import MachineConfig
from repro.errors import SynthesisError
from repro.frontend.trace import Trace
from repro.isa.iclass import BRANCH_CLASSES, IClass
from repro.branch.unit import BranchOutcome, BranchPredictorUnit
from repro.cache.hierarchy import CacheHierarchy
from repro.core.profiler import (
    BRANCH_MODES,
    StatisticalProfile,
    _branch_records,
)
from repro.core.reduction import ReducedFlowGraph, reduce_flow_graph
from repro.core.sfg import (
    MAX_DEPENDENCY_DISTANCE,
    START_BLOCK,
    Context,
    ContextStats,
    StatisticalFlowGraph,
)
from repro.core.synthesis import MAX_DEPENDENCY_RETRIES
from repro.core.synthetic import SyntheticInstruction, SyntheticTrace
from repro.cpu.reference import ReferencePipeline, simulate_reference
from repro.errors import ProfileError

__all__ = [
    "ReferencePipeline",
    "legacy_generate_synthetic_trace",
    "legacy_profile_trace",
    "simulate_reference",
]


class _OperandSampler:
    """Cumulative-distribution sampler for one operand's distances."""

    __slots__ = ("p_dep", "distances", "cumulative", "total")

    def __init__(self, histogram: Dict[int, int], occurrences: int) -> None:
        self.distances = sorted(histogram)
        weights = [histogram[d] for d in self.distances]
        self.cumulative = list(accumulate(weights))
        self.total = self.cumulative[-1] if self.cumulative else 0
        self.p_dep = self.total / occurrences if occurrences else 0.0

    def sample(self, rng: random.Random) -> int:
        index = bisect_right(self.cumulative, rng.random() * self.total)
        return self.distances[min(index, len(self.distances) - 1)]


class _SlotRecipe:
    """Pre-computed sampling recipe for one instruction slot."""

    __slots__ = ("iclass", "is_load", "is_branch", "operands",
                 "anti_samplers",
                 "p_il1", "p_l2i_given_il1", "p_itlb",
                 "p_dl1", "p_l2d_given_dl1", "p_dtlb",
                 "p_taken", "outcome_cumulative", "outcome_total")

    def __init__(self, stats: ContextStats, slot: int,
                 include_anti_dependencies: bool = False) -> None:
        occurrences = stats.occurrences
        self.iclass = stats.iclasses[slot]
        self.is_load = self.iclass is IClass.LOAD
        self.is_branch = self.iclass in BRANCH_CLASSES
        self.operands = [
            _OperandSampler(stats.dep_hists[slot][op], occurrences)
            for op in range(stats.n_src[slot])
        ]
        self.anti_samplers = []
        if include_anti_dependencies:
            self.anti_samplers = [
                _OperandSampler(hist, occurrences)
                for hist in (stats.waw_hists[slot], stats.war_hists[slot])
                if hist
            ]
        self.p_il1 = stats.il1[slot] / occurrences
        self.p_l2i_given_il1 = (stats.l2i[slot] / stats.il1[slot]
                                if stats.il1[slot] else 0.0)
        self.p_itlb = stats.itlb[slot] / occurrences
        self.p_dl1 = stats.dl1[slot] / occurrences
        self.p_l2d_given_dl1 = (stats.l2d[slot] / stats.dl1[slot]
                                if stats.dl1[slot] else 0.0)
        self.p_dtlb = stats.dtlb[slot] / occurrences
        self.p_taken = stats.taken / occurrences
        self.outcome_cumulative = list(accumulate(stats.outcome_counts))
        self.outcome_total = self.outcome_cumulative[-1]


def _emit_block(recipes: List[_SlotRecipe],
                out: List[SyntheticInstruction],
                rng: random.Random) -> None:
    """Steps 3-8: emit one basic block's synthetic instructions."""
    for recipe in recipes:
        position = len(out)
        distances: List[int] = []
        for operand in recipe.operands:
            if operand.total == 0 or rng.random() >= operand.p_dep:
                continue
            for _ in range(MAX_DEPENDENCY_RETRIES):
                distance = operand.sample(rng)
                target = position - distance
                if target >= 0 and not out[target].produces_register:
                    continue  # producer would be a branch or a store
                distances.append(distance)
                break
        for sampler in recipe.anti_samplers:
            if sampler.total and rng.random() < sampler.p_dep:
                distances.append(sampler.sample(rng))
        il1 = rng.random() < recipe.p_il1
        l2i = il1 and rng.random() < recipe.p_l2i_given_il1
        itlb = rng.random() < recipe.p_itlb
        dl1 = l2d = dtlb = False
        if recipe.is_load:
            dl1 = rng.random() < recipe.p_dl1
            l2d = dl1 and rng.random() < recipe.p_l2d_given_dl1
            dtlb = rng.random() < recipe.p_dtlb
        taken = False
        outcome: Optional[BranchOutcome] = None
        if recipe.is_branch:
            taken = rng.random() < recipe.p_taken
            if recipe.outcome_total:
                draw = rng.random() * recipe.outcome_total
                outcome = BranchOutcome(
                    bisect_right(recipe.outcome_cumulative[:-1], draw))
            else:
                outcome = BranchOutcome.CORRECT
        out.append(SyntheticInstruction(
            iclass=recipe.iclass,
            dep_distances=tuple(distances),
            il1_miss=il1, l2i_miss=l2i, itlb_miss=itlb,
            dl1_miss=dl1, l2d_miss=l2d, dtlb_miss=dtlb,
            taken=taken, outcome=outcome,
        ))


def _sample_start(remaining: Dict[Context, int],
                  rng: random.Random) -> Context:
    """Step 1 as originally written: rebuild the cumulative occurrence
    distribution from scratch on every restart."""
    contexts = []
    weights = []
    for context, budget in remaining.items():
        if budget > 0:
            contexts.append(context)
            weights.append(budget)
    cumulative = list(accumulate(weights))
    draw = rng.random() * cumulative[-1]
    return contexts[bisect_right(cumulative, draw)]


def legacy_generate_synthetic_trace(
    profile: StatisticalProfile,
    reduction_factor: float,
    seed: int = 0,
    reduced: Optional[ReducedFlowGraph] = None,
    max_instructions: Optional[int] = None,
    include_anti_dependencies: bool = False,
) -> SyntheticTrace:
    """The pre-overhaul ``generate_synthetic_trace`` (bisect samplers,
    per-call recipe construction, per-restart cumulative rebuilds)."""
    sfg = profile.sfg
    if not sfg.contexts:
        raise SynthesisError(
            f"profile {profile.name!r} holds no contexts; nothing to "
            f"synthesize (was the trace shorter than one basic block?)")
    if reduced is None:
        reduced = reduce_flow_graph(sfg, reduction_factor)
    elif reduced.sfg is not sfg:
        raise SynthesisError(
            "reduced graph does not belong to this profile")

    rng = random.Random(seed)
    remaining = dict(reduced.occurrences)
    total_remaining = sum(remaining.values())
    order = profile.order
    transitions = sfg.transitions
    out: List[SyntheticInstruction] = []
    recipes: Dict[Context, List[_SlotRecipe]] = {}

    def recipes_for(context: Context) -> List[_SlotRecipe]:
        cached = recipes.get(context)
        if cached is None:
            stats = sfg.contexts[context]
            cached = [_SlotRecipe(stats, slot, include_anti_dependencies)
                      for slot in range(stats.block_size)]
            recipes[context] = cached
        return cached

    while total_remaining > 0:
        context = _sample_start(remaining, rng)  # step 1
        while True:
            remaining[context] -= 1  # step 2
            total_remaining -= 1
            _emit_block(recipes_for(context), out, rng)  # steps 3-8
            if max_instructions is not None and len(out) >= max_instructions:
                total_remaining = 0
                break
            if order == 0:
                break  # k = 0: no edges; restart from step 1
            # Step 9: draw an outgoing edge among targets with budget.
            history = context[1:]
            counts = transitions.get(history)
            if not counts:
                break
            blocks: List[int] = []
            weights: List[int] = []
            for block, weight in counts.items():
                if remaining.get(history + (block,), 0) > 0:
                    blocks.append(block)
                    weights.append(weight)
            if not blocks:
                break
            cumulative = list(accumulate(weights))
            draw = rng.random() * cumulative[-1]
            context = history + (blocks[bisect_right(cumulative, draw)],)

    return SyntheticTrace(
        name=f"{profile.name}/synthetic",
        instructions=out,
        order=order,
        reduction_factor=reduction_factor,
        seed=seed,
    )


def _legacy_warm(warmup_trace: Optional[Trace], config: MachineConfig):
    """The pre-overhaul functional warm-up: one ``access_instruction``/
    ``access_data`` call per warm-up instruction, interleaved with
    predictor training."""
    hierarchy = CacheHierarchy(config)
    predictor = BranchPredictorUnit(config.predictor)
    if warmup_trace is not None:
        for inst in warmup_trace.instructions:
            hierarchy.access_instruction(inst.pc)
            if inst.mem_addr is not None:
                hierarchy.access_data(inst.mem_addr, is_store=inst.is_store)
            if inst.is_branch:
                predictor.train(inst)
        hierarchy.reset_statistics()
        predictor.lookups = 0
        predictor.updates = 0
    return hierarchy, predictor


def legacy_profile_trace(trace: Trace, config: MachineConfig,
                         order: int = 1,
                         branch_mode: str = "delayed",
                         perfect_caches: bool = False,
                         warmup_trace: Optional[Trace] = None
                         ) -> StatisticalProfile:
    """The pre-overhaul ``profile_trace`` (per-block context lookups,
    dict-backed distance histograms, dense per-slot event buffers)."""
    if order < 0:
        raise ProfileError("order must be >= 0")
    if branch_mode not in BRANCH_MODES:
        raise ProfileError(
            f"branch_mode must be one of {BRANCH_MODES}, got {branch_mode!r}"
        )

    sfg = StatisticalFlowGraph(order)
    warm_hierarchy, warm_unit = _legacy_warm(warmup_trace, config)
    branch_records = _branch_records(trace, config, branch_mode,
                                     unit=warm_unit)
    hierarchy: Optional[CacheHierarchy] = (
        None if perfect_caches else warm_hierarchy
    )

    history: List[int] = [START_BLOCK] * order
    last_writer: Dict[int, int] = {}
    last_reader: Dict[int, int] = {}

    block_insts: list = []
    block_events: list = []  # per slot: (il1, l2i, itlb, dl1, l2d, dtlb)

    for inst in trace.instructions:
        il1 = l2i = itlb = dl1 = dl2 = dtlb = False
        if hierarchy is not None:
            iresult = hierarchy.access_instruction(inst.pc)
            il1, l2i, itlb = (iresult.il1_miss, iresult.l2_miss,
                              iresult.itlb_miss)
            if inst.mem_addr is not None:
                dresult = hierarchy.access_data(inst.mem_addr,
                                                is_store=inst.is_store)
                if inst.is_load:
                    dl1, dl2, dtlb = (dresult.dl1_miss, dresult.l2_miss,
                                      dresult.dtlb_miss)
        block_insts.append(inst)
        block_events.append((il1, l2i, itlb, dl1, dl2, dtlb))

        if not inst.is_branch:
            continue

        block = inst.bb_id
        stats = sfg.context_for(
            history, block,
            iclasses=[i.iclass for i in block_insts],
            n_src=[len(i.src_regs) for i in block_insts],
        )
        stats.occurrences += 1
        sfg.total_block_executions += 1
        sfg.record_transition(history, block)

        for slot, (binst, events) in enumerate(zip(block_insts,
                                                   block_events)):
            e_il1, e_l2i, e_itlb, e_dl1, e_l2d, e_dtlb = events
            stats.il1[slot] += e_il1
            stats.l2i[slot] += e_l2i
            stats.itlb[slot] += e_itlb
            stats.dl1[slot] += e_dl1
            stats.l2d[slot] += e_l2d
            stats.dtlb[slot] += e_dtlb
            for operand, reg in enumerate(binst.src_regs):
                writer = last_writer.get(reg)
                if writer is not None:
                    distance = binst.seq - writer
                    if 0 < distance <= MAX_DEPENDENCY_DISTANCE:
                        stats.record_dependency(slot, operand, distance)
                last_reader[reg] = binst.seq
            if binst.dst_reg is not None:
                previous_writer = last_writer.get(binst.dst_reg)
                if previous_writer is not None:
                    distance = binst.seq - previous_writer
                    if 0 < distance <= MAX_DEPENDENCY_DISTANCE:
                        stats.record_anti_dependency(slot, "waw", distance)
                previous_reader = last_reader.get(binst.dst_reg)
                if previous_reader is not None:
                    distance = binst.seq - previous_reader
                    if 0 < distance <= MAX_DEPENDENCY_DISTANCE:
                        stats.record_anti_dependency(slot, "war", distance)
                last_writer[binst.dst_reg] = binst.seq

        record = branch_records.get(inst.seq)
        if record is not None:
            stats.taken += record.taken
            stats.outcome_counts[record.outcome] += 1

        if order > 0:
            history.append(block)
            del history[0]
        block_insts = []
        block_events = []

    # A trailing partial block (trace ended mid-block) is discarded.
    return StatisticalProfile(
        name=trace.name,
        order=order,
        sfg=sfg,
        trace_instructions=len(trace),
        branch_mode=branch_mode,
        perfect_caches=perfect_caches,
        config=config,
    )
