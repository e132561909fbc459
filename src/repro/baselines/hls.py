"""The HLS baseline (Oskin, Chong and Farrens — ISCA 2000).

HLS is statistical simulation *without* control-flow structure, which is
exactly what the paper contrasts the SFG against (section 4.3/5):

    "In HLS, Oskin et al. generate one hundred basic blocks of a size
    determined by a normal distribution over the average size found in
    the original workload.  The basic block branch predictabilities are
    statistically generated from the overall branch predictability
    obtained from the original workload.  Instructions are assigned to
    the basic blocks randomly based on the overall instruction mix
    distribution, in contrast to the basic block modeling granularity of
    the SFG."

This implementation profiles *global* statistics only (instruction mix,
mean/std block size, one dependency-distance distribution, one branch
predictability, six cache miss rates), builds the 100-block graph, walks
it, and simulates the result on the same synthetic-trace pipeline used
by SMART-HLS — so any accuracy difference is attributable to the
workload model, as in the paper.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import Dict, List, Tuple

from repro.config import MachineConfig
from repro.isa.iclass import BRANCH_CLASSES, IClass
from repro.frontend.trace import Trace
from repro.branch.profiler import profile_branches_delayed
from repro.branch.unit import BranchOutcome, BranchPredictorUnit
from repro.cache.hierarchy import CacheHierarchy
from repro.frontend.warming import walk_window
from repro.core.synthetic import (ColumnarTrace, SyntheticInstruction,
                                  SyntheticTrace)
from repro.cpu.results import SimulationResult
from repro.power.wattch import PowerBreakdown

#: HLS models the program as this many synthetic basic blocks.
HLS_NUM_BLOCKS = 100


@dataclass
class HLSProfile:
    """Global (structure-free) program statistics."""

    name: str
    instruction_mix: Dict[IClass, float]
    mean_block_size: float
    std_block_size: float
    operand_counts: Dict[IClass, Tuple[Tuple[int, ...], Tuple[int, ...]]]
    dependency_distances: Tuple[Tuple[int, ...], Tuple[int, ...]]
    dependency_fraction: float
    taken_rate: float
    redirect_rate: float
    misprediction_rate: float
    miss_rates: Dict[str, float]
    trace_instructions: int


def hls_profile(trace: Trace, config: MachineConfig) -> HLSProfile:
    """Measure HLS's global statistical profile from a dynamic trace."""
    mix: Dict[IClass, int] = {}
    block_sizes: List[int] = []
    size = 0
    operand_counter: Dict[IClass, Dict[int, int]] = {}
    distance_hist: Dict[int, int] = {}
    operands_total = 0
    operands_with_dep = 0
    last_writer: Dict[int, int] = {}

    for inst in trace.instructions:
        mix[inst.iclass] = mix.get(inst.iclass, 0) + 1
        size += 1
        counts = operand_counter.setdefault(inst.iclass, {})
        n_src = len(inst.src_regs)
        counts[n_src] = counts.get(n_src, 0) + 1
        for reg in inst.src_regs:
            operands_total += 1
            writer = last_writer.get(reg)
            if writer is not None and 0 < inst.seq - writer <= 512:
                operands_with_dep += 1
                distance = inst.seq - writer
                distance_hist[distance] = distance_hist.get(distance, 0) + 1
        if inst.dst_reg is not None:
            last_writer[inst.dst_reg] = inst.seq
        if inst.is_branch:
            block_sizes.append(size)
            size = 0

    hierarchy = CacheHierarchy(config)
    walk_window(trace, config, hierarchy=hierarchy)
    records = profile_branches_delayed(
        trace, BranchPredictorUnit(config.predictor),
        fifo_size=config.ifq_size)
    n_branches = max(1, len(records))
    taken = sum(r.taken for r in records)
    redirect = sum(r.outcome is BranchOutcome.FETCH_REDIRECTION
                   for r in records)
    mispredict = sum(r.outcome is BranchOutcome.MISPREDICTION
                     for r in records)

    total = len(trace)
    mean_size = (sum(block_sizes) / len(block_sizes)) if block_sizes else 1.0
    if len(block_sizes) > 1:
        variance = (sum((s - mean_size) ** 2 for s in block_sizes)
                    / (len(block_sizes) - 1))
    else:
        variance = 0.0
    distances = tuple(sorted(distance_hist))
    weights = tuple(distance_hist[d] for d in distances)
    operand_counts = {
        iclass: (tuple(sorted(counts)),
                 tuple(counts[n] for n in sorted(counts)))
        for iclass, counts in operand_counter.items()
    }

    return HLSProfile(
        name=trace.name,
        instruction_mix={ic: c / total for ic, c in mix.items()},
        mean_block_size=mean_size,
        std_block_size=variance ** 0.5,
        operand_counts=operand_counts,
        dependency_distances=(distances, weights),
        dependency_fraction=(operands_with_dep / operands_total
                             if operands_total else 0.0),
        taken_rate=taken / n_branches,
        redirect_rate=redirect / n_branches,
        misprediction_rate=mispredict / n_branches,
        miss_rates=hierarchy.miss_rates(),
        trace_instructions=total,
    )


def _weighted_choice(rng: random.Random, values, cumulative) -> object:
    draw = rng.random() * cumulative[-1]
    return values[bisect_right(cumulative, draw)]


def generate_hls_trace(profile: HLSProfile, length: int,
                       seed: int = 0) -> SyntheticTrace:
    """Generate an HLS synthetic trace of roughly *length* instructions.

    One hundred basic blocks are built with normally distributed sizes
    and globally sampled instruction contents, wired into a random graph
    (two successors per block with a random split); the trace is a random
    walk over that graph with globally sampled locality events.
    """
    rng = random.Random(seed)
    branch_classes = [IClass.INT_COND_BRANCH]
    non_branch_mix = {ic: w for ic, w in profile.instruction_mix.items()
                      if ic not in BRANCH_CLASSES}
    mix_classes = list(non_branch_mix)
    mix_cumulative = list(accumulate(non_branch_mix[ic]
                                     for ic in mix_classes))

    # Build 100 blocks: a list of instruction classes per block.
    blocks: List[List[IClass]] = []
    for _ in range(HLS_NUM_BLOCKS):
        body = max(0, int(round(rng.gauss(profile.mean_block_size - 1,
                                          profile.std_block_size))))
        instructions = [
            _weighted_choice(rng, mix_classes, mix_cumulative)
            for _ in range(body)
        ]
        instructions.append(rng.choice(branch_classes))
        blocks.append(instructions)
    successors = [
        (rng.randrange(HLS_NUM_BLOCKS), rng.randrange(HLS_NUM_BLOCKS),
         rng.random())
        for _ in range(HLS_NUM_BLOCKS)
    ]

    distances, weights = profile.dependency_distances
    distance_cumulative = list(accumulate(weights))
    rates = profile.miss_rates
    p_il1 = rates["il1"]
    p_l2i = rates["l2_instruction"]
    p_dl1 = rates["dl1"]
    p_l2d = rates["l2_data"]
    p_itlb = rates["itlb"]
    p_dtlb = rates["dtlb"]

    out: List[SyntheticInstruction] = []
    current = rng.randrange(HLS_NUM_BLOCKS)
    while len(out) < length:
        for iclass in blocks[current]:
            position = len(out)
            dep_distances: List[int] = []
            counts = profile.operand_counts.get(iclass)
            if counts:
                n_src = _weighted_choice(
                    rng, counts[0], list(accumulate(counts[1])))
            else:
                n_src = 0
            for _ in range(n_src):
                if not distances or rng.random() >= profile.dependency_fraction:
                    continue
                for _ in range(1000):
                    distance = _weighted_choice(rng, distances,
                                                distance_cumulative)
                    target = position - distance
                    if target >= 0 and not out[target].produces_register:
                        continue
                    dep_distances.append(distance)
                    break
            il1 = rng.random() < p_il1
            l2i = il1 and rng.random() < p_l2i
            itlb = rng.random() < p_itlb
            dl1 = l2d = dtlb = False
            taken = False
            outcome = None
            if iclass is IClass.LOAD:
                dl1 = rng.random() < p_dl1
                l2d = dl1 and rng.random() < p_l2d
                dtlb = rng.random() < p_dtlb
            if iclass in BRANCH_CLASSES:
                taken = rng.random() < profile.taken_rate
                draw = rng.random()
                if draw < profile.misprediction_rate:
                    outcome = BranchOutcome.MISPREDICTION
                elif draw < (profile.misprediction_rate
                             + profile.redirect_rate):
                    outcome = BranchOutcome.FETCH_REDIRECTION
                else:
                    outcome = BranchOutcome.CORRECT
            out.append(SyntheticInstruction(
                iclass=iclass, dep_distances=tuple(dep_distances),
                il1_miss=il1, l2i_miss=l2i, itlb_miss=itlb,
                dl1_miss=dl1, l2d_miss=l2d, dtlb_miss=dtlb,
                taken=taken, outcome=outcome,
            ))
        a, b, split = successors[current]
        current = a if rng.random() < split else b

    return SyntheticTrace(
        name=f"{profile.name}/hls",
        instructions=out[:length],
        order=-1,
        reduction_factor=profile.trace_instructions / max(1, length),
        seed=seed,
    )


def run_hls_simulation(trace: Trace, config: MachineConfig,
                       synthetic_length: int = 10_000, seed: int = 0
                       ) -> Tuple[SimulationResult, PowerBreakdown]:
    """Profile *trace* the HLS way, generate an HLS synthetic trace and
    simulate it on the shared synthetic-trace pipeline."""
    from repro.core.framework import simulate_synthetic_trace

    profile = hls_profile(trace, config)
    synthetic = generate_hls_trace(profile, length=synthetic_length,
                                   seed=seed)
    return simulate_synthetic_trace(ColumnarTrace.from_synthetic(synthetic),
                                    config)
