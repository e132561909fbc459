"""Single-pass multi-configuration profiling.

The paper (section 2.1.2) notes that needing microarchitecture-
dependent cache characteristics "does not limit applicability" because
single-pass multiple-configuration tools exist (citing the cheetah
simulator).  This module provides that capability for design-space
sweeps over cache capacity: one locality walk per scale resolves the
window's cache events while the microarchitecture-independent
characteristics and branch characteristics (which do not depend on the
caches) are measured once and shared — producing one complete
:class:`~repro.core.profiler.StatisticalProfile` per cache scale.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.config import MachineConfig
from repro.frontend.trace import Trace
from repro.cache.hierarchy import EVENT_L1, EVENT_L2, EVENT_TLB
from repro.core.profiler import (
    BRANCH_MODES,
    StatisticalProfile,
    _branch_records,
)
from repro.core.sfg import (
    MAX_DEPENDENCY_DISTANCE,
    START_BLOCK,
    StatisticalFlowGraph,
)


def profile_trace_multi_cache(
    trace: Trace,
    config: MachineConfig,
    cache_scales: Sequence[float],
    order: int = 1,
    branch_mode: str = "delayed",
    warmup_trace: Optional[Trace] = None,
) -> Dict[float, StatisticalProfile]:
    """Profile *trace* once for several cache scalings.

    Returns one profile per scale in *cache_scales* (1.0 = the given
    config's caches).  Branch characteristics are measured once against
    *config*'s predictor; each scale gets its own locality walk and its
    own per-context locality annotations.
    """
    from repro.frontend.warming import (
        walk_window,
        warm_locality_structures,
    )

    if order < 0:
        raise ValueError("order must be >= 0")
    if branch_mode not in BRANCH_MODES:
        raise ValueError(
            f"branch_mode must be one of {BRANCH_MODES}, got {branch_mode!r}"
        )
    if not cache_scales:
        raise ValueError("need at least one cache scale")

    configs = {scale: config.with_cache_scale(scale)
               for scale in cache_scales}
    walks = {scale: walk_window(trace, scaled_config,
                                warmup_trace=warmup_trace)
             for scale, scaled_config in configs.items()}
    _, warm_unit = warm_locality_structures(warmup_trace, config,
                                            caches=False)
    branch_records = _branch_records(trace, config, branch_mode,
                                     unit=warm_unit)

    sfgs = {scale: StatisticalFlowGraph(order) for scale in cache_scales}
    history: List[int] = [START_BLOCK] * order
    last_writer: Dict[int, int] = {}
    last_reader: Dict[int, int] = {}
    block_start = 0

    for index, inst in enumerate(trace.instructions):
        if not inst.is_branch:
            continue
        block_insts = trace.instructions[block_start:index + 1]

        block = inst.bb_id
        iclasses = [i.iclass for i in block_insts]
        n_src = [len(i.src_regs) for i in block_insts]
        record = branch_records.get(inst.seq)

        # Dependency distances are scale-independent: compute once.
        dependencies: list = []
        for slot, binst in enumerate(block_insts):
            for operand, reg in enumerate(binst.src_regs):
                writer = last_writer.get(reg)
                if writer is not None:
                    distance = binst.seq - writer
                    if 0 < distance <= MAX_DEPENDENCY_DISTANCE:
                        dependencies.append((slot, operand, distance))
                last_reader[reg] = binst.seq
            if binst.dst_reg is not None:
                for kind, table in (("waw", last_writer),
                                    ("war", last_reader)):
                    prior = table.get(binst.dst_reg)
                    if prior is not None:
                        distance = binst.seq - prior
                        if 0 < distance <= MAX_DEPENDENCY_DISTANCE:
                            dependencies.append((slot, kind, distance))
                last_writer[binst.dst_reg] = binst.seq

        for scale, sfg in sfgs.items():
            stats = sfg.context_for(history, block, iclasses=iclasses,
                                    n_src=n_src)
            stats.occurrences += 1
            sfg.total_block_executions += 1
            sfg.record_transition(history, block)
            walk = walks[scale]
            for slot, binst in enumerate(block_insts):
                icode = walk.icodes[block_start + slot]
                stats.il1[slot] += bool(icode & EVENT_L1)
                stats.l2i[slot] += bool(icode & EVENT_L2)
                stats.itlb[slot] += bool(icode & EVENT_TLB)
                if binst.is_load:
                    dcode = walk.dcodes[block_start + slot]
                    stats.dl1[slot] += bool(dcode & EVENT_L1)
                    stats.l2d[slot] += bool(dcode & EVENT_L2)
                    stats.dtlb[slot] += bool(dcode & EVENT_TLB)
            for slot, operand, distance in dependencies:
                if operand in ("waw", "war"):
                    stats.record_anti_dependency(slot, operand, distance)
                else:
                    stats.record_dependency(slot, operand, distance)
            if record is not None:
                stats.taken += record.taken
                stats.outcome_counts[record.outcome] += 1

        if order > 0:
            history.append(block)
            del history[0]
        block_start = index + 1

    return {
        scale: StatisticalProfile(
            name=trace.name,
            order=order,
            sfg=sfgs[scale],
            trace_instructions=len(trace),
            branch_mode=branch_mode,
            perfect_caches=False,
            config=configs[scale],
        )
        for scale in cache_scales
    }
