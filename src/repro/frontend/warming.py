"""Functional warming of locality structures.

The paper measures 100M-instruction samples out of much longer
executions (and skips the first 1B instructions in its phase study), so
caches and predictors are warm when measurement starts.  This module
provides that methodology: replay a warmup trace through a cache
hierarchy and branch predictor — functionally, no pipeline — and hand
the warmed structures to profiling, execution-driven simulation or
SimPoint.  :func:`walk_window` resolves a whole measurement window's
cache and TLB events in one walk, so profiling and execution-driven
simulation of the same window share them instead of walking twice.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.config import MachineConfig
from repro.frontend.trace import Trace
from repro.branch.unit import BranchPredictorUnit
from repro.cache.hierarchy import CacheHierarchy, LocalityWalk, cache_geometry


def warm_locality_structures(
    warmup_trace: Optional[Trace],
    config: MachineConfig,
    hierarchy: Optional[CacheHierarchy] = None,
    predictor: Optional[BranchPredictorUnit] = None,
    caches: bool = True,
) -> Tuple[Optional[CacheHierarchy], BranchPredictorUnit]:
    """Build (or take) a hierarchy and predictor and functionally warm
    them on *warmup_trace* (a no-op when it is None).

    Warming statistics are reset afterwards so callers measure only the
    post-warmup window.  ``caches=False`` warms the predictor alone and
    returns ``None`` for the hierarchy: for callers that resolve the
    window's locality through a :class:`LocalityWalk` instead.
    """
    if caches:
        hierarchy = hierarchy or CacheHierarchy(config)
    else:
        hierarchy = None
    predictor = predictor or BranchPredictorUnit(config.predictor)
    if warmup_trace is not None:
        instructions = warmup_trace.instructions
        if hierarchy is not None:
            hierarchy.walk(instructions)
            hierarchy.reset_statistics()
        train = predictor.train
        for inst in instructions:
            if inst.is_branch:
                train(inst)
        predictor.lookups = 0
        predictor.updates = 0
    return hierarchy, predictor


def walk_window(trace: Trace, config: MachineConfig,
                warmup_trace: Optional[Trace] = None,
                hierarchy: Optional[CacheHierarchy] = None
                ) -> LocalityWalk:
    """The locality events of *trace* on *config*'s caches, warmed on
    *warmup_trace* first (or on whatever *hierarchy* already holds).

    Events depend only on the window and the cache geometry, so a
    caller that both profiles and simulates one window computes this
    once and hands it to :func:`repro.core.profiler.profile_trace` and
    :func:`repro.core.framework.run_execution_driven` (``locality=``).
    """
    from repro.obs.tracing import trace_span

    with trace_span("locality", bench=trace.name,
                    instructions=len(trace)):
        hierarchy = hierarchy or CacheHierarchy(config)
        if warmup_trace is not None:
            hierarchy.walk(warmup_trace.instructions)
            hierarchy.reset_statistics()
        icodes, dcodes = hierarchy.walk(trace.instructions)
    return LocalityWalk(icodes, dcodes, cache_geometry(config))


def shared_walk(locality: Optional[LocalityWalk], trace: Trace,
                config: MachineConfig) -> Optional[LocalityWalk]:
    """Validate a caller-supplied walk of *trace* and count the
    hand-off (``locality.shared``); ``None`` passes through."""
    if locality is not None:
        from repro.obs.metrics import get_registry

        locality.check(len(trace), config)
        get_registry().counter("locality.shared").inc()
    return locality


def run_program_with_warmup(program, warmup: int,
                            n_instructions: int) -> Tuple[Trace, Trace]:
    """Execute *program* and return ``(warmup_trace, measurement_trace)``
    as two contiguous windows of one execution.

    The warmup window is extended to the next basic-block boundary so
    the measurement window starts with a complete block — profiling
    keys statistics by basic block, and a truncated leading block would
    alias with its full-size executions.
    """
    from repro.frontend.functional import FunctionalSimulator

    sim = FunctionalSimulator(program)
    warm_instructions = list(sim.run(warmup))
    while warm_instructions and not warm_instructions[-1].is_branch:
        warm_instructions.extend(sim.run(1))
    measured = list(sim.run(n_instructions))
    for seq, inst in enumerate(measured):
        inst.seq = seq
    return (Trace(name=f"{program.name}/warmup",
                  instructions=warm_instructions),
            Trace(name=program.name, instructions=measured))
