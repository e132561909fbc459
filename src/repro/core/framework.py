"""End-to-end statistical simulation API (paper Figure 1).

``run_statistical_simulation`` chains profiling, reduction, synthesis and
synthetic-trace simulation; ``run_execution_driven`` runs the reference
simulator on the same trace.  Both return power along with performance,
so callers compute the paper's metrics (IPC, EPC, EDP) directly.

Both run on the pipeline's one cycle loop.  Columns are the one
synthetic-trace format: the scalar and the vector generator both return
a :class:`~repro.core.synthetic.ColumnarTrace`, differing only in their
draw stream, and ``simulate_synthetic_trace`` resolves it through
:class:`~repro.cpu.source.ColumnarSource`.  ``run_execution_driven``
resolves the real trace through
:class:`~repro.cpu.source.ExecutionDrivenSource` into the same row
columns once per window (locality events, latencies, dependencies),
leaving only branch outcomes live.  That column resolution runs inside
the ``simulate`` span but before the :func:`~repro.cpu.pipeline.simulate`
call.  No per-instruction object is built inside the loop on either
path; :class:`~repro.cpu.source.PreannotatedSource` remains the replay
source of the reference pipeline and the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.config import MachineConfig
from repro.errors import ProfileError, SynthesisError
from repro.obs.tracing import trace_span
from repro.frontend.trace import Trace
from repro.cpu.pipeline import simulate
from repro.cpu.results import SimulationResult
from repro.cpu.source import ColumnarSource, ExecutionDrivenSource
from repro.cache.hierarchy import LocalityWalk
from repro.power.wattch import (
    PowerBreakdown,
    WattchPowerModel,
    energy_delay_product,
)
from repro.core.profiler import StatisticalProfile, profile_trace
from repro.core.synthesis import generate_synthetic_trace
from repro.core.synthetic import ColumnarTrace

#: The paper's typical synthetic trace reduction factors range from
#: 1,000 to 100,000; scaled to our shorter reference streams we default
#: to a modest factor.
DEFAULT_REDUCTION_FACTOR = 10.0


@dataclass
class StatisticalSimulationReport:
    """Everything produced by one statistical simulation run."""

    profile: StatisticalProfile
    synthetic_trace: ColumnarTrace
    result: SimulationResult
    power: PowerBreakdown

    @property
    def ipc(self) -> float:
        return self.result.ipc

    @property
    def epc(self) -> float:
        return self.power.total

    @property
    def edp(self) -> float:
        return energy_delay_product(self.epc, self.ipc)


def run_execution_driven(
    trace: Trace,
    config: MachineConfig,
    perfect_caches: bool = False,
    perfect_branch_prediction: bool = False,
    warmup_trace: Optional[Trace] = None,
    locality: Optional[LocalityWalk] = None,
) -> Tuple[SimulationResult, PowerBreakdown]:
    """Reference simulation: the shared pipeline with live locality
    structures resolving the real dynamic trace.  *warmup_trace*, if
    given, functionally warms caches and predictor first (the paper
    measures warm samples out of long executions).  *locality* is the
    window's precomputed :func:`~repro.frontend.warming.walk_window` on
    *config*'s caches, warmed on the same *warmup_trace*; without it
    the cache walk runs here."""
    from repro.frontend.warming import (
        shared_walk,
        walk_window,
        warm_locality_structures,
    )

    with trace_span("simulate", bench=trace.name, mode="execution"):
        _, predictor = warm_locality_structures(warmup_trace, config,
                                                caches=False)
        if not perfect_caches:
            locality = shared_walk(locality, trace, config) or walk_window(
                trace, config, warmup_trace=warmup_trace)
        source = ExecutionDrivenSource(
            trace, config,
            perfect_caches=perfect_caches,
            perfect_branch_prediction=perfect_branch_prediction,
            predictor=predictor,
            locality=locality,
        )
        result = simulate(config, source)
        power = WattchPowerModel(config).energy_per_cycle(result)
    return result, power


def simulate_synthetic_trace(
    synthetic: ColumnarTrace, config: MachineConfig
) -> Tuple[SimulationResult, PowerBreakdown]:
    """Synthetic-trace simulation (paper section 2.3): the shared
    pipeline consuming pre-annotated columns, no caches, no predictors.

    :class:`ColumnarSource` resolves the columns against *config*
    (load latencies, fetch stalls) before the cycle loop runs; a
    hand-built :class:`~repro.core.synthetic.SyntheticTrace` comes in
    through :meth:`ColumnarTrace.from_synthetic`.
    """
    with trace_span("simulate", bench=synthetic.name, mode="synthetic"):
        source = ColumnarSource(synthetic, config)
        result = simulate(config, source)
        power = WattchPowerModel(config).energy_per_cycle(result)
    return result, power


def run_statistical_simulation(
    trace: Trace,
    config: MachineConfig,
    order: int = 1,
    reduction_factor: float = DEFAULT_REDUCTION_FACTOR,
    seed: int = 0,
    branch_mode: str = "delayed",
    perfect_caches: bool = False,
    profile: Optional[StatisticalProfile] = None,
    warmup_trace: Optional[Trace] = None,
    include_anti_dependencies: bool = False,
    vector: bool = False,
) -> StatisticalSimulationReport:
    """Full statistical simulation of *trace* on *config*.

    Pass a pre-computed *profile* to amortize profiling across several
    synthesis seeds or microarchitecture-independent sweeps (window,
    width and functional units do not change the profile; caches,
    predictor and IFQ size do — re-profile for those, as the paper notes
    in section 4.4).

    *vector* synthesizes with the columnar batch kernels
    (:mod:`repro.core.columnar`): same distributions, same trace format
    and same pipeline, different (statistically equivalent) draw
    sequence — see docs/performance.md.
    """
    if reduction_factor <= 0:
        raise SynthesisError(
            f"reduction_factor must be positive, got "
            f"{reduction_factor!r}")
    if order < 0:
        raise ProfileError(f"order must be >= 0, got {order!r}")
    if profile is None:
        profile = profile_trace(trace, config, order=order,
                                branch_mode=branch_mode,
                                perfect_caches=perfect_caches,
                                warmup_trace=warmup_trace)
    if vector:
        from repro.core.columnar import generate_columnar_trace as generate
    else:
        generate = generate_synthetic_trace
    synthetic = generate(
        profile, reduction_factor, seed=seed,
        include_anti_dependencies=include_anti_dependencies)
    result, power = simulate_synthetic_trace(synthetic, config)
    return StatisticalSimulationReport(
        profile=profile,
        synthetic_trace=synthetic,
        result=result,
        power=power,
    )
