"""Ablation: the synthetic trace reduction factor R (paper section 2.2).

R trades simulation speed for fidelity on two axes the paper discusses:

* variance — shorter synthetic traces converge less (section 4.1);
* coverage — nodes with fewer than R occurrences are removed, and the
  paper notes the reduced graph "is no longer fully interconnected"
  but claims "the interconnection is still strong enough".

This ablation quantifies both per R: surviving nodes, surviving block
mass, the occurrence mass held by the largest weakly-connected
component of the reduced graph, and the resulting IPC error.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.core.analysis import reduced_connectivity
from repro.core.framework import (
    run_execution_driven,
    run_statistical_simulation,
)
from repro.core.metrics import absolute_error
from repro.core.profiler import profile_trace
from repro.frontend.warming import walk_window
from repro.core.reduction import reduce_flow_graph
from repro.experiments.common import (
    DEFAULT_SCALE,
    ExperimentScale,
    format_table,
    mean,
    prepare_benchmark,
    suite_config,
)

DEFAULT_FACTORS = (2.0, 4.0, 8.0, 16.0, 32.0)


def run(benchmark: str = "parser",
        scale: ExperimentScale = DEFAULT_SCALE,
        factors: Sequence[float] = DEFAULT_FACTORS) -> List[Dict]:
    """One row per reduction factor for one benchmark."""
    config = suite_config()
    warm, trace = prepare_benchmark(benchmark, scale)
    locality = walk_window(trace, config, warmup_trace=warm)
    reference, _ = run_execution_driven(trace, config, warmup_trace=warm,
                                        locality=locality)
    profile = profile_trace(trace, config, order=1,
                            branch_mode="delayed", warmup_trace=warm,
                            locality=locality)
    total_mass = profile.sfg.total_block_executions
    rows = []
    for factor in factors:
        reduced = reduce_flow_graph(profile.sfg, factor)
        connectivity = reduced_connectivity(profile.sfg, reduced)
        ipcs = [
            run_statistical_simulation(trace, config, profile=profile,
                                       reduction_factor=factor,
                                       seed=seed).ipc
            for seed in scale.seeds
        ]
        rows.append({
            "benchmark": benchmark,
            "reduction_factor": factor,
            "nodes_kept": reduced.num_nodes,
            "nodes_total": profile.num_nodes,
            "mass_kept": reduced.total_blocks * factor / total_mass,
            "largest_component_mass":
                connectivity["largest_component_mass"],
            "ipc_error": absolute_error(mean(ipcs), reference.ipc),
        })
    return rows


def format_rows(rows: List[Dict]) -> str:
    return format_table(
        ["R", "nodes kept", "mass kept", "component mass", "IPC error"],
        [(r["reduction_factor"],
          f"{r['nodes_kept']}/{r['nodes_total']}",
          f"{r['mass_kept'] * 100:.1f}%",
          f"{r['largest_component_mass'] * 100:.1f}%",
          f"{r['ipc_error'] * 100:.1f}%") for r in rows],
    )


if __name__ == "__main__":  # pragma: no cover
    print(format_rows(run()))
