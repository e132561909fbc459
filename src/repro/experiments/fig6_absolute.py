"""Figure 6 (and section 4.2.3) — absolute accuracy of statistical
simulation for IPC, EPC and EDP on the baseline configuration.

Reproduction target: per-benchmark IPC bars for statistical simulation
track execution-driven simulation with a modest average error (paper:
6.6% IPC, 4% EPC, 11% EDP; worst case parser at 14.2% IPC).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.framework import (
    run_execution_driven,
    run_statistical_simulation,
)
from repro.core.metrics import absolute_error
from repro.core.profiler import profile_trace
from repro.frontend.warming import walk_window
from repro.power.wattch import energy_delay_product
from repro.runner import TaskRunner
from repro.experiments.common import (
    DEFAULT_SCALE,
    ExperimentScale,
    format_table,
    mean,
    prepare_benchmark,
    run_per_benchmark,
    suite_config,
    with_report_footer,
)


def _measure_benchmark(name: str, scale: ExperimentScale) -> Dict:
    config = suite_config()
    warm, trace = prepare_benchmark(name, scale)
    # One cache walk of the window serves both the reference simulator
    # and the profiler.
    locality = walk_window(trace, config, warmup_trace=warm)
    reference, ref_power = run_execution_driven(trace, config,
                                                warmup_trace=warm,
                                                locality=locality)
    profile = profile_trace(trace, config, order=1,
                            branch_mode="delayed", warmup_trace=warm,
                            locality=locality)
    reports = [
        run_statistical_simulation(
            trace, config, profile=profile,
            reduction_factor=scale.reduction_factor, seed=seed)
        for seed in scale.seeds
    ]
    ss_ipc = mean([r.ipc for r in reports])
    ss_epc = mean([r.epc for r in reports])
    eds_edp = energy_delay_product(ref_power.total, reference.ipc)
    ss_edp = energy_delay_product(ss_epc, ss_ipc)
    return {
        "benchmark": name,
        "eds_ipc": reference.ipc,
        "ss_ipc": ss_ipc,
        "ipc_error": absolute_error(ss_ipc, reference.ipc),
        "eds_epc": ref_power.total,
        "ss_epc": ss_epc,
        "epc_error": absolute_error(ss_epc, ref_power.total),
        "eds_edp": eds_edp,
        "ss_edp": ss_edp,
        "edp_error": absolute_error(ss_edp, eds_edp),
    }


def run(scale: ExperimentScale = DEFAULT_SCALE,
        runner: Optional[TaskRunner] = None) -> List[Dict]:
    """One row per benchmark: EDS and SS estimates of IPC/EPC/EDP and
    the corresponding absolute errors."""
    return run_per_benchmark("fig6", scale, _measure_benchmark,
                             runner=runner)


def average_errors(rows: List[Dict]) -> Dict[str, float]:
    return {metric: mean([row[f"{metric}_error"] for row in rows])
            for metric in ("ipc", "epc", "edp")}


def format_rows(rows: List[Dict]) -> str:
    table = format_table(
        ["benchmark", "EDS IPC", "SS IPC", "err",
         "EDS EPC", "SS EPC", "err", "EDP err"],
        [(r["benchmark"], r["eds_ipc"], r["ss_ipc"],
          f"{r['ipc_error'] * 100:.1f}%",
          r["eds_epc"], r["ss_epc"], f"{r['epc_error'] * 100:.1f}%",
          f"{r['edp_error'] * 100:.1f}%") for r in rows],
    )
    averages = average_errors(rows)
    footer = ("average errors: "
              + "  ".join(f"{k.upper()} {v * 100:.1f}%"
                          for k, v in averages.items()))
    return with_report_footer(table + "\n" + footer, rows)


if __name__ == "__main__":  # pragma: no cover
    print(format_rows(run()))
