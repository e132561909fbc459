"""Figure 7 — comparing HLS to SMART-HLS (this paper's framework).

As in the paper's section 4.3, the comparison runs on SimpleScalar's
default configuration (the configuration HLS was calibrated for), not
the Table 2 baseline.  Reproduction target: SMART-HLS is substantially
more accurate than HLS (paper: 1.8% vs 10.1% average IPC error).
"""

from __future__ import annotations

from typing import Dict, List

from repro.baselines.hls import generate_hls_trace, hls_profile
from repro.config import simplescalar_default_config
from repro.core.framework import (
    run_execution_driven,
    run_statistical_simulation,
    simulate_synthetic_trace,
)
from repro.core.metrics import absolute_error
from repro.core.profiler import profile_trace
from repro.frontend.warming import walk_window
from repro.core.synthetic import ColumnarTrace
from repro.experiments.common import (
    DEFAULT_SCALE,
    ExperimentScale,
    format_table,
    mean,
    prepare_suite,
)


def run(scale: ExperimentScale = DEFAULT_SCALE) -> List[Dict]:
    """One row per benchmark: IPC error of HLS and of SMART-HLS."""
    config = simplescalar_default_config()
    rows = []
    for name, (warm, trace) in prepare_suite(scale).items():
        # The warm window's walk serves the reference and SMART-HLS;
        # HLS measures its miss rates on its own cold walk.
        locality = walk_window(trace, config, warmup_trace=warm)
        reference, _ = run_execution_driven(trace, config,
                                            warmup_trace=warm,
                                            locality=locality)
        synthetic_length = int(len(trace) / scale.reduction_factor)

        profile = hls_profile(trace, config)
        hls_ipcs = []
        for seed in scale.seeds:
            synthetic = generate_hls_trace(profile, synthetic_length,
                                           seed=seed)
            result, _ = simulate_synthetic_trace(
                ColumnarTrace.from_synthetic(synthetic), config)
            hls_ipcs.append(result.ipc)

        smart_profile = profile_trace(trace, config, order=1,
                                      branch_mode="delayed",
                                      warmup_trace=warm,
                                      locality=locality)
        smart_ipcs = [
            run_statistical_simulation(
                trace, config, profile=smart_profile,
                reduction_factor=scale.reduction_factor, seed=seed).ipc
            for seed in scale.seeds
        ]
        rows.append({
            "benchmark": name,
            "eds_ipc": reference.ipc,
            "hls_error": absolute_error(mean(hls_ipcs), reference.ipc),
            "smart_error": absolute_error(mean(smart_ipcs), reference.ipc),
        })
    return rows


def average_errors(rows: List[Dict]) -> Dict[str, float]:
    return {
        "hls": mean([r["hls_error"] for r in rows]),
        "smart": mean([r["smart_error"] for r in rows]),
    }


def format_rows(rows: List[Dict]) -> str:
    table = format_table(
        ["benchmark", "HLS error", "SMART-HLS error"],
        [(r["benchmark"], f"{r['hls_error'] * 100:.1f}%",
          f"{r['smart_error'] * 100:.1f}%") for r in rows],
    )
    averages = average_errors(rows)
    footer = (f"average: HLS {averages['hls'] * 100:.1f}%  "
              f"SMART-HLS {averages['smart'] * 100:.1f}%")
    return table + "\n" + footer


if __name__ == "__main__":  # pragma: no cover
    print(format_rows(run()))
