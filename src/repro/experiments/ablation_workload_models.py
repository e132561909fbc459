"""Ablation: how much workload-model structure does accuracy need?

The paper positions the SFG against a spectrum of statistical workload
models (section 5).  This experiment runs the whole spectrum on the
same synthetic-trace simulator:

1. **independent** — all characteristics independent (refs [5,8,9,10]);
2. **HLS** — 100 random blocks, global mix (Oskin et al.);
3. **size-correlated** — characteristics keyed by basic block size
   (Nussbaum & Smith);
4. **SFG k=0** — per-block statistics, no control-flow correlation;
5. **SFG k=1** — the paper's model.

Expected shape: IPC error decreases as workload structure increases,
with the step to per-block/per-context modeling (SFG) the largest —
the paper's core argument.
"""

from __future__ import annotations

from typing import Dict, List

from repro.baselines.hls import generate_hls_trace, hls_profile
from repro.baselines.related import IndependentModel, SizeCorrelatedModel
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
    suite_config,
)

MODELS = ("independent", "hls", "size_correlated", "sfg_k0", "sfg_k1")


def run(scale: ExperimentScale = DEFAULT_SCALE) -> List[Dict]:
    """One row per benchmark: IPC error per workload model."""
    config = suite_config()
    rows = []
    for name, (warm, trace) in prepare_suite(scale).items():
        locality = walk_window(trace, config, warmup_trace=warm)
        reference, _ = run_execution_driven(trace, config,
                                            warmup_trace=warm,
                                            locality=locality)
        length = int(len(trace) / scale.reduction_factor)
        errors: Dict[str, float] = {}

        def record(key: str, ipcs: List[float]) -> None:
            errors[key] = absolute_error(mean(ipcs), reference.ipc)

        def hand_built_ipc(synthetic) -> float:
            return simulate_synthetic_trace(
                ColumnarTrace.from_synthetic(synthetic), config)[0].ipc

        independent = IndependentModel(trace, config)
        record("independent", [
            hand_built_ipc(independent.generate(length, seed))
            for seed in scale.seeds])

        profile = hls_profile(trace, config)
        record("hls", [
            hand_built_ipc(generate_hls_trace(profile, length, seed))
            for seed in scale.seeds])

        size_model = SizeCorrelatedModel(trace, config)
        record("size_correlated", [
            hand_built_ipc(size_model.generate(length, seed))
            for seed in scale.seeds])

        for order, key in ((0, "sfg_k0"), (1, "sfg_k1")):
            sfg_profile = profile_trace(trace, config, order=order,
                                        branch_mode="delayed",
                                        warmup_trace=warm,
                                        locality=locality)
            record(key, [
                run_statistical_simulation(
                    trace, config, profile=sfg_profile,
                    reduction_factor=scale.reduction_factor,
                    seed=seed).ipc
                for seed in scale.seeds])

        rows.append({"benchmark": name, "eds_ipc": reference.ipc,
                     "errors": errors})
    return rows


def average_errors(rows: List[Dict]) -> Dict[str, float]:
    return {model: mean([row["errors"][model] for row in rows])
            for model in MODELS}


def format_rows(rows: List[Dict]) -> str:
    table = format_table(
        ["benchmark"] + list(MODELS),
        [[row["benchmark"]] + [f"{row['errors'][m] * 100:.1f}%"
                               for m in MODELS] for row in rows],
    )
    averages = average_errors(rows)
    footer = "average: " + "  ".join(
        f"{model} {value * 100:.1f}%" for model, value in averages.items())
    return table + "\n" + footer


if __name__ == "__main__":  # pragma: no cover
    print(format_rows(run()))
