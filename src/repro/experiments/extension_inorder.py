"""Extension: statistical simulation of non-renaming / in-order machines.

Paper section 2.1.1: "Although not done in this paper, this approach
could be extended to also include WAW and WAR dependencies to account
for a limited number of physical registers or in-order execution."

This experiment implements that extension and evaluates it: the target
machine issues in order and enforces WAW/WAR hazards (no renaming).
Three predictors are compared against the in-order execution-driven
reference:

* **raw-only** — the paper's synthesis (RAW dependencies only), which
  should *overestimate* the non-renaming machine's IPC;
* **with-anti** — synthesis sampling the profiled WAW/WAR distance
  distributions as well;
* the out-of-order reference, to show how much performance renaming
  buys (context).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List

from repro.core.framework import (
    run_execution_driven,
    run_statistical_simulation,
)
from repro.core.metrics import absolute_error
from repro.core.profiler import profile_trace
from repro.frontend.warming import walk_window
from repro.experiments.common import (
    DEFAULT_SCALE,
    ExperimentScale,
    format_table,
    mean,
    prepare_suite,
    suite_config,
)


def run(scale: ExperimentScale = DEFAULT_SCALE) -> List[Dict]:
    """One row per benchmark: in-order EDS IPC and the two SS errors."""
    base = suite_config()
    in_order = replace(base, in_order_issue=True,
                       enforce_anti_dependencies=True,
                       decode_width=4, issue_width=4, commit_width=4)
    rows = []
    for name, (warm, trace) in prepare_suite(scale).items():
        # Both machines share the baseline caches: one walk serves the
        # two references and the profile.
        locality = walk_window(trace, base, warmup_trace=warm)
        ooo_reference, _ = run_execution_driven(trace, base,
                                                warmup_trace=warm,
                                                locality=locality)
        reference, _ = run_execution_driven(trace, in_order,
                                            warmup_trace=warm,
                                            locality=locality)
        profile = profile_trace(trace, in_order, order=1,
                                branch_mode="delayed", warmup_trace=warm,
                                locality=locality)
        estimates = {}
        for key, include in (("raw_only", False), ("with_anti", True)):
            ipcs = [
                run_statistical_simulation(
                    trace, in_order, profile=profile,
                    reduction_factor=scale.reduction_factor, seed=seed,
                    include_anti_dependencies=include).ipc
                for seed in scale.seeds
            ]
            estimates[key] = mean(ipcs)
        rows.append({
            "benchmark": name,
            "ooo_ipc": ooo_reference.ipc,
            "inorder_ipc": reference.ipc,
            "raw_only_ipc": estimates["raw_only"],
            "raw_only_error": absolute_error(estimates["raw_only"],
                                             reference.ipc),
            "with_anti_ipc": estimates["with_anti"],
            "with_anti_error": absolute_error(estimates["with_anti"],
                                              reference.ipc),
        })
    return rows


def average_errors(rows: List[Dict]) -> Dict[str, float]:
    return {
        "raw_only": mean([row["raw_only_error"] for row in rows]),
        "with_anti": mean([row["with_anti_error"] for row in rows]),
    }


def format_rows(rows: List[Dict]) -> str:
    table = format_table(
        ["benchmark", "OoO IPC", "in-order IPC", "SS raw-only",
         "err", "SS with-anti", "err"],
        [(r["benchmark"], r["ooo_ipc"], r["inorder_ipc"],
          r["raw_only_ipc"], f"{r['raw_only_error'] * 100:.1f}%",
          r["with_anti_ipc"], f"{r['with_anti_error'] * 100:.1f}%")
         for r in rows],
    )
    averages = average_errors(rows)
    footer = (f"average error: raw-only "
              f"{averages['raw_only'] * 100:.1f}%  with-anti "
              f"{averages['with_anti'] * 100:.1f}%")
    return table + "\n" + footer


if __name__ == "__main__":  # pragma: no cover
    print(format_rows(run()))
