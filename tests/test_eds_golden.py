"""Golden-file regression test for execution-driven simulation.

``test_determinism_golden.py`` pins the synthetic path; this file pins
the reference simulator: cycles, IPC, pipeline activity, branch
statistics, Wattch EPC and the per-event locality counts the pipeline
saw, for one small gzip window on five machines: the baseline, a
cache-scaled baseline, perfect caches, in-order issue and perfect
branch prediction.  Any rewrite of the cache walk, the
execution-driven source, the cycle loop or the warm-up must reproduce
these numbers exactly.

Regenerate (only when an *intentional* behaviour change is shipped)
with::

    PYTHONPATH=src python tests/test_eds_golden.py
"""

import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.config import TLBConfig, baseline_config
from repro.core.framework import run_execution_driven
from repro.cpu.source import ExecutionDrivenSource
from repro.frontend.warming import (
    run_program_with_warmup,
    warm_locality_structures,
)
from repro.workloads.spec import build_benchmark

GOLDEN_PATH = Path(__file__).parent / "golden" / "eds_gzip.json"

BENCHMARK = "gzip"
WARMUP = 2_000
REFERENCE = 6_000
#: gzip's hot code fits the baseline IL1 and its data the TLBs, so the
#: scaled machine shrinks the caches 64x and the D-TLB to 8 entries to
#: make I-cache, D-cache, L2 and D-TLB events all occur.
CACHE_SCALE = 1 / 64
SCALED_DTLB = TLBConfig("dtlb", 8, 2)
EVENTS = ("il1_miss", "l2i_miss", "itlb_miss",
          "dl1_miss", "l2d_miss", "dtlb_miss")


def _cases():
    """Case name -> (config, perfect caches, perfect branch
    prediction)."""
    config = baseline_config()
    return {
        "baseline": (config, False, False),
        "cache_scaled": (replace(config.with_cache_scale(CACHE_SCALE),
                                 dtlb=SCALED_DTLB), False, False),
        "perfect_caches": (config, True, False),
        "in_order": (replace(config, in_order_issue=True), False, False),
        "perfect_branch_prediction": (config, False, True),
    }


def _event_counts(trace, warm, config, perfect_caches):
    """Locality events of every fetched slot, counted by draining a
    source warmed exactly as ``run_execution_driven`` warms its own."""
    hierarchy, predictor = warm_locality_structures(warm, config)
    source = ExecutionDrivenSource(trace, config,
                                   perfect_caches=perfect_caches,
                                   hierarchy=hierarchy,
                                   predictor=predictor)
    counts = dict.fromkeys(EVENTS, 0)
    load_latency = 0
    fetch_stall = 0
    while True:
        slot = source.fetch()
        if slot is None:
            break
        for event in EVENTS:
            counts[event] += getattr(slot, event)
        if slot.is_load:
            load_latency += slot.exec_latency
        fetch_stall += slot.fetch_stall
    counts["load_latency_sum"] = load_latency
    counts["fetch_stall_sum"] = fetch_stall
    return counts


def _case_payload(trace, warm, config, perfect_caches,
                  perfect_branch_prediction):
    result, power = run_execution_driven(
        trace, config, perfect_caches=perfect_caches,
        perfect_branch_prediction=perfect_branch_prediction,
        warmup_trace=warm)
    return {
        "cycles": result.cycles,
        "instructions": result.instructions,
        "ipc": result.ipc,
        "epc": power.total,
        "avg_ruu_occupancy": result.avg_ruu_occupancy,
        "avg_lsq_occupancy": result.avg_lsq_occupancy,
        "avg_ifq_occupancy": result.avg_ifq_occupancy,
        "activity": dict(result.activity),
        "branches": result.branches,
        "taken_branches": result.taken_branches,
        "fetch_redirections": result.fetch_redirections,
        "branch_mispredictions": result.branch_mispredictions,
        "squashed_instructions": result.squashed_instructions,
        "events": _event_counts(trace, warm, config, perfect_caches),
    }


def _payload():
    warm, trace = run_program_with_warmup(
        build_benchmark(BENCHMARK), warmup=WARMUP,
        n_instructions=REFERENCE)
    return {
        "benchmark": BENCHMARK,
        "warmup": WARMUP,
        "reference": REFERENCE,
        "cache_scale": CACHE_SCALE,
        "cases": {name: _case_payload(trace, warm, *case)
                  for name, case in _cases().items()},
    }


@pytest.fixture(scope="module")
def current():
    return _payload()


@pytest.mark.parametrize("case", sorted(_cases()))
def test_execution_driven_matches_golden(current, case):
    assert GOLDEN_PATH.exists(), (
        f"golden file {GOLDEN_PATH} missing; regenerate with "
        f"'PYTHONPATH=src python tests/test_eds_golden.py'")
    golden = json.loads(GOLDEN_PATH.read_text())
    assert current["cases"][case] == golden["cases"][case], (
        f"execution-driven simulation diverged from the golden "
        f"({case})")


def test_golden_cases_differ(current):
    """The machines must stress different paths: a golden whose cases
    coincide would not catch a walk that ignores the geometry, an issue
    stage that ignores in-order issue or a fetch stage that ignores the
    predictor."""
    cases = current["cases"]
    for name in ("cache_scaled", "perfect_caches", "in_order",
                 "perfect_branch_prediction"):
        assert cases["baseline"]["cycles"] != cases[name]["cycles"], name
    assert cases["baseline"]["branch_mispredictions"] > 0
    assert cases["perfect_branch_prediction"]["branch_mispredictions"] == 0
    assert cases["perfect_branch_prediction"]["fetch_redirections"] == 0
    assert cases["perfect_caches"]["events"]["il1_miss"] == 0
    assert all(cases["cache_scaled"]["events"][event] > 0
               for event in ("il1_miss", "dl1_miss", "l2d_miss",
                             "dtlb_miss"))


def regenerate() -> None:
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    payload = _payload()
    GOLDEN_PATH.write_text(json.dumps(payload, sort_keys=True,
                                      indent=1) + "\n")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    regenerate()
