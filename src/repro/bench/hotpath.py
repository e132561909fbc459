"""Hot-path micro-benchmark (``BENCH_hotpath.json``).

Times the three phases the statistical-simulation pipeline spends its
life in — statistical profiling, synthetic trace generation, and
superscalar simulation — each as an in-process before/after pair:

* **before**: the frozen pre-overhaul code (:mod:`repro.bench.legacy`
  and :mod:`repro.cpu.reference`);
* **after**: the shipped hot paths (:mod:`repro.core.profiler`,
  :mod:`repro.core.synthesis`, :mod:`repro.cpu.pipeline`).

Both sides run on the same machine, Python and inputs, so the reported
speedups measure the code, not the environment.  Synthesis is timed at
the paper's Figure 6 reduction factor R=1000 (many short traces — the
regime where per-call table reuse matters) and at a low R (one long
trace — the regime where per-draw cost matters).  The payload also
carries a draw-stability cross-check: the optimized generator must
produce byte-identical traces to the legacy one, seed for seed.

Schema 2 adds the **vector** phase: end-to-end synthesize+simulate
with the vector generator's batch draws (:mod:`repro.core.columnar`)
into the columnar loop, against the same frozen object path the other
phases use as "before" (the legacy generator's instructions replayed
by the reference pipeline), plus a synthesis-only measurement against
the legacy generator.  The columnar generator draws from a different —
statistically equivalent — RNG stream, so instead of byte-stability
the phase records the vector and scalar paths' IPC and their relative
error (see docs/performance.md).

``check_regression`` compares a payload against a committed baseline
(``benchmarks/perf/BASELINE_hotpath.json``) and reports phases whose
speedup fell more than the tolerance below the pinned value; the CI
perf-smoke job fails on any such report.
"""

from __future__ import annotations

import json
import os
import platform
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Union

from repro.config import baseline_config
from repro.obs.metrics import get_registry
from repro.obs.tracing import phase_breakdown
from repro.core.profiler import profile_trace
from repro.core.reduction import reduce_flow_graph
from repro.core.synthesis import generate_synthetic_trace, prepare_recipes
from repro.cpu.pipeline import SuperscalarPipeline
from repro.cpu.source import ColumnarSource, PreannotatedSource
from repro.bench.legacy import (
    ReferencePipeline,
    legacy_generate_synthetic_trace,
    legacy_profile_trace,
)
from repro.experiments.common import ExperimentScale, prepare_benchmark

BENCH_SCHEMA = 2

#: The acceptance workload: the benchmark the determinism goldens pin.
DEFAULT_BENCHMARK = "gzip"

#: Per-phase keys every payload must carry (CI schema validation).
PHASE_KEYS = ("before_seconds", "after_seconds", "speedup",
              "ns_per_unit_before", "ns_per_unit_after", "units",
              "unit", "repeats")

REQUIRED_KEYS = ("schema", "benchmark", "scale", "quick", "platform",
                 "draw_stable", "phases", "speedups",
                 "phase_breakdown")


def _time(fn: Callable[[], Any], repeats: int) -> float:
    """Best-of-N wall-clock of *fn* (minimum damps scheduler noise)."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - t0
        if elapsed < best:
            best = elapsed
    return best


def _phase_payload(unit: str, units: int, repeats: int,
                   before_s: float, after_s: float) -> Dict[str, Any]:
    return {
        "unit": unit,
        "units": units,
        "repeats": repeats,
        "before_seconds": before_s,
        "after_seconds": after_s,
        "ns_per_unit_before": before_s / units * 1e9 if units else 0.0,
        "ns_per_unit_after": after_s / units * 1e9 if units else 0.0,
        "before_per_second": units / before_s if before_s else 0.0,
        "after_per_second": units / after_s if after_s else 0.0,
        "speedup": before_s / after_s if after_s else float("inf"),
    }


def _trace_key(trace) -> list:
    return [(inst.iclass, inst.dep_distances, inst.il1_miss,
             inst.l2i_miss, inst.itlb_miss, inst.dl1_miss,
             inst.l2d_miss, inst.dtlb_miss, inst.taken, inst.outcome)
            for inst in trace.instructions]


def run_hotpath_bench(
    benchmark: str = DEFAULT_BENCHMARK,
    scale: Optional[ExperimentScale] = None,
    quick: bool = True,
    log: Optional[Callable[[str], None]] = None,
) -> Dict[str, Any]:
    """Run the before/after hot-path benchmark; returns the payload.

    *quick* sizes the repeat counts for CI (a couple of seconds); the
    full mode repeats enough for stable single-percent numbers.
    """
    from repro.experiments.common import bench_scale

    log = log or (lambda message: None)
    scale = scale or bench_scale()
    config = baseline_config()
    phases_before = phase_breakdown()

    synth_seeds = 200 if quick else 600
    low_r_seeds = 10 if quick else 40
    synth_reps = 3
    profile_reps = 2 if quick else 4
    pipeline_reps = 3 if quick else 10

    log(f"preparing {benchmark} (warmup={scale.warmup} "
        f"reference={scale.reference})")
    warmup, reference = prepare_benchmark(benchmark, scale)

    # ---- phase 1: statistical profiling -------------------------------
    log(f"profiling: {len(reference)} instructions x{profile_reps} "
        f"(before/after)")
    after_profile = profile_trace(reference, config, order=1,
                                  branch_mode="delayed",
                                  warmup_trace=warmup)
    profile_after_s = _time(
        lambda: profile_trace(reference, config, order=1,
                              branch_mode="delayed",
                              warmup_trace=warmup),
        profile_reps)
    profile_before_s = _time(
        lambda: legacy_profile_trace(reference, config, order=1,
                                     branch_mode="delayed",
                                     warmup_trace=warmup),
        profile_reps)
    profile_phase = _phase_payload("instruction", len(reference),
                                   profile_reps,
                                   profile_before_s, profile_after_s)

    # ---- phase 2: synthesis -------------------------------------------
    profile = after_profile
    prepare_recipes(profile)
    low_r = scale.reduction_factor

    def synth_case(r: float, seeds: int,
                   label: str) -> Dict[str, Any]:
        reduced = reduce_flow_graph(profile.sfg, r)
        new0 = generate_synthetic_trace(profile, r, seed=0,
                                        reduced=reduced)
        old0 = legacy_generate_synthetic_trace(profile, r, seed=0,
                                               reduced=reduced)
        stable = _trace_key(new0.to_synthetic_trace()) == _trace_key(old0)
        units = len(new0) * seeds
        log(f"synthesis R={r}: {len(new0)} instructions "
            f"x{seeds} seeds ({label})")

        def run_new() -> None:
            for seed in range(seeds):
                generate_synthetic_trace(profile, r, seed=seed,
                                         reduced=reduced)

        def run_old() -> None:
            for seed in range(seeds):
                legacy_generate_synthetic_trace(profile, r, seed=seed,
                                                reduced=reduced)

        # Best-of-N: a GC pause landing inside a single timed sweep can
        # swing an 18-instruction x 600-seed loop by tens of percent.
        payload = _phase_payload("instruction", units, synth_reps,
                                 _time(run_old, synth_reps),
                                 _time(run_new, synth_reps))
        payload["reduction_factor"] = r
        payload["seeds"] = seeds
        payload["draw_stable"] = stable
        return payload

    synthesis_phase = synth_case(1000.0, synth_seeds, "figure 6 regime")
    synthesis_low_r = synth_case(low_r, low_r_seeds, "long-trace regime")

    # ---- phase 3: superscalar simulation ------------------------------
    # After: the shipped synthetic path (ColumnarSource into the
    # columnar loop); before: the frozen reference loop replaying the
    # same instructions as fetch slots.
    synthetic = generate_synthetic_trace(profile, low_r, seed=0)
    slots = synthetic.to_synthetic_trace().to_fetch_slots(config)
    new_result = SuperscalarPipeline(
        config, ColumnarSource(synthetic, config)).run()
    old_result = ReferencePipeline(
        config, PreannotatedSource(list(slots))).run()
    cycles_identical = (new_result.cycles == old_result.cycles
                        and new_result.activity == old_result.activity)
    log(f"pipeline: {len(slots)} slots / {new_result.cycles} cycles "
        f"x{pipeline_reps} (before/after)")
    # Construct each source once and rewind it per repeat: the timed
    # region measures the pipeline, not source construction on every
    # iteration.
    new_source = ColumnarSource(synthetic, config)
    old_source = PreannotatedSource(list(slots))

    def run_new_pipeline() -> None:
        new_source._pos = 0
        SuperscalarPipeline(config, new_source).run()

    def run_old_pipeline() -> None:
        old_source._pos = 0
        ReferencePipeline(config, old_source).run()

    pipeline_after_s = _time(run_new_pipeline, pipeline_reps)
    pipeline_before_s = _time(run_old_pipeline, pipeline_reps)
    pipeline_phase = _phase_payload("cycle", new_result.cycles,
                                    pipeline_reps,
                                    pipeline_before_s, pipeline_after_s)
    pipeline_phase["slots"] = len(slots)
    pipeline_phase["results_identical"] = cycles_identical

    # ---- phase 4: columnar batch execution (schema 2) -----------------
    # End-to-end synthesize+simulate: the frozen object path (legacy
    # generator, reference pipeline on fetch slots) vs the columnar
    # batch kernels into the columnar loop.  Not a before/after of the
    # same draws — the columnar generator uses a different
    # (statistically equivalent) RNG stream — so the phase also records
    # the scalar and vector IPC for an agreement check.
    from repro.core.columnar import generate_columnar_trace
    from repro.core.framework import simulate_synthetic_trace

    vector_r = low_r
    reduced = reduce_flow_graph(profile.sfg, vector_r)
    scalar_trace = generate_synthetic_trace(profile, vector_r, seed=0,
                                            reduced=reduced)
    columnar_trace = generate_columnar_trace(profile, vector_r, seed=0,
                                             reduced=reduced)
    scalar_result, _ = simulate_synthetic_trace(scalar_trace, config)
    vector_result, _ = simulate_synthetic_trace(columnar_trace, config)
    log(f"vector: {len(columnar_trace.iclass)} instructions "
        f"x{pipeline_reps} (legacy objects/columnar end-to-end)")

    def run_legacy_e2e() -> None:
        trace = legacy_generate_synthetic_trace(profile, vector_r, seed=0,
                                                reduced=reduced)
        ReferencePipeline(
            config, PreannotatedSource(trace.to_fetch_slots(config))).run()

    def run_vector_e2e() -> None:
        trace = generate_columnar_trace(profile, vector_r, seed=0,
                                        reduced=reduced)
        simulate_synthetic_trace(trace, config)

    vector_phase = _phase_payload("instruction",
                                  len(columnar_trace.iclass),
                                  pipeline_reps,
                                  _time(run_legacy_e2e, pipeline_reps),
                                  _time(run_vector_e2e, pipeline_reps))
    vector_phase["reduction_factor"] = vector_r
    vector_phase["ipc_scalar"] = scalar_result.ipc
    vector_phase["ipc_vector"] = vector_result.ipc
    vector_phase["ipc_relative_error"] = (
        abs(vector_result.ipc - scalar_result.ipc) / scalar_result.ipc
        if scalar_result.ipc else 0.0)

    # Synthesis-only columnar speedup over the legacy generator in the
    # long-trace regime — the pipeline loop dominates end-to-end, so
    # this isolates the batch kernel's win.  (At R=1000's
    # tens-of-instruction traces the per-call numpy overhead eats the
    # batch win; that regime stays on the scalar generator.)
    def run_legacy_synth() -> None:
        for seed in range(low_r_seeds):
            legacy_generate_synthetic_trace(profile, vector_r, seed=seed,
                                            reduced=reduced)

    def run_vector_synth() -> None:
        for seed in range(low_r_seeds):
            generate_columnar_trace(profile, vector_r, seed=seed,
                                    reduced=reduced)

    vector_synth_phase = _phase_payload(
        "instruction", len(columnar_trace.iclass) * low_r_seeds,
        synth_reps,
        _time(run_legacy_synth, synth_reps),
        _time(run_vector_synth, synth_reps))
    vector_synth_phase["reduction_factor"] = vector_r
    vector_synth_phase["seeds"] = low_r_seeds

    draw_stable = (synthesis_phase["draw_stable"]
                   and synthesis_low_r["draw_stable"])
    speedups = {
        "profile": profile_phase["speedup"],
        "synthesis": synthesis_phase["speedup"],
        "synthesis_low_r": synthesis_low_r["speedup"],
        "pipeline": pipeline_phase["speedup"],
        "vector": vector_phase["speedup"],
        "vector_synthesis": vector_synth_phase["speedup"],
    }
    registry = get_registry()
    for name, value in speedups.items():
        registry.gauge(f"bench.speedup.{name}").set(value)
    registry.counter("bench.hotpath_runs").inc()

    return {
        "schema": BENCH_SCHEMA,
        "benchmark": benchmark,
        "scale": {"warmup": scale.warmup,
                  "reference": scale.reference,
                  "reduction_factor": scale.reduction_factor},
        "quick": quick,
        "host_cpus": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "draw_stable": draw_stable,
        "phases": {
            "profile": profile_phase,
            "synthesis": synthesis_phase,
            "synthesis_low_r": synthesis_low_r,
            "pipeline": pipeline_phase,
            "vector": vector_phase,
            "vector_synthesis": vector_synth_phase,
        },
        "speedups": speedups,
        # Where this process spent its wall-clock during the bench
        # (profile/reduce/synthesize ... spans), for the perf record.
        "phase_breakdown": _phase_delta(phases_before,
                                        phase_breakdown()),
    }


def _phase_delta(before: Dict[str, Dict],
                 after: Dict[str, Dict]) -> Dict[str, Dict]:
    """Per-phase wall-clock between two ``phase_breakdown`` snapshots
    (the bench's own share of the process-wide registry)."""
    delta: Dict[str, Dict] = {}
    for phase, stats in after.items():
        count = stats["count"] - before.get(phase, {}).get("count", 0)
        total = stats["total"] - before.get(phase, {}).get("total", 0.0)
        if count <= 0:
            continue
        delta[phase] = {"count": count, "total": total,
                        "mean": total / count}
    return delta


def validate_payload(payload: Dict[str, Any]) -> List[str]:
    """Schema check for a ``BENCH_hotpath.json`` payload; returns the
    list of problems (empty when valid)."""
    problems: List[str] = []
    for key in REQUIRED_KEYS:
        if key not in payload:
            problems.append(f"missing top-level key {key!r}")
    if payload.get("schema") != BENCH_SCHEMA:
        problems.append(
            f"schema {payload.get('schema')!r} != {BENCH_SCHEMA}")
    for name, phase in payload.get("phases", {}).items():
        for key in PHASE_KEYS:
            if key not in phase:
                problems.append(f"phase {name!r} missing {key!r}")
    # Schema 2: the columnar phase carries the scalar/vector IPC
    # agreement alongside its timing.
    vector = payload.get("phases", {}).get("vector")
    if vector is None:
        problems.append("missing phase 'vector'")
    else:
        for key in ("ipc_scalar", "ipc_vector", "ipc_relative_error"):
            if key not in vector:
                problems.append(f"phase 'vector' missing {key!r}")
    if not payload.get("draw_stable", False):
        problems.append("draw_stable is false: the optimized generator "
                        "diverged from the legacy draw sequence")
    return problems


def check_regression(payload: Dict[str, Any],
                     baseline: Dict[str, Any],
                     tolerance: float = 0.15) -> List[str]:
    """Compare *payload* speedups against a pinned *baseline*.

    A phase regresses when its measured speedup falls more than
    *tolerance* (fractional) below the baseline's pinned speedup.
    Returns human-readable failure strings (empty when clean).
    """
    failures: List[str] = []
    for name, pinned in baseline.get("speedups", {}).items():
        measured = payload.get("speedups", {}).get(name)
        if measured is None:
            failures.append(f"phase {name!r} missing from payload")
            continue
        floor = pinned * (1.0 - tolerance)
        if measured < floor:
            failures.append(
                f"{name}: speedup {measured:.2f}x fell below "
                f"{floor:.2f}x (baseline {pinned:.2f}x - {tolerance:.0%})")
    return failures


def write_bench(payload: Dict[str, Any],
                path: Union[str, Path]) -> None:
    Path(path).write_text(json.dumps(payload, indent=2,
                                     sort_keys=True) + "\n")


#: Bump when TRAJECTORY.jsonl entries change incompatibly.
TRAJECTORY_SCHEMA = 1

#: Where ``repro bench`` appends its per-run history by default.
DEFAULT_TRAJECTORY = Path("benchmarks/perf/TRAJECTORY.jsonl")


def git_sha() -> Optional[str]:
    """The working tree's short commit sha, or None outside git."""
    import subprocess

    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    sha = proc.stdout.strip()
    return sha if proc.returncode == 0 and sha else None


def append_trajectory(payload: Dict[str, Any],
                      path: Union[str, Path] = DEFAULT_TRAJECTORY
                      ) -> Path:
    """Append one bench run to the perf trajectory (JSONL).

    ``BENCH_hotpath.json`` is last-run-wins; the trajectory keeps every
    run — sha, timestamp, speedups — so the CI perf gate can report a
    trend instead of only last-vs-baseline.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    entry = {
        "schema": TRAJECTORY_SCHEMA,
        "ts": time.time(),
        "git_sha": git_sha(),
        "benchmark": payload.get("benchmark"),
        "quick": payload.get("quick"),
        "draw_stable": payload.get("draw_stable"),
        "results_identical": payload.get("phases", {})
        .get("pipeline", {}).get("results_identical"),
        "speedups": payload.get("speedups", {}),
    }
    with path.open("a", encoding="utf-8") as handle:
        handle.write(json.dumps(entry, sort_keys=True) + "\n")
    return path
