"""Serial-vs-parallel sweep benchmark (``BENCH_dse.json``).

Times the same sweep three ways against one shared profile:

1. cold serial (``jobs=1``) — the pre-subsystem baseline path;
2. cold parallel (``jobs=N``) — the process-pool engine;
3. warm parallel re-run — same cache directory, measuring how many
   evaluations the content-addressed cache skips.

It also cross-checks that the serial and parallel sweeps produced
bit-identical metrics (they must: per-point seeds are derived, not
inherited), and writes everything as machine-readable JSON for CI
artifact upload and regression tracking.
"""

from __future__ import annotations

import json
import os
import platform
import shutil
from pathlib import Path
from typing import Any, Dict, Optional, Sequence, Union

from repro.obs.tracing import phase_breakdown
from repro.dse.engine import SweepEngine, SweepResult
from repro.dse.cache import ResultCache
from repro.dse.space import SweepSpec
from repro.dse.study import study_profile

BENCH_SCHEMA = 2


def _metrics_map(sweep: SweepResult) -> Dict[str, Dict[int, Dict]]:
    return {result.point.point_id: result.per_seed
            for result in sweep.results}


def _phase_delta(before: Dict[str, Dict],
                 after: Dict[str, Dict]) -> Dict[str, Dict]:
    """Per-phase wall-clock spent between two ``phase_breakdown``
    snapshots — the benchmark's own share of a process-wide registry."""
    delta: Dict[str, Dict] = {}
    for phase, stats in after.items():
        count = stats["count"] - before.get(phase, {}).get("count", 0)
        total = stats["total"] - before.get(phase, {}).get("total", 0.0)
        if count <= 0:
            continue
        delta[phase] = {"count": count, "total": total,
                        "mean": total / count}
    return delta


def run_dse_bench(
    spec: SweepSpec,
    benchmark: str,
    scale,
    jobs: int = 4,
    cache_root: Optional[Union[str, Path]] = None,
    seeds: Optional[Sequence[int]] = None,
    log=None,
) -> Dict[str, Any]:
    """Benchmark the sweep; returns the ``BENCH_dse.json`` payload."""
    import tempfile

    log = log or (lambda message: None)
    phases_before = phase_breakdown()
    profile, _ = study_profile(benchmark, scale)
    points = spec.expand()
    seeds = tuple(seeds if seeds is not None else scale.seeds)

    own_root = cache_root is None
    root = Path(tempfile.mkdtemp(prefix="repro-dse-bench-")
                if own_root else cache_root)
    try:
        def sweep_once(label: str, n_jobs: int,
                       cache_dir: Optional[Path]) -> SweepResult:
            engine = SweepEngine(
                profile, jobs=n_jobs,
                cache=ResultCache(cache_dir) if cache_dir else None,
                experiment=spec.name, benchmark=benchmark, log=log)
            result = engine.evaluate(points, seeds=seeds,
                                     reduction_factor=
                                     scale.reduction_factor)
            log(f"{label}: {result.summary()}")
            return result

        serial = sweep_once("serial (cold)", 1, None)
        parallel = sweep_once("parallel (cold)", jobs,
                              root / "parallel")
        warm = sweep_once("parallel (warm cache)", jobs,
                          root / "parallel")
    finally:
        if own_root:
            shutil.rmtree(root, ignore_errors=True)

    identical = _metrics_map(serial) == _metrics_map(parallel)
    total = warm.total_tasks
    skipped_fraction = warm.cached / total if total else 0.0
    speedup = (serial.elapsed / parallel.elapsed
               if parallel.elapsed > 0 else float("inf"))
    return {
        "schema": BENCH_SCHEMA,
        "sweep": spec.name,
        "benchmark": benchmark,
        "grid_points": len(points),
        "seeds": list(seeds),
        "evaluations": len(points) * len(seeds),
        "jobs": jobs,
        "host_cpus": os.cpu_count(),
        "platform": platform.platform(),
        "serial_seconds": serial.elapsed,
        "parallel_seconds": parallel.elapsed,
        "parallel_speedup": speedup,
        "metrics_identical": identical,
        "warm_rerun_seconds": warm.elapsed,
        "warm_rerun_skipped": warm.cached,
        "warm_rerun_skipped_fraction": skipped_fraction,
        "warm_rerun_evaluated": warm.evaluated,
        # Where the time went (profile/reduce/synthesize/simulate ...),
        # so the perf trajectory records more than totals.
        "phases": _phase_delta(phases_before, phase_breakdown()),
    }


def write_bench(payload: Dict[str, Any],
                path: Union[str, Path]) -> None:
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")
