"""What a service job actually *does* when a worker picks it up.

The daemon is deliberately ignorant of simulation: it hands the job's
payload to :func:`run_job`, which dispatches on ``kind``.  Two kinds
exist:

* ``sweep`` — the real workload: a design-space study
  (:func:`repro.dse.study.run_study`) with verification off (the
  daemon's callers collect statistical results; execution-driven
  verification stays an interactive decision).  Sharing ``cache_dir``
  across jobs is how two overlapping sweeps avoid duplicate
  evaluations: the promoted :class:`~repro.dse.cache.ResultCache` is
  multi-process safe.  Jobs on one benchmark and scale also share its
  statistical profile: ``run_study`` memoizes it for the daemon's
  lifetime, so only a benchmark's first job prepares and profiles.
* ``sleep`` — a do-nothing job of a known duration, used by the tests
  to exercise queueing, recovery and cancellation without paying for
  simulation.
"""

from __future__ import annotations

from typing import Any, Dict


def run_sleep_job(payload: Dict[str, Any]) -> Dict[str, Any]:
    import time

    seconds = float(payload.get("seconds", 0.1))
    if seconds < 0:
        raise ValueError(f"cannot sleep {seconds}s")
    time.sleep(seconds)
    return {"kind": "sleep", "slept": seconds,
            "tag": payload.get("tag")}


def run_sweep_job(payload: Dict[str, Any]) -> Dict[str, Any]:
    from repro.dse.space import SweepSpec, reduced_sec46_spec
    from repro.dse.study import run_study
    from repro.experiments.common import DEFAULT_SCALE, QUICK_SCALE

    spec = (SweepSpec.from_dict(payload["spec"])
            if payload.get("spec") else reduced_sec46_spec())
    scale = (QUICK_SCALE if payload.get("scale", "quick") == "quick"
             else DEFAULT_SCALE)
    seeds = payload.get("seeds")
    health = None
    if payload.get("deadline") is not None:
        from repro.health import HealthPolicy

        health = HealthPolicy.from_env().with_deadline(
            float(payload["deadline"]))
    study = run_study(
        spec,
        payload["benchmark"],
        scale,
        jobs=int(payload.get("jobs", 1)),
        cache_dir=payload.get("cache_dir"),
        seeds=tuple(seeds) if seeds else None,
        verify=False,
        health=health,
    )
    row = study.to_row()
    row["kind"] = "sweep"
    row["interrupted"] = study.sweep.interrupted
    return row


_KINDS = {
    "sleep": run_sleep_job,
    "sweep": run_sweep_job,
}


def run_job(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Execute one job payload; returns its JSON-serializable result.

    Raises on failure — the daemon converts exceptions into the job's
    terminal ``failed`` state with the error recorded.
    """
    kind = payload.get("kind")
    runner = _KINDS.get(kind)
    if runner is None:
        raise ValueError(
            f"unknown job kind {kind!r}; expected one of "
            f"{', '.join(sorted(_KINDS))}")
    return runner(payload)


__all__ = ["run_job", "run_sleep_job", "run_sweep_job"]
