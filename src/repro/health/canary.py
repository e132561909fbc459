"""Sampled statistical canary on the vector path.

The columnar batch generator draws from the same distributions as the
scalar generator but through different kernels; a regression there
does not crash — it silently skews every downstream metric.  The
differential fuzzer catches such drift offline; this canary catches it
*at runtime*: every Nth vector evaluation (``canary`` in the health
spec) converts the freshly generated columnar trace and runs it
through the same statistical acceptance gate the fuzzer uses
(:mod:`repro.fuzz.acceptance`).  On drift it trips the vector breaker
on the degradation ladder and raises the retryable
:class:`~repro.errors.CanaryDriftError`, so the evaluation's retry
lands on the scalar rung and the sweep finishes green — degraded, not
poisoned.

``canary-force=1`` treats every sampled report as failed; it is the
deterministic drill used by tests and the hang-smoke CI job to prove
the trip-and-degrade path end to end.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import CanaryDriftError
from repro.health.budget import HealthPolicy, active_budget
from repro.health.ladder import get_ladder
from repro.obs import events
from repro.obs.metrics import get_registry

#: Vector evaluations seen by this process (the sampling clock).
_EVALS = 0


def reset_canary() -> None:
    """Restart the sampling clock (tests)."""
    global _EVALS
    _EVALS = 0


def _policy() -> Optional[HealthPolicy]:
    budget = active_budget()
    return budget.policy if budget is not None else None


def maybe_check_columnar(profile, columnar) -> None:
    """Run the sampled canary against *columnar* (a
    :class:`~repro.core.synthetic.ColumnarTrace`) freshly drawn from
    *profile*; no-op outside the sampling schedule."""
    global _EVALS
    policy = _policy()
    if policy is None or policy.canary_interval <= 0:
        return
    _EVALS += 1
    if (_EVALS - 1) % policy.canary_interval != 0:
        return
    from repro.fuzz.acceptance import ToleranceConfig, acceptance_report

    get_registry().counter("health.canary_checks").inc()
    report = acceptance_report(profile, columnar.to_synthetic_trace(),
                               ToleranceConfig())
    drifted = policy.canary_force or not report.passed
    if not drifted:
        return
    detail = ("forced by canary-force" if policy.canary_force
              else report.summary())
    get_registry().counter("health.canary_failures").inc()
    events.emit(
        "health.canary_drift", level="warning",
        msg=f"vector canary drift: {detail}; tripping vector -> scalar",
        forced=policy.canary_force, detail=detail)
    get_ladder().trip("vector", reason="canary drift")
    raise CanaryDriftError(f"vector canary drift: {detail}")


__all__ = ["maybe_check_columnar", "reset_canary"]
