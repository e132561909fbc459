"""The fuzzing harness: case loop, verdicts, corpus and replay.

One fuzz *case* is evaluated in layers:

1. **differential** — the case's program runs through the optimized and
   the frozen reference pipeline; any divergence (fields or retirement
   schedule) is a failure (:mod:`repro.fuzz.oracle`).  The case's
   synthesized trace is diffed the same way through the production
   synthetic path (columns into the one cycle loop) against the
   reference, on the case's machine shape;
2. **acceptance** — the paper's profile → reduce → synthesize loop runs
   on the same trace, and the synthetic statistics must converge to the
   profile within scaled tolerances (:mod:`repro.fuzz.acceptance`);
3. **vector** (``--vector``) — the columnar batch generator
   (:mod:`repro.core.columnar`) synthesizes from the same profile, and
   its statistically-equivalent draw stream must converge to the
   profile under the same tolerances — the differential guard between
   the scalar oracle and the vectorized kernels.

Failures are minimized (:mod:`repro.fuzz.minimize`) and written to the
corpus (:mod:`repro.fuzz.corpus`).  Cases execute under the shared
:class:`~repro.runner.TaskRunner`, so per-case timeouts, retries and
crash containment behave exactly like ``repro experiment``; chaos
injection (``REPRO_CHAOS``) composes — ``task-fail``/``slow-call``
exercise the containment, and the dedicated ``pipeline-skew`` site
plants a deliberate one-cycle discrepancy that must be caught,
minimized and corpus-filed (the end-to-end canary for the oracle
itself).

Everything is deterministic given ``(seed, case count, tolerances)``:
identical invocations produce identical verdicts, which is what makes
``repro fuzz --stats-only`` trackable over time like the benchmark
suite.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro import obs
from repro.faults import plan_from_env
from repro.fuzz.acceptance import (
    AcceptanceReport,
    ToleranceConfig,
    acceptance_report,
)
from repro.fuzz.corpus import (
    CorpusEntry,
    list_entries,
    load_entry,
    program_from_dict,
    program_to_dict,
    save_entry,
)
from repro.fuzz.generator import FuzzCase, case_from_dict, random_case
from repro.fuzz.minimize import minimize_program
from repro.fuzz.oracle import diff_program, diff_synthetic
from repro.errors import FuzzDiscrepancyError, SynthesisError
from repro.obs.metrics import get_registry
from repro.obs.tracing import trace_span
from repro.runner import RunnerPolicy, TaskRunner, WorkUnit

#: "no chaos argument given": resolve from the environment, like the
#: runner does.
_ENV_CHAOS = object()

OK = "ok"
DIFFERENTIAL = "differential"
ACCEPTANCE = "acceptance"
VECTOR = "vector"
ERROR = "error"
#: Corpus kind of a differential failure on the synthetic path (its
#: verdict counts as DIFFERENTIAL); replay re-profiles the program and
#: diffs the synthesized trace instead of the execution-driven run.
SYNTHETIC_DIFFERENTIAL = "synthetic-differential"


@dataclass(frozen=True)
class FuzzPolicy:
    """Knobs of one fuzzing run."""

    cases: int = 25
    seed: int = 0
    timeout: Optional[float] = None
    retries: int = 0
    corpus_dir: Optional[str] = None
    max_trials: int = 200
    tolerances: ToleranceConfig = field(default_factory=ToleranceConfig)
    minimize: bool = True
    #: Adds a third layer: the columnar batch generator's draws must
    #: satisfy the same statistical acceptance against the profile as
    #: the scalar generator's (``repro fuzz --vector``).
    vector: bool = False


@dataclass
class CaseVerdict:
    """The outcome of one fuzz case."""

    case_id: str
    status: str  # ok | differential | acceptance | error
    detail: str = ""
    #: Acceptance margins per statistic (tolerance - deviation; negative
    #: means the statistic failed).  Empty when acceptance never ran.
    margins: Dict[str, float] = field(default_factory=dict)
    skew_injected: bool = False
    corpus_path: Optional[str] = None
    minimization: Dict = field(default_factory=dict)

    def to_dict(self) -> Dict:
        return {
            "case_id": self.case_id,
            "status": self.status,
            "detail": self.detail,
            "margins": self.margins,
            "skew_injected": self.skew_injected,
            "corpus_path": self.corpus_path,
            "minimization": self.minimization,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "CaseVerdict":
        return cls(
            case_id=data["case_id"],
            status=data["status"],
            detail=data.get("detail", ""),
            margins=dict(data.get("margins", {})),
            skew_injected=data.get("skew_injected", False),
            corpus_path=data.get("corpus_path"),
            minimization=dict(data.get("minimization", {})),
        )


@dataclass
class FuzzReport:
    """Aggregate outcome of one fuzzing run."""

    seed: int
    verdicts: List[CaseVerdict] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(verdict.status == OK for verdict in self.verdicts)

    def count(self, status: str) -> int:
        return sum(1 for verdict in self.verdicts
                   if verdict.status == status)

    def summary(self) -> str:
        parts = (f"{len(self.verdicts)} cases: {self.count(OK)} ok, "
                 f"{self.count(DIFFERENTIAL)} differential, "
                 f"{self.count(ACCEPTANCE)} acceptance, ")
        if self.count(VECTOR):
            parts += f"{self.count(VECTOR)} vector, "
        return parts + f"{self.count(ERROR)} error"

    def stats_payload(self) -> Dict:
        """The deterministic JSON summary behind ``--stats-only``.

        No wall-clock fields: two runs with the same seed and case
        count produce byte-identical payloads, so the file diffs
        cleanly in CI history (like ``BENCH_hotpath.json``).
        """
        margins: Dict[str, List[float]] = {}
        for verdict in self.verdicts:
            for name, margin in verdict.margins.items():
                margins.setdefault(name, []).append(margin)
        margin_stats = {
            name: {
                "min": min(values),
                "mean": sum(values) / len(values),
                "cases": len(values),
            }
            for name, values in sorted(margins.items())
        }
        return {
            "schema": 1,
            "cases": len(self.verdicts),
            "seed": self.seed,
            "verdicts": {
                OK: self.count(OK),
                DIFFERENTIAL: self.count(DIFFERENTIAL),
                ACCEPTANCE: self.count(ACCEPTANCE),
                VECTOR: self.count(VECTOR),
                ERROR: self.count(ERROR),
            },
            "acceptance_margins": margin_stats,
            "failed_cases": [verdict.to_dict()
                             for verdict in self.verdicts
                             if verdict.status != OK],
        }


def _case_profile(program, n_instructions: int, case: FuzzCase):
    """Run *program* and profile it on the case's machine shape."""
    from repro.core.profiler import profile_trace
    from repro.frontend.functional import run_program

    trace = run_program(program, n_instructions, warmup=case.warmup)
    return profile_trace(trace, case.machine_config(), order=case.order)


def _case_synthetic(profile, case: FuzzCase):
    """The case's scalar synthetic trace (columns) from *profile*."""
    from repro.core.synthesis import generate_synthetic_trace

    return generate_synthetic_trace(profile, case.reduction_factor,
                                    seed=case.synthesis_seed)


def _acceptance_fails(program, n_instructions: int, case: FuzzCase,
                      tolerances: ToleranceConfig) -> bool:
    """Re-run the statistical loop on a shrunken program; True = still
    out of tolerance (the minimization predicate for acceptance
    failures)."""
    profile = _case_profile(program, n_instructions, case)
    synthetic = _case_synthetic(profile, case).to_synthetic_trace()
    return not acceptance_report(profile, synthetic, tolerances).passed


def _synthetic_diff(program, n_instructions: int, case: FuzzCase):
    """Profile and synthesize *program* as the case does, then diff the
    trace through the production synthetic path (the replay and
    minimization twin of evaluate_case's synthetic leg)."""
    profile = _case_profile(program, n_instructions, case)
    return diff_synthetic(_case_synthetic(profile, case),
                          case.machine_config())


def _synthetic_diff_fails(program, n_instructions: int,
                          case: FuzzCase) -> bool:
    """Minimization predicate for synthetic-path divergences; a shrunk
    program that no longer synthesizes does not reproduce."""
    try:
        return not _synthetic_diff(program, n_instructions,
                                   case).identical
    except SynthesisError:
        return False


def _vector_synthetic(profile, case: FuzzCase):
    """The columnar generator's draws for *case*, materialized as a
    scalar trace so the acceptance checks apply unchanged."""
    from repro.core.columnar import generate_columnar_trace

    columnar = generate_columnar_trace(profile, case.reduction_factor,
                                       seed=case.synthesis_seed)
    return columnar.to_synthetic_trace()


def _vector_fails(program, n_instructions: int, case: FuzzCase,
                  tolerances: ToleranceConfig) -> bool:
    """Minimization predicate for vector failures: True while the
    columnar draws stay out of tolerance on the shrunken program."""
    profile = _case_profile(program, n_instructions, case)
    synthetic = _vector_synthetic(profile, case)
    return not acceptance_report(profile, synthetic, tolerances).passed


def _minimize_and_file(verdict: CaseVerdict, case: FuzzCase,
                       policy: FuzzPolicy, chaos, program, kind: str,
                       report, still_fails,
                       max_trials: int) -> CaseVerdict:
    """Shrink a failing case's program while *still_fails* holds and
    file the reproducer in the corpus, each as *policy* asks."""
    if policy.minimize:
        minimized = minimize_program(program, case.trace_instructions,
                                     still_fails, max_trials=max_trials)
        get_registry().counter("fuzz.minimized").inc()
        verdict.minimization = minimized.to_dict()
        program = minimized.program
    if policy.corpus_dir:
        entry = CorpusEntry(
            case_id=case.case_id, kind=kind, case=case.to_dict(),
            report=report.to_dict(), program=program_to_dict(program),
            minimization=verdict.minimization,
            chaos_spec=(chaos.to_spec()
                        if hasattr(chaos, "to_spec") else None),
            skew_injected=verdict.skew_injected)
        verdict.corpus_path = save_entry(policy.corpus_dir, entry)
    return verdict


def evaluate_case(case: FuzzCase, policy: FuzzPolicy,
                  chaos=None) -> CaseVerdict:
    """Run the differential + acceptance checks for one case."""
    registry = get_registry()
    config = case.machine_config()
    program = case.program()

    with trace_span("fuzz.case", case=case.case_id):
        # ---- layer 1: differential oracle --------------------------
        diff = diff_program(program, config, case.trace_instructions,
                            warmup=case.warmup, chaos=chaos,
                            token=case.case_id)
        if not diff.identical:
            registry.counter("fuzz.differential").inc()
            obs.warn(f"{case.case_id}: pipelines diverged "
                     f"({diff.summary()})",
                     event="fuzz.divergence", case=case.case_id,
                     injected=diff.skew_injected)
            verdict = CaseVerdict(case_id=case.case_id,
                                  status=DIFFERENTIAL,
                                  detail=diff.summary(),
                                  skew_injected=diff.skew_injected)
            return _minimize_and_file(
                verdict, case, policy, chaos, program, DIFFERENTIAL, diff,
                lambda prog, n: not diff_program(
                    prog, config, n, warmup=case.warmup,
                    chaos=chaos, token=case.case_id).identical,
                policy.max_trials)

        # ---- layer 2: statistical acceptance ------------------------
        profile = _case_profile(program, case.trace_instructions, case)
        synthetic = _case_synthetic(profile, case)
        diff = diff_synthetic(synthetic, config)
        if not diff.identical:
            registry.counter("fuzz.differential").inc()
            obs.warn(f"{case.case_id}: pipelines diverged on the "
                     f"synthetic trace ({diff.summary()})",
                     event="fuzz.divergence", case=case.case_id,
                     injected=False)
            verdict = CaseVerdict(case_id=case.case_id,
                                  status=DIFFERENTIAL,
                                  detail=f"synthetic: {diff.summary()}")
            return _minimize_and_file(
                verdict, case, policy, chaos, program,
                SYNTHETIC_DIFFERENTIAL, diff,
                lambda prog, n: _synthetic_diff_fails(prog, n, case),
                max(1, policy.max_trials // 4))
        report = acceptance_report(profile, synthetic.to_synthetic_trace(),
                                   policy.tolerances)
        margins = {check.name: check.margin for check in report.checks}
        if report.passed:
            # ---- layer 3 (--vector): columnar draws vs profile ------
            # The scalar draws just converged; the columnar generator's
            # statistically-equivalent stream must converge to the same
            # profile under the same tolerances.
            if policy.vector:
                vector_trace = _vector_synthetic(profile, case)
                vector_report = acceptance_report(profile, vector_trace,
                                                  policy.tolerances)
                margins.update({f"vector.{check.name}": check.margin
                                for check in vector_report.checks})
                if not vector_report.passed:
                    registry.counter("fuzz.vector").inc()
                    obs.warn(
                        f"{case.case_id}: columnar draws out of "
                        f"tolerance ({vector_report.summary()})",
                        event="fuzz.vector_failure", case=case.case_id)
                    verdict = CaseVerdict(case_id=case.case_id,
                                          status=VECTOR,
                                          detail=vector_report.summary(),
                                          margins=margins)
                    return _minimize_and_file(
                        verdict, case, policy, chaos, program, VECTOR,
                        vector_report,
                        lambda prog, n: _vector_fails(
                            prog, n, case, policy.tolerances),
                        max(1, policy.max_trials // 4))
            registry.counter("fuzz.ok").inc()
            return CaseVerdict(case_id=case.case_id, status=OK,
                               margins=margins)

        registry.counter("fuzz.acceptance").inc()
        obs.warn(f"{case.case_id}: synthetic statistics out of "
                 f"tolerance ({report.summary()})",
                 event="fuzz.acceptance_failure", case=case.case_id)
        verdict = CaseVerdict(case_id=case.case_id, status=ACCEPTANCE,
                              detail=report.summary(), margins=margins)
        return _minimize_and_file(
            verdict, case, policy, chaos, program, ACCEPTANCE, report,
            lambda prog, n: _acceptance_fails(prog, n, case,
                                              policy.tolerances),
            max(1, policy.max_trials // 4))


def run_fuzz(policy: FuzzPolicy, chaos=_ENV_CHAOS,
             log=None) -> FuzzReport:
    """Run *policy.cases* seeded cases; return the aggregate report.

    *chaos* defaults to the plan in ``REPRO_CHAOS`` (pass ``None`` to
    force chaos off).  The plan is shared with the runner, so
    ``task-fail``/``slow-call`` hit the containment path while
    ``pipeline-skew`` hits the oracle.
    """
    if chaos is _ENV_CHAOS:
        chaos = plan_from_env(os.environ)
    registry = get_registry()
    log = log or (lambda message: None)

    cases = [random_case(policy.seed, index)
             for index in range(policy.cases)]
    units = [WorkUnit(experiment="fuzz", benchmark=case.case_id,
                      seed=policy.seed, params=(("index", case.index),))
             for case in cases]
    by_unit = {unit.unit_id: case for unit, case in zip(units, cases)}

    runner = TaskRunner(
        policy=RunnerPolicy(timeout=policy.timeout,
                            max_retries=policy.retries),
        fault_plan=chaos,
        raise_on_total_failure=False,
        log=log,
    )

    def run_one(unit: WorkUnit) -> Dict:
        case = by_unit[unit.unit_id]
        registry.counter("fuzz.cases").inc()
        return evaluate_case(case, policy, chaos=chaos).to_dict()

    run_report = runner.run(units, run_one)

    verdicts: List[CaseVerdict] = []
    for outcome in run_report.outcomes:
        if outcome.status == "failed" or outcome.result is None:
            registry.counter("fuzz.errors").inc()
            error = (outcome.error or {}).get("message", "case crashed")
            verdicts.append(CaseVerdict(
                case_id=outcome.benchmark or outcome.unit_id,
                status=ERROR, detail=str(error)))
        else:
            verdicts.append(CaseVerdict.from_dict(outcome.result))

    report = FuzzReport(seed=policy.seed, verdicts=verdicts)
    obs.info(f"fuzz run complete: {report.summary()}",
             event="fuzz.summary", seed=policy.seed,
             cases=len(report.verdicts), ok=report.count(OK))
    return report


# ---------------------------------------------------------------- replay

@dataclass
class ReplayResult:
    """The outcome of replaying one corpus entry."""

    path: str
    case_id: str
    kind: str
    passed: bool
    detail: str = ""

    def to_dict(self) -> Dict:
        return {"path": self.path, "case_id": self.case_id,
                "kind": self.kind, "passed": self.passed,
                "detail": self.detail}


def replay_entry(path: str,
                 tolerances: ToleranceConfig = ToleranceConfig()
                 ) -> ReplayResult:
    """Replay one corpus entry; green means the pinned bug stays fixed."""
    entry = load_entry(path)
    case = case_from_dict(entry.case)
    config = case.machine_config()
    program = program_from_dict(entry.program)
    n_instructions = entry.minimization.get("n_instructions",
                                            case.trace_instructions)

    if entry.kind == DIFFERENTIAL:
        diff = diff_program(program, config, n_instructions,
                            warmup=case.warmup)
        return ReplayResult(path=path, case_id=entry.case_id,
                            kind=entry.kind, passed=diff.identical,
                            detail=("" if diff.identical
                                    else diff.summary()))
    if entry.kind == SYNTHETIC_DIFFERENTIAL:
        diff = _synthetic_diff(program, n_instructions, case)
        return ReplayResult(path=path, case_id=entry.case_id,
                            kind=entry.kind, passed=diff.identical,
                            detail=("" if diff.identical
                                    else diff.summary()))
    if entry.kind in (ACCEPTANCE, VECTOR):
        profile = _case_profile(program, n_instructions, case)
        if entry.kind == VECTOR:
            synthetic = _vector_synthetic(profile, case)
        else:
            synthetic = _case_synthetic(profile, case).to_synthetic_trace()
        report = acceptance_report(profile, synthetic, tolerances)
        return ReplayResult(path=path, case_id=entry.case_id,
                            kind=entry.kind, passed=report.passed,
                            detail=("" if report.passed
                                    else report.summary()))
    return ReplayResult(path=path, case_id=entry.case_id,
                        kind=entry.kind, passed=False,
                        detail=f"unknown entry kind {entry.kind!r}")


def replay_corpus(corpus_dir: str,
                  tolerances: ToleranceConfig = ToleranceConfig(),
                  raise_on_failure: bool = False) -> List[ReplayResult]:
    """Replay every entry under *corpus_dir* (sorted, deterministic)."""
    registry = get_registry()
    results = []
    for path in list_entries(corpus_dir):
        result = replay_entry(path, tolerances)
        registry.counter("fuzz.replayed").inc()
        if not result.passed:
            registry.counter("fuzz.replay_failures").inc()
            obs.error(f"corpus replay failed: {result.case_id} "
                      f"({result.detail})", event="fuzz.replay_failure",
                      case=result.case_id, path=path)
            if raise_on_failure:
                raise FuzzDiscrepancyError(
                    f"corpus entry {result.case_id} regressed: "
                    f"{result.detail}")
        results.append(result)
    return results
