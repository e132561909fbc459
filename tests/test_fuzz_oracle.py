"""Differential oracle: identical pipelines, injected skew, logs, and
the production synthetic path against the reference."""

from dataclasses import replace

from repro.config import baseline_config
from repro.cpu.pipeline import SuperscalarPipeline
from repro.cpu.reference import ReferencePipeline
from repro.cpu.source import ColumnarSource, ExecutionDrivenSource
from repro.faults import ChaosPlan
from repro.frontend.functional import run_program
from repro.fuzz.corpus import load_entry
from repro.fuzz.generator import random_case
from repro.fuzz.harness import (DIFFERENTIAL, SYNTHETIC_DIFFERENTIAL,
                                FuzzPolicy, evaluate_case, replay_entry)
from repro.fuzz.oracle import diff_program, diff_slots, diff_synthetic


def _small_case():
    return random_case(seed=7, index=1)


class TestIdenticalPipelines:
    def test_diff_program_reports_identical(self):
        case = _small_case()
        report = diff_program(case.program(), case.machine_config(),
                              1000, warmup=case.warmup)
        assert report.identical
        assert not report.field_diffs
        assert report.first_retirement_divergence is None
        assert not report.skew_injected
        assert report.summary() == "pipelines identical"

    def test_commit_logs_match_and_are_real_path_only(self):
        case = _small_case()
        config = case.machine_config()
        trace = run_program(case.program(), 800)
        ref_log, opt_log = [], []
        ref = ReferencePipeline(
            config, ExecutionDrivenSource(trace, config)).run(
            commit_log=ref_log)
        opt = SuperscalarPipeline(
            config, ExecutionDrivenSource(trace, config)).run(
            commit_log=opt_log)
        assert ref_log == opt_log
        assert len(ref_log) == ref.instructions == opt.instructions
        # Retirement order: cycles non-decreasing.
        cycles = [cycle for cycle, _ in ref_log]
        assert cycles == sorted(cycles)

    def test_diff_slots_on_synthetic_stream(self):
        from repro.core.profiler import profile_trace
        from repro.core.synthesis import generate_synthetic_trace

        case = _small_case()
        config = case.machine_config()
        trace = run_program(case.program(), 1500)
        profile = profile_trace(trace, config, order=1)
        synthetic = generate_synthetic_trace(profile, 3.0, seed=2)
        report = diff_slots(
            synthetic.to_synthetic_trace().to_fetch_slots(config), config)
        assert report.identical


class TestInjectedSkew:
    def test_skew_is_caught_and_flagged(self):
        case = _small_case()
        plan = ChaosPlan.parse("seed=1;pipeline-skew:rate=1.0")
        report = diff_program(case.program(), case.machine_config(),
                              600, chaos=plan, token=case.case_id)
        assert not report.identical
        assert report.skew_injected
        fields = {diff.field for diff in report.field_diffs}
        assert "cycles" in fields
        assert report.first_retirement_divergence is not None
        assert "injected skew" in report.summary()

    def test_skew_keyed_by_token(self):
        case = _small_case()
        plan = ChaosPlan.parse(
            "seed=1;pipeline-skew:rate=1.0,match=other-case")
        report = diff_program(case.program(), case.machine_config(),
                              600, chaos=plan, token=case.case_id)
        assert report.identical  # match excludes this token

    def test_legacy_plan_without_skew_site_is_harmless(self):
        class LegacyPlan:  # no skews_pipeline attribute
            pass

        case = _small_case()
        report = diff_program(case.program(), case.machine_config(),
                              600, chaos=LegacyPlan(),
                              token=case.case_id)
        assert report.identical

    def test_report_round_trips_to_dict(self):
        case = _small_case()
        plan = ChaosPlan.parse("seed=1;pipeline-skew:rate=1.0")
        report = diff_program(case.program(), case.machine_config(),
                              600, chaos=plan, token=case.case_id)
        data = report.to_dict()
        assert data["identical"] is False
        assert data["skew_injected"] is True
        assert data["field_diffs"][0]["field"] == "cycles"


def _synthesized(case, n_instructions=1500):
    from repro.core.profiler import profile_trace
    from repro.core.synthesis import generate_synthetic_trace

    config = case.machine_config()
    trace = run_program(case.program(), n_instructions)
    profile = profile_trace(trace, config, order=1)
    return generate_synthetic_trace(profile, 3.0, seed=2), config


class _SlowColumnarSource(ColumnarSource):
    """A column-resolution defect: every instruction one cycle slower
    than the reference's fetch slots say."""

    def __init__(self, trace, config):
        super().__init__(trace, config)
        self.rows = [(row[0] + 1,) + row[1:] for row in self.rows]


class TestSyntheticPath:
    def test_diff_synthetic_reports_identical(self):
        synthetic, config = _synthesized(_small_case())
        assert diff_synthetic(synthetic, config).identical

    def test_diff_synthetic_covers_in_order_fallback(self):
        synthetic, config = _synthesized(_small_case())
        in_order = replace(config, in_order_issue=True)
        assert diff_synthetic(synthetic, in_order).identical

    def test_harness_files_and_replays_synthetic_divergence(
            self, tmp_path, monkeypatch):
        import repro.fuzz.oracle as oracle

        monkeypatch.setattr(oracle, "ColumnarSource", _SlowColumnarSource)
        policy = FuzzPolicy(corpus_dir=str(tmp_path), max_trials=8)
        verdict = evaluate_case(random_case(0, 0), policy)
        assert verdict.status == DIFFERENTIAL
        assert verdict.detail.startswith("synthetic: ")
        assert verdict.minimization
        entry = load_entry(verdict.corpus_path)
        assert entry.kind == SYNTHETIC_DIFFERENTIAL

        # While the defect persists, replay reports it as regressed;
        # once the columnar path is healthy again it replays green.
        assert not replay_entry(verdict.corpus_path).passed
        monkeypatch.undo()
        result = replay_entry(verdict.corpus_path)
        assert result.passed, result.detail
