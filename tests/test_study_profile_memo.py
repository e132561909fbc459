"""The process-lifetime profile memo behind design-space studies.

A study of a benchmark measures its statistical profile once per
process (per warm-up/reference window); later studies reuse it without
preparing or profiling again, with bit-identical results.  The autouse
``_clear_profile_memo`` fixture in ``conftest.py`` empties the memo
around every test.
"""

import sys
import threading
import time
from dataclasses import replace

import pytest

import repro.core.profiler as profiler
import repro.experiments.common as common
from repro.dse.space import SweepSpec, profile_content_hash
from repro.dse.study import run_study, study_profile
from repro.experiments.common import ExperimentScale
from repro.obs import events as obs_events
from repro.obs.metrics import get_registry

SCALE = ExperimentScale(warmup=2_000, reference=4_000,
                        reduction_factor=4.0, seeds=(0,),
                        benchmarks=("gzip",))
SPEC = SweepSpec(name="memo", mode="grid", parameters=(
    ("ruu_size", (32, 64)), ("width", (2, 4))))
TIMING = ("sweep_seconds",)


@pytest.fixture
def calls(monkeypatch):
    """Counts of prepare_benchmark / profile_trace calls."""
    counts = {"prepare": 0, "profile": 0}
    real_prepare = common.prepare_benchmark
    real_profile = profiler.profile_trace

    def prepare(*args, **kwargs):
        counts["prepare"] += 1
        return real_prepare(*args, **kwargs)

    def profile(*args, **kwargs):
        counts["profile"] += 1
        return real_profile(*args, **kwargs)

    monkeypatch.setattr(common, "prepare_benchmark", prepare)
    monkeypatch.setattr(profiler, "profile_trace", profile)
    return counts


@pytest.fixture
def reused_events():
    seen = []

    def sink(payload):
        if payload.get("event") == "profile_reused":
            seen.append(payload)

    obs_events.add_sink(sink)
    yield seen
    obs_events.remove_sink(sink)


def reuse_count():
    return get_registry().counter("dse.profile_reuse").value


def row(study):
    return {key: value for key, value in study.to_row().items()
            if key not in TIMING}


class TestReuse:
    def test_second_study_skips_prepare_and_profile(self, calls,
                                                    reused_events):
        before = reuse_count()
        first = run_study(SPEC, "gzip", SCALE, verify=False)
        assert calls == {"prepare": 1, "profile": 1}
        second = run_study(SPEC, "gzip", SCALE, verify=False)
        assert calls == {"prepare": 1, "profile": 1}
        assert row(second) == row(first)
        assert reuse_count() - before == 1
        assert len(reused_events) == 1
        event = reused_events[0]
        assert (event["benchmark"], event["warmup"],
                event["reference"]) == ("gzip", 2_000, 4_000)

    def test_sweeps_leave_the_shared_profile_unchanged(self):
        profile, _ = study_profile("gzip", SCALE)
        digest = profile_content_hash(profile)
        run_study(SPEC, "gzip", SCALE, verify=False)
        assert profile_content_hash(profile) == digest
        run_study(SPEC, "gzip", SCALE, verify=False, vector=True, jobs=2)
        assert profile_content_hash(profile) == digest
        assert study_profile("gzip", SCALE)[0] is profile

    def test_verify_on_a_hit_matches_a_miss(self, calls):
        miss = run_study(SPEC, "gzip", SCALE, verify=True)
        # The miss verifies on the traces it just profiled.
        assert calls == {"prepare": 1, "profile": 1}
        hit = run_study(SPEC, "gzip", SCALE, verify=True)
        # The hit prepares the windows again, but never profiles.
        assert calls == {"prepare": 2, "profile": 1}
        assert miss.eds_edp and hit.eds_edp == miss.eds_edp
        assert hit.found_optimal == miss.found_optimal
        assert hit.eds_optimal_id == miss.eds_optimal_id


class TestMemoKeys:
    def test_failed_prepare_is_not_memoized(self, calls, monkeypatch):
        real_prepare = common.prepare_benchmark

        def broken(*args, **kwargs):
            raise RuntimeError("prepare failed")

        monkeypatch.setattr(common, "prepare_benchmark", broken)
        with pytest.raises(RuntimeError, match="prepare failed"):
            study_profile("gzip", SCALE)
        monkeypatch.setattr(common, "prepare_benchmark", real_prepare)
        before = reuse_count()
        profile, traces = study_profile("gzip", SCALE)
        assert profile is not None and traces is not None
        assert calls["profile"] == 1
        assert reuse_count() == before

    def test_concurrent_misses_profile_once(self, calls, monkeypatch):
        real_profile = profiler.profile_trace

        def slow(*args, **kwargs):
            time.sleep(0.2)  # hold the miss open for the other threads
            return real_profile(*args, **kwargs)

        monkeypatch.setattr(profiler, "profile_trace", slow)
        threads_n = 4  # more threads than the host's cores
        barrier = threading.Barrier(threads_n)
        got = []

        def worker():
            barrier.wait()
            got.append(study_profile("gzip", SCALE)[0])

        threads = [threading.Thread(target=worker)
                   for _ in range(threads_n)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(got) == threads_n
        assert all(profile is got[0] for profile in got)
        assert calls == {"prepare": 1, "profile": 1}

    def test_windows_get_separate_entries(self, calls):
        scales = (SCALE, replace(SCALE, warmup=3_000),
                  replace(SCALE, reference=5_000))
        profiles = [study_profile("gzip", scale)[0] for scale in scales]
        assert calls["profile"] == 3
        assert len({id(profile) for profile in profiles}) == 3
        # Synthesis knobs are not part of the key.
        again = study_profile(
            "gzip", replace(SCALE, seeds=(1, 2), reduction_factor=2.0))
        assert again[0] is profiles[0]
        assert calls["profile"] == 3

    def test_hit_returns_no_traces(self):
        _, traces = study_profile("gzip", SCALE)
        assert traces is not None
        _, traces = study_profile("gzip", SCALE)
        assert traces is None
