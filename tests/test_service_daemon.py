"""Service daemon: end-to-end over a real Unix socket.

In-process tests drive a Daemon inside ``asyncio.run`` and talk to it
with the blocking :class:`ServiceClient` via ``asyncio.to_thread``;
the crash-recovery tests run ``repro serve`` as a real subprocess and
``kill -9`` it.
"""

import asyncio
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.errors import JobRejectedError, ServiceError
from repro.faults import ChaosPlan
from repro.service import Daemon, ServiceClient, ServiceConfig
from repro.service.jobs import JobStore

SRC = Path(__file__).resolve().parent.parent / "src"


def make_config(tmp_path, **overrides):
    defaults = dict(state_dir=tmp_path / "state", workers=1,
                    heartbeat_interval=0.05, drain_deadline=0.3,
                    lease_ttl=5.0, checkpoint_every=1000)
    defaults.update(overrides)
    return ServiceConfig(**defaults)


def run_scenario(config, scenario, **daemon_kwargs):
    """Start a daemon, run ``await scenario(daemon, client)``, drain."""
    daemon_kwargs.setdefault("fault_plan", None)

    async def main():
        daemon = Daemon(config, **daemon_kwargs)
        await daemon.start()
        client = ServiceClient(config.socket_path, client_id="test",
                               backoff_base=0.01, backoff_cap=0.1)
        try:
            return await scenario(daemon, client)
        finally:
            daemon.request_stop("test")
            await daemon.shutdown()

    return asyncio.run(main())


def call(fn, *args, **kwargs):
    """Run a blocking client call off the event loop."""
    return asyncio.to_thread(fn, *args, **kwargs)


SLEEP = {"kind": "sleep", "seconds": 0.05}


class TestLifecycle:
    def test_submit_wait_done(self, tmp_path):
        async def scenario(daemon, client):
            response = await call(client.submit, SLEEP)
            assert response["created"]
            job_id = response["job"]["job_id"]
            final = await call(client.wait, job_id, 10.0)
            assert final["state"] == "done"
            listing = await call(client.jobs)
            assert [j["state"] for j in listing] == ["done"]
            status = await call(client.status)
            assert status["counts"]["done"] == 1
            return daemon.store.get(job_id)

        job = run_scenario(make_config(tmp_path), scenario)
        assert job.result["slept"] == 0.05

    def test_unknown_kind_fails_cleanly(self, tmp_path):
        async def scenario(daemon, client):
            response = await call(client.submit, {"kind": "nonsense"})
            final = await call(client.wait,
                               response["job"]["job_id"], 10.0)
            assert final["state"] == "failed"
            assert "unknown job kind" in final["error"]

        run_scenario(make_config(tmp_path), scenario)

    def test_resubmit_dedups_in_flight(self, tmp_path):
        async def scenario(daemon, client):
            long = {"kind": "sleep", "seconds": 3.0}
            first = await call(client.submit, long)
            second = await call(client.submit, long)
            assert first["job"]["job_id"] == second["job"]["job_id"]
            assert first["created"] and not second["created"]
            assert len(daemon.store.jobs) == 1

        run_scenario(make_config(tmp_path), scenario)

    def test_cancel_queued_job(self, tmp_path):
        async def scenario(daemon, client):
            blocker = await call(client.submit,
                                 {"kind": "sleep", "seconds": 3.0})
            queued = await call(client.submit,
                                {"kind": "sleep", "seconds": 0.01,
                                 "tag": "victim"})
            response = await call(client.cancel,
                                  queued["job"]["job_id"])
            assert response["disposition"] == "cancelled"
            final = await call(client.wait,
                               queued["job"]["job_id"], 5.0)
            assert final["state"] == "cancelled"

        run_scenario(make_config(tmp_path, workers=1), scenario)

    def test_two_daemons_one_state_dir_refused(self, tmp_path):
        config = make_config(tmp_path)

        async def scenario(daemon, client):
            rival = Daemon(make_config(tmp_path), fault_plan=None)
            with pytest.raises(ServiceError, match="already serves"):
                await rival.start()

        run_scenario(config, scenario)


class TestAdmissionControl:
    def test_queue_full_rejects_with_retry_after(self, tmp_path):
        config = make_config(tmp_path, workers=1, max_queue_depth=1)

        async def scenario(daemon, client):
            await call(client.submit, {"kind": "sleep", "seconds": 3.0})
            await asyncio.sleep(0.2)  # let the worker claim it
            await call(client.submit, {"kind": "sleep", "seconds": 1.0,
                                       "tag": "queued"})
            strict = ServiceClient(config.socket_path,
                                   client_id="other", max_attempts=1)
            with pytest.raises(JobRejectedError) as info:
                await call(strict.submit,
                           {"kind": "sleep", "seconds": 1.0,
                            "tag": "rejected"})
            assert info.value.reason == "queue-full"
            assert info.value.retry_after > 0

        run_scenario(config, scenario)

    def test_client_cap_is_per_client(self, tmp_path):
        config = make_config(tmp_path, workers=1,
                             max_client_inflight=1, max_queue_depth=32)

        async def scenario(daemon, client):
            await call(client.submit, {"kind": "sleep", "seconds": 3.0})
            capped = ServiceClient(config.socket_path,
                                   client_id="test", max_attempts=1)
            with pytest.raises(JobRejectedError) as info:
                await call(capped.submit,
                           {"kind": "sleep", "seconds": 1.0, "tag": "x"})
            assert info.value.reason == "client-cap"
            other = ServiceClient(config.socket_path,
                                  client_id="someone-else",
                                  max_attempts=1)
            response = await call(other.submit,
                                  {"kind": "sleep", "seconds": 1.0,
                                   "tag": "x"})
            assert response["created"]

        run_scenario(config, scenario)

    def test_dedup_resubmission_bypasses_caps(self, tmp_path):
        config = make_config(tmp_path, workers=1,
                             max_client_inflight=1)

        async def scenario(daemon, client):
            long = {"kind": "sleep", "seconds": 3.0}
            await call(client.submit, long)
            capped = ServiceClient(config.socket_path,
                                   client_id="test", max_attempts=1)
            response = await call(capped.submit, long)  # same content
            assert not response["created"]

        run_scenario(config, scenario)

    def test_draining_rejects_submissions(self, tmp_path):
        config = make_config(tmp_path)

        async def scenario(daemon, client):
            daemon.request_stop("test-drain")
            strict = ServiceClient(config.socket_path,
                                   client_id="late", max_attempts=1)
            with pytest.raises(JobRejectedError) as info:
                await call(strict.submit, SLEEP)
            assert info.value.reason == "draining"

        run_scenario(config, scenario)


class TestClientBackoff:
    def test_backoff_honors_retry_after(self):
        delays = []
        client = ServiceClient("/nonexistent.sock", max_attempts=4,
                               backoff_base=0.01, backoff_cap=10.0,
                               sleep=delays.append)
        rejection = {"ok": False, "reason": "queue-full",
                     "error": "full", "retry_after": 0.7}
        client._roundtrip = lambda message: rejection
        with pytest.raises(JobRejectedError) as info:
            client.request({"cmd": "submit", "payload": SLEEP})
        assert info.value.reason == "queue-full"
        assert len(delays) == 3  # retried between the 4 attempts
        assert all(delay >= 0.7 for delay in delays)

    def test_backoff_is_exponential_and_jittered(self):
        import random

        delays = []
        client = ServiceClient("/nonexistent.sock", max_attempts=5,
                               backoff_base=1.0, backoff_cap=100.0,
                               rng=random.Random(7),
                               sleep=delays.append)

        def dropped(message):
            raise ConnectionError("gone")

        client._roundtrip = dropped
        with pytest.raises(ServiceError, match="unreachable"):
            client.request({"cmd": "ping"})
        assert len(delays) == 4
        # Each ceiling doubles; jitter keeps every delay in
        # [ceiling/2, ceiling].
        for attempt, delay in enumerate(delays):
            ceiling = 1.0 * (2 ** attempt)
            assert ceiling / 2 <= delay <= ceiling

    def test_bad_request_is_not_retried(self, tmp_path):
        config = make_config(tmp_path)

        async def scenario(daemon, client):
            attempts = []
            counting = ServiceClient(config.socket_path,
                                     client_id="bad", max_attempts=5,
                                     sleep=attempts.append)
            with pytest.raises(JobRejectedError) as info:
                await call(counting.submit, {"no": "kind"})
            assert info.value.reason == "bad-request"
            assert attempts == []  # failed fast, no backoff

        run_scenario(config, scenario)


class TestSubmitDropChaos:
    def test_dropped_ack_retry_cannot_double_enqueue(self, tmp_path):
        plan = ChaosPlan.parse("seed=1;submit-drop")
        config = make_config(tmp_path)

        async def scenario(daemon, client):
            # rate=1: every *creating* submit's ack is dropped.  The
            # client retries; the retry dedups onto the existing job,
            # which no longer counts as created, so its ack goes out.
            response = await call(client.submit, SLEEP)
            assert not response["created"]  # the retry's view
            assert len(daemon.store.jobs) == 1
            final = await call(client.wait,
                               response["job"]["job_id"], 10.0)
            assert final["state"] == "done"

        run_scenario(config, scenario, fault_plan=plan)


class TestTail:
    def test_tail_streams_job_lifecycle(self, tmp_path):
        config = make_config(tmp_path)

        async def scenario(daemon, client):
            response = await call(client.submit,
                                  {"kind": "sleep", "seconds": 0.3})
            job_id = response["job"]["job_id"]
            tailer = ServiceClient(config.socket_path)
            events = await call(lambda: list(tailer.tail(job_id)))
            names = [event.get("event") for event in events]
            assert "service.job_done" in names
            assert all(event.get("job") == job_id for event in events
                       if "job" in event)

        run_scenario(config, scenario)


class TestDrain:
    def test_drain_requeues_past_deadline(self, tmp_path):
        config = make_config(tmp_path, drain_deadline=0.2)

        async def scenario(daemon, client):
            response = await call(client.submit,
                                  {"kind": "sleep", "seconds": 30.0})
            await asyncio.sleep(0.2)  # worker picks it up
            job_id = response["job"]["job_id"]
            assert daemon.store.get(job_id).state == "running"
            return job_id

        job_id = run_scenario(config, scenario)
        # After shutdown: the running job went back to the queue and
        # the final checkpoint recorded that durably.
        store = JobStore(config.state_dir)
        report = store.recover()
        assert store.get(job_id).state == "queued"
        assert store.get(job_id).requeues == 1
        assert report.dropped_lines == 0


def spawn_daemon(state_dir, *extra):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--state-dir", str(state_dir),
         "--heartbeat", "0.1", "--lease-ttl", "0.5",
         "--drain-deadline", "2", *extra],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)


def wait_for_socket(path, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if path.exists():
            return
        time.sleep(0.05)
    raise AssertionError(f"daemon socket {path} never appeared")


class TestKillDashNine:
    def test_kill9_restart_completes_everything(self, tmp_path):
        state = tmp_path / "state"
        daemon = spawn_daemon(state)
        try:
            wait_for_socket(state / "service.sock")
            client = ServiceClient(state / "service.sock",
                                   client_id="kill9")
            victim = client.submit({"kind": "sleep", "seconds": 8.0})
            quick = client.submit({"kind": "sleep", "seconds": 0.1,
                                   "tag": "quick"})
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                jobs = {j["job_id"]: j for j in client.jobs()}
                if jobs[victim["job"]["job_id"]]["state"] == "running":
                    break
                time.sleep(0.1)
            else:
                raise AssertionError("victim job never started")
            os.kill(daemon.pid, signal.SIGKILL)
            daemon.wait(timeout=10)
        finally:
            if daemon.poll() is None:
                daemon.kill()
                daemon.wait(timeout=10)

        time.sleep(0.6)  # let the lease go stale
        second = spawn_daemon(state, "--workers", "2")
        try:
            wait_for_socket(state / "service.sock")
            client = ServiceClient(state / "service.sock",
                                   client_id="kill9")
            # The interrupted 8s job was requeued; shrink it by
            # resubmitting-after-failure is not needed — just wait for
            # the quick one and assert the victim is queued/running
            # again with a recorded requeue.
            final = client.wait(quick["job"]["job_id"], timeout=30)
            assert final["state"] == "done"
            victim_state = {
                j["job_id"]: j for j in client.jobs()
            }[victim["job"]["job_id"]]
            assert victim_state["requeues"] >= 1
            assert victim_state["state"] in ("queued", "running")
            # Idempotent resubmission of the finished job is a no-op.
            again = client.submit({"kind": "sleep", "seconds": 0.1,
                                   "tag": "quick"})
            assert not again["created"]
            assert again["job"]["state"] == "done"
        finally:
            second.send_signal(signal.SIGTERM)
            try:
                second.wait(timeout=15)
            except subprocess.TimeoutExpired:
                second.kill()
                second.wait(timeout=10)
        assert second.returncode == 0


class TestProfileReuse:
    def test_second_sweep_job_reuses_the_profile(self, tmp_path):
        """Two sweep jobs on one benchmark in one daemon: the second
        takes the profile from the process memo, with identical
        results.  A subprocess daemon keeps the counter process-fresh."""
        state = tmp_path / "state"
        spec = {"name": "reuse", "mode": "grid",
                "parameters": {"ruu_size": [32, 64]}}
        payloads = [{"kind": "sweep", "benchmark": "gzip",
                     "scale": "quick", "spec": spec, "seeds": [0],
                     "cache_dir": str(tmp_path / f"cache-{name}")}
                    for name in ("a", "b")]
        daemon = spawn_daemon(state, "--workers", "1")
        try:
            wait_for_socket(state / "service.sock")
            client = ServiceClient(state / "service.sock",
                                   client_id="reuse")
            job_ids = [client.submit(payload)["job"]["job_id"]
                       for payload in payloads]
            for job_id in job_ids:
                assert client.wait(job_id, timeout=120)["state"] \
                    == "done"
            counters = client.metrics()["metrics"]["counters"]
        finally:
            daemon.send_signal(signal.SIGTERM)
            try:
                daemon.wait(timeout=15)
            except subprocess.TimeoutExpired:
                daemon.kill()
                daemon.wait(timeout=10)
        assert counters.get("dse.profile_reuse") == 1
        store = JobStore(state)
        store.recover()
        rows = [dict(store.get(job_id).result) for job_id in job_ids]
        for result in rows:
            assert result.pop("sweep_seconds") >= 0
        assert rows[0] == rows[1]
        assert rows[0]["evaluations"] == 2


class TestMetricsVerb:
    def test_metrics_aggregates_and_renders(self, tmp_path):
        from repro.obs.exposition import validate_openmetrics

        config = make_config(tmp_path)

        async def scenario(daemon, client):
            response = await call(client.submit, SLEEP)
            await call(client.wait, response["job"]["job_id"], 10.0)
            return await call(client.metrics)

        response = run_scenario(make_config(tmp_path), scenario)
        assert response["ok"]
        assert response["counts"]["done"] == 1
        assert response["queue_depth"] == 0
        assert response["workers"] == 1
        snapshot = response["metrics"]
        # The registry is process-global across in-process daemon
        # tests, so counts are lower bounds.
        assert snapshot["counters"]["service.jobs_done"] >= 1
        assert "job" in snapshot["phases"]
        assert snapshot["phases"]["job"]["p50"] is not None
        text = response["openmetrics"]
        assert validate_openmetrics(text) == []
        assert "repro_service_jobs_done_total" in text

    def test_metrics_on_idle_daemon(self, tmp_path):
        async def scenario(daemon, client):
            return await call(client.metrics)

        response = run_scenario(make_config(tmp_path), scenario)
        assert response["ok"]
        assert response["counts"]["done"] == 0
        assert not response["draining"]


class TestTraceStitching:
    def test_job_span_parents_under_submitted_trace(self, tmp_path):
        from repro.obs.traceview import load_spans

        config = make_config(tmp_path)
        trace_id, parent_id = "ab" * 16, "cd" * 8

        async def scenario(daemon, client):
            message = {"cmd": "submit", "payload": dict(SLEEP),
                       "client": "traced",
                       "trace": {"trace": trace_id,
                                 "parent": parent_id}}
            response = await call(client.request, message)
            job_id = response["job"]["job_id"]
            await call(client.wait, job_id, 10.0)
            # Same payload without the trace dedups onto the same
            # job: the context rides outside the idempotency hash.
            again = await call(client.submit, dict(SLEEP))
            assert not again["created"]
            assert again["job"]["job_id"] == job_id
            return job_id

        job_id = run_scenario(config, scenario)
        spans = load_spans(config.state_dir / "telemetry")
        job_spans = [span for span in spans
                     if span["phase"] == "job"
                     and span["fields"].get("job") == job_id]
        assert job_spans, "daemon must record the job span"
        assert job_spans[0]["trace"] == trace_id
        assert job_spans[0]["parent"] == parent_id

    def test_untraced_submission_still_spans(self, tmp_path):
        from repro.obs.traceview import load_spans

        config = make_config(tmp_path)

        async def scenario(daemon, client):
            response = await call(client.submit, dict(SLEEP))
            job_id = response["job"]["job_id"]
            await call(client.wait, job_id, 10.0)
            return job_id

        job_id = run_scenario(config, scenario)
        spans = load_spans(config.state_dir / "telemetry")
        job_spans = [span for span in spans
                     if span["phase"] == "job"
                     and span["fields"].get("job") == job_id]
        assert job_spans  # daemon's own context roots the span

    def test_drain_dumps_flight_recorder(self, tmp_path):
        config = make_config(tmp_path)

        async def scenario(daemon, client):
            await call(client.ping)
            daemon.request_stop("SIGTERM")

        run_scenario(config, scenario)
        dumps = list((config.state_dir / "telemetry")
                     .glob("flightrec-*.jsonl"))
        assert dumps
        header = json.loads(dumps[0].read_text().splitlines()[0])
        assert header["reason"] == "drain-sigterm"


class TestTailReconnect:
    def make_client(self, streams, sleeps):
        client = ServiceClient("/nonexistent.sock", max_attempts=3,
                               backoff_base=0.01, backoff_cap=0.05,
                               sleep=sleeps.append)
        iterator = iter(streams)

        def fake_stream(job_id):
            outcome = next(iterator)
            yield from outcome.get("events", [])
            if outcome.get("drop"):
                raise ConnectionError("dropped")
            yield {"tail_end": True}

        client._tail_stream = fake_stream
        return client

    def counter_value(self):
        from repro.obs import get_registry

        return get_registry().snapshot()["counters"].get(
            "tail.reconnects", 0)

    def test_drop_reconnects_and_resumes(self):
        sleeps = []
        before = self.counter_value()
        client = self.make_client([
            {"events": [{"event": "service.job_started", "job": "j"}],
             "drop": True},
            {"events": [{"event": "service.job_done", "job": "j"}]},
        ], sleeps)
        events = list(client.tail("j"))
        assert [event["event"] for event in events] \
            == ["service.job_started", "service.job_done"]
        assert len(sleeps) == 1  # one backoff for one reconnect
        assert self.counter_value() == before + 1

    def test_attempt_budget_resets_on_received_events(self):
        sleeps = []
        streams = [{"events": [{"event": "service.job_started"}],
                    "drop": True}] * 6 \
            + [{"events": [{"event": "service.job_done"}]}]
        client = self.make_client(streams, sleeps)
        events = list(client.tail("j"))
        # 6 drops each delivered an event first, so the budget reset
        # every time and the tail survived far past max_attempts=3.
        assert len(events) == 7
        assert len(sleeps) == 6

    def test_persistent_outage_raises_after_budget(self):
        sleeps = []
        client = self.make_client([{"drop": True}] * 10, sleeps)
        with pytest.raises(ServiceError, match="stayed unreachable"):
            list(client.tail("j"))
        assert len(sleeps) == 2  # max_attempts=3 -> 2 backoffs

    def test_reconnect_false_ends_quietly(self):
        sleeps = []
        client = self.make_client([
            {"events": [{"event": "service.job_started"}],
             "drop": True}], sleeps)
        events = list(client.tail("j", reconnect=False))
        assert len(events) == 1
        assert sleeps == []
