#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at toy size (about a minute).

Run from the repository root::

    python3 perfbench/smoke.py

It checks that:

* every workload emits every end-to-end metric (``--trace 0``) and
  every per-layer metric (``--trace 1``) named in BENCHMARK.json, each
  with its unit, and prints the workload-only metrics by name;
* tampered results trip the checks: a metrics digest or an exact count
  that differs between passes, or from an earlier run of the same
  build, seed and mode, and a service job that is not ``done`` or was
  not served from the cache;
* a run whose pass reports a tampered digest ends incorrect, counts the
  failure in ``failed`` and exits non-zero.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import ledger  # noqa: E402
import run  # noqa: E402

LINE = re.compile(r"^  (\S+)\s+(\S+)\s+(\S+)\s+\(n=")


def bench(*args):
    process = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--size", "toy",
         "--seed", "7", "--seconds", "4", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert process.returncode == 0, process.stdout + process.stderr
    results = [json.loads(line) for line in process.stdout.splitlines()
               if line.startswith('{"correct"')]
    printed = {}
    for line in process.stdout.splitlines():
        if line.startswith("perfbench "):
            workload = line.split()[1]
        match = LINE.match(line)
        if match:
            printed.setdefault(workload, {})[match[1]] = match[3]
    return results, printed


def expect_metrics(result, declared):
    assert result["correct"] is True, result
    assert result["failed"] == 0 and result["attempted"] >= 1, result
    assert set(result["metrics"]) == set(declared), \
        sorted(set(result["metrics"]) ^ set(declared))
    for name, metric in result["metrics"].items():
        assert metric["unit"] == declared[name], (name, metric)
        assert isinstance(metric["value"], (int, float)), (name, metric)


def test_metrics_emitted(contract):
    end_to_end = {m["name"]: m["unit"] for m in contract["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in contract["per_layer"]}
    assert end_to_end == dict(run.END_TO_END)
    assert per_layer == dict(ledger.LAYERS)

    results, printed = bench("--workload", "all", "--trace", "0")
    assert len(results) == len(run.WORKLOADS)
    for workload, result in zip(run.WORKLOADS, results):
        expect_metrics(result, end_to_end)
        for name in ("setup_s", "wall_s", "cpu_s"):
            assert result["metrics"][name]["value"] > 0, (workload, name)
        wanted = dict(run.END_TO_END, error_rate="ratio",
                      **dict(run.WORKLOAD_METRICS[workload]))
        assert printed[workload] == wanted, (workload, printed[workload])

    results, _ = bench("--workload", "all", "--trace", "1")
    for workload, result in zip(run.WORKLOADS, results):
        expect_metrics(result, per_layer)
        layers = {name: m["value"] for name, m in result["metrics"].items()}
        assert layers["frontend.prepare_s"] > 0, workload
        assert layers["core.profiler.profile_s"] > 0, workload
    sweep, fig6, service = (
        {name: m["value"] for name, m in r["metrics"].items()}
        for r in results)
    assert sweep["dse.engine.evaluations"] > 0
    assert sweep["core.synthetic.handoff_s"] > 0
    assert sweep["dse.cache.writes"] == sweep["dse.engine.evaluations"]
    assert fig6["cpu.pipeline.execution_s"] > 0
    assert fig6["frontend.warm_s"] > 0
    assert service["dse.cache.hit_ratio"] == 1.0
    assert service["dse.engine.evaluations"] == 0
    assert service["service.job_s"] > 0


def test_tampering_trips_checks(scratch):
    import iteration

    run.STATE = scratch
    child = {"digests": {"plain": "a" * 16, "traced": "a" * 16},
             "values": {"dse.cache.hits": 4}, "layers": None}
    failures = []
    run.check_repeatable([child, child], "key", failures)
    assert failures == [], failures
    tampered = dict(child, digests={"plain": "a" * 16, "traced": "b" * 16})
    run.check_repeatable([tampered], "key", failures)
    assert any("digest differs between passes" in f
               for f in failures), failures

    failures = []
    run.check_repeatable([dict(child, digests={"plain": "c" * 16})],
                         "key", failures)
    assert any("digest" in f and "earlier run" in f
               for f in failures), failures

    failures = []
    run.check_repeatable(
        [child, dict(child, values={"dse.cache.hits": 5})], "key",
        failures)
    assert any("dse.cache.hits (values) differs between passes" in f
               for f in failures), failures

    failures = []
    run.check_repeatable([dict(child, values={"dse.cache.hits": 6})],
                         "key", failures)
    assert any("dse.cache.hits" in f and "earlier run" in f
               for f in failures), failures

    good = {"state": "done", "evaluations": 0, "cached": 66,
            "expected": 66}
    assert iteration.bad_jobs({"j1": good}) == {}
    for change in ({"state": "failed"}, {"evaluations": 3},
                   {"cached": 65}):
        assert list(iteration.bad_jobs(
            {"j1": good, "j2": dict(good, **change)})) == ["j2"], change


def test_failed_check_fails_run(scratch):
    run.STATE = scratch
    spawn = run.Runner.spawn
    calls = []

    def tampering_spawn(self, **request):
        record = spawn(self, **request)
        calls.append(request["mode"])
        if request["mode"] == "traced":
            record["digests"]["traced"] = "0" * 16
        return record

    run.Runner.spawn = tampering_spawn
    try:
        result = run.run_workload("sweep-cold", 7, 0.1, True, "toy")
    finally:
        run.Runner.spawn = spawn
    assert "traced" in calls, calls
    assert result["correct"] is False, result
    assert result["failed"] >= 1, result


def main():
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    scratch = ROOT / ".perfbench" / "smoke"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    try:
        test_tampering_trips_checks(scratch)
        test_failed_check_fails_run(scratch)
        test_metrics_emitted(contract)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print("perfbench smoke: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
