#!/usr/bin/env python3
"""perfbench: the repository's end-to-end benchmark.

Run from the repository root::

    python3 perfbench/run.py --workload sweep-cold --seed 1 --seconds 30
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

Workloads (see perfbench/README.md for why each exists):

* ``sweep-cold``   — the reduced section 4.6 grid through ``run_study``
  / ``SweepEngine`` at jobs=2 into a fresh result cache, twolf then
  gzip, quick-scale profiles, R=4, four seeds, no verification;
* ``fig6-suite``   — ``repro.experiments.fig6_absolute.run`` over all
  ten benchmarks at the default scale, serial;
* ``service-warm`` — one client in a closed loop against a
  ``repro serve --workers 1`` daemon whose shared cache is pre-warmed,
  so every evaluation is a cache hit.

Every timed pass runs in a fresh interpreter (``iteration.py``).  The
run repeats passes while the next one is projected to end within
``--seconds`` (at least one), and reports medians.  ``--trace 0``
times end-to-end metrics with tracing off; ``--trace 1`` splits the
budget between untraced and traced passes and reports the per-layer
metrics and ledger instead.

The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (``{name: {"value", "unit"}}``).  Host and
build facts and every printed metric are appended to
``.perfbench/results.jsonl``.  Exit status: 0 when every check passes,
1 when one fails, 2 when the program's sources are missing.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench"
WORKLOADS = ("sweep-cold", "fig6-suite", "service-warm")

#: End-to-end metrics declared in BENCHMARK.json: every workload emits
#: them, and a change may not worsen them beyond their bounds.
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"),
              ("peak_rss_mb", "MB"))
#: Printed and recorded, but only where the workload produces them (a
#: declared metric must exist on every workload and never be 0).
WORKLOAD_METRICS = {
    "sweep-cold": (),
    "fig6-suite": (("ipc_error_pct", "%"), ("edp_error_pct", "%")),
    "service-warm": (("job_p50_s", "s"), ("job_tail_s", "s")),
}
MIN_SETUP_SAMPLES = {"sweep-cold": 5, "fig6-suite": 5, "service-warm": 1}
#: A run must end within 180 s; children get what is left of this.
RUN_BUDGET_S = 170.0


class ChildError(RuntimeError):
    pass


def src_hash():
    """Content hash of the program's sources: identifies the build in a
    checkout that is not a git repository."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def host_facts(seed):
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                capture_output=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            sha = None
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "loadavg_start": list(os.getloadavg()),
            "python": platform.python_version(),
            "numpy": numpy_version,
            "machine": platform.machine(),
            "git_sha": sha, "src_hash": src_hash(), "seed": seed}


def reap_group(pgid, timeout=10.0):
    """Kill what a pass left in its process group (pool workers or a
    daemon after a crash) and wait until the group is empty."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.05)


class Runner:
    """Spawns passes for one workload run and keeps the deadline."""

    def __init__(self, workload, seed, size):
        self.workload = workload
        self.seed = seed
        self.size = size
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.count = 0
        self.tmp = STATE / "tmp" / f"{os.getpid()}"
        self.tmp.mkdir(parents=True, exist_ok=True)
        self.env = {key: value for key, value in os.environ.items()
                    if not key.startswith("REPRO_")}
        self.env.update(PYTHONPATH=str(ROOT / "src"),
                        TMPDIR=str(self.tmp))

    def close(self):
        shutil.rmtree(self.tmp, ignore_errors=True)

    def spawn(self, **request):
        """Run one pass in a fresh interpreter; returns its record."""
        self.count += 1
        work = self.tmp / f"pass{self.count}"
        work.mkdir()
        request.update(workload=self.workload, seed=self.seed,
                       size=self.size,
                       work_dir=os.path.relpath(work, ROOT))
        process = subprocess.Popen(
            [sys.executable, str(HERE / "iteration.py"),
             json.dumps(request)],
            cwd=ROOT, env=self.env, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, start_new_session=True)
        try:
            stdout, stderr = process.communicate(
                timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(process.pid, signal.SIGKILL)
            process.communicate()
            raise ChildError(f"{request['mode']} pass exceeded the run "
                             f"budget of {RUN_BUDGET_S:.0f} s")
        finally:
            reap_group(process.pid)
        if process.returncode != 0:
            raise ChildError(f"{request['mode']} pass exited "
                             f"{process.returncode}:\n"
                             + stderr.strip()[-2000:])
        return json.loads(stdout.strip().splitlines()[-1])


def run_passes(runner, modes, seconds):
    """Passes of each mode while the next is projected to fit in the
    mode's share of *seconds*; then set-up-only passes until there are
    enough set-up samples."""
    if runner.workload == "service-warm":
        return [runner.spawn(mode="loop", phases=modes,
                             seconds=seconds / len(modes))]
    children = []
    for mode in modes:
        started = time.monotonic()
        durations = []
        while True:
            begun = time.monotonic()
            children.append(runner.spawn(mode=mode))
            durations.append(time.monotonic() - begun)
            if time.monotonic() - started + statistics.mean(durations) \
                    > seconds / len(modes):
                break
    while len(children) < MIN_SETUP_SAMPLES[runner.workload]:
        children.append(runner.spawn(mode="setup"))
    return children


def tail_latency(values):
    """The highest latency percentile with at least ten samples beyond
    it: ``(value, percentile)``, or None with fewer than 11 samples."""
    ordered = sorted(values)
    if len(ordered) < 11:
        return None
    index = len(ordered) - 11
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def check_repeatable(children, key, failures):
    """Simulated statistics and exact counts must not move between the
    passes of a run, with tracing on or off, nor between runs of one
    build, seed and mode (kept in ``.perfbench/fingerprints.json``)."""
    from ledger import EXACT_COUNTS

    observed = {}
    for child in children:
        for value in child["digests"].values():
            observed.setdefault("metrics digest", set()).add(value)
        for source in ("values", "layers"):
            for name in EXACT_COUNTS:
                if name in (child.get(source) or {}):
                    observed.setdefault(f"{name} ({source})", set()).add(
                        child[source][name])
    fingerprint = {}
    for name, seen in sorted(observed.items()):
        if len(seen) > 1:
            failures.append(f"{name} differs between passes: "
                            f"{sorted(seen)}")
        else:
            fingerprint[name] = seen.pop()
    store = STATE / "fingerprints.json"
    known = json.loads(store.read_text()) if store.exists() else {}
    earlier = known.setdefault(key, {})
    for name, value in fingerprint.items():
        if earlier.setdefault(name, value) != value:
            failures.append(f"{name} {value} differs from an earlier run "
                            f"of this build, seed and mode "
                            f"({earlier[name]})")
    STATE.mkdir(exist_ok=True)
    store.write_text(json.dumps(known, indent=1, sort_keys=True))


def run_workload(workload, seed, seconds, trace, size):
    import ledger

    facts = host_facts(seed)
    modes = ["plain", "traced"] if trace else ["plain"]
    runner = Runner(workload, seed, size)
    failures = []
    children = []
    try:
        children = run_passes(runner, modes, seconds)
    except ChildError as exc:
        failures.append(str(exc))
    finally:
        runner.close()
    facts["loadavg_end"] = list(os.getloadavg())

    timed = [child for child in children if child["iterations"]]
    passes = {mode: [it for child in timed for it in child["iterations"]
                     if it["mode"] == mode] for mode in modes}
    for child in children:
        failures += [f"{c['name']}: {c['detail']}"
                     for c in child["checks"] if not c["ok"]]
    if children:
        check_repeatable(children, f"{workload}|{size}|{seed}|trace="
                         f"{int(trace)}|{facts['src_hash']}", failures)
    attempted = sum(child["attempted"] for child in timed)
    failed = min(max(attempted, 1),
                 sum(child["failed"] for child in timed) + len(failures))
    correct = not failures and bool(passes["plain"]) and failed == 0

    printed = {}
    counts = {}

    def put(name, value, unit, samples):
        printed[name] = {"value": value, "unit": unit}
        counts[name] = samples

    if passes["plain"]:
        setups = [child["setup_s"] for child in children]
        put("setup_s", statistics.median(setups), "s", len(setups))
        put("wall_s", statistics.median(
            it["wall_s"] for it in passes["plain"]), "s",
            len(passes["plain"]))
        put("cpu_s", statistics.median(
            it["cpu_s"] for it in passes["plain"]), "s",
            len(passes["plain"]))
        put("peak_rss_mb", statistics.median(
            child["peak_rss_mb"] for child in timed), "MB", len(timed))
        put("error_rate", failed / max(attempted, 1), "ratio", attempted)
        values = timed[0]["values"]
        if workload == "fig6-suite" and "ipc_error_pct" in values:
            put("ipc_error_pct", values["ipc_error_pct"], "%", 1)
            put("edp_error_pct", values["edp_error_pct"], "%", 1)
        if workload == "service-warm":
            latencies = [info["latency"]
                         for info in values["latencies"].values()
                         if info["phase"] == "plain"]
            put("job_p50_s", statistics.median(latencies), "s",
                len(latencies))
            tail = tail_latency(latencies)
            if tail is not None:
                put("job_tail_s", tail[0], "s", len(latencies))
                counts["job_tail_s"] = (f"p{tail[1]:.0f} of "
                                        f"{len(latencies)}")

    layers = None
    if trace and passes["traced"]:
        traced = [child["layers"] for child in timed if child["layers"]]
        layers = {name: statistics.mean(layer[name] for layer in traced)
                  for name, _ in ledger.LAYERS}
        layers["obs.trace_overhead_pct"] = 100.0 * (
            statistics.median(it["wall_s"] for it in passes["traced"])
            / statistics.median(it["wall_s"] for it in passes["plain"])
            - 1.0)

    print(f"perfbench {workload} seed={seed} size={size} "
          f"trace={int(trace)} seconds={seconds}")
    print("facts: " + json.dumps(facts, sort_keys=True))
    for failure in failures:
        print(f"CHECK FAILED: {failure}")
    for name, metric in printed.items():
        print(f"  {name:<14} {metric['value']:>14.6g} "
              f"{metric['unit']:<6} (n={counts[name]})")
    if layers is not None:
        traced_wall = statistics.median(
            it["wall_s"] for it in passes["traced"])
        print(ledger.render(workload, layers, traced_wall))

    STATE.mkdir(exist_ok=True)
    with open(STATE / "results.jsonl", "a", encoding="utf-8") as handle:
        handle.write(json.dumps({
            "workload": workload, "size": size, "trace": int(trace),
            "seconds": seconds, "facts": facts, "correct": correct,
            "attempted": attempted, "failed": failed,
            "failures": failures, "metrics": printed,
            "samples": counts, "layers": layers}, sort_keys=True) + "\n")

    if trace:
        metrics = {name: {"value": (layers or {}).get(name, 0.0),
                          "unit": unit} for name, unit in ledger.LAYERS}
    else:
        metrics = {name: printed.get(name, {"value": 0.0, "unit": unit})
                   for name, unit in END_TO_END}
    return {"correct": correct, "attempted": max(attempted, 1),
            "failed": failed, "metrics": metrics}


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description="Run one perfbench workload (or all three).")
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "toy"),
                        default="full",
                        help="toy shrinks every workload (smoke test)")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}; "
              f"run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    ok = True
    for workload in workloads:
        result = run_workload(workload, args.seed, args.seconds,
                              bool(args.trace), args.size)
        ok = ok and result["correct"]
        print(json.dumps(result), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
