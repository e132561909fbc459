"""One measured pass of a perfbench workload, in a fresh interpreter.

Usage (``run.py`` spawns it; running it by hand is only for debugging)::

    PYTHONPATH=src python3 perfbench/iteration.py '<json request>'

The request names the ``workload``, the workload ``seed``, the ``size``
(``full`` or ``toy``), the ``mode`` (``setup``: stop after set-up;
``plain``: tracing off; ``traced``: program telemetry on plus the
benchmark's own wrappers) and a private ``work_dir``.  ``service-warm``
also takes ``phases`` and ``seconds``: it keeps one daemon for the whole
run and loops over rounds of jobs inside this process.

The last line on stdout is one JSON record: ``setup_s``,
``peak_rss_mb``, ``iterations`` (wall and CPU time of each timed pass,
by mode), ``attempted``/``failed`` operations, ``checks``, the metrics
``digests`` per mode, workload ``values`` and, when traced, ``layers``.

Each pass starts in a fresh interpreter so that in-process caches
(sampler tables, profiler context caches) never carry over, just as
for a user running ``repro dse`` or ``repro experiment fig6``.
"""

import dataclasses
import hashlib
import itertools
import json
import os
import random
import resource
import signal
import subprocess
import sys
import time
from pathlib import Path

# Set-up time starts here: the package import is part of it.
T0 = time.perf_counter()

import repro  # noqa: E402,F401
from repro.dse.space import reduced_sec46_spec  # noqa: E402
from repro.obs import telemetry  # noqa: E402
from repro.obs.traceview import load_spans  # noqa: E402
from repro.experiments.common import (  # noqa: E402
    DEFAULT_SCALE, QUICK_SCALE, ExperimentScale)

import ledger  # noqa: E402

TOY_SCALE = ExperimentScale(warmup=2_000, reference=4_000,
                            reduction_factor=4.0, seeds=(0,),
                            benchmarks=("gzip", "twolf"))


@dataclasses.dataclass(frozen=True)
class Size:
    """Workload dimensions for one size."""

    sweep_benchmarks: tuple
    sweep_scale: ExperimentScale
    sweep_seeds: int
    grid: dict
    fig6_scale: ExperimentScale
    fig6_seeds: int
    service_benchmarks: tuple
    service_pool: int
    service_subset: int


FULL_GRID = {"ruu_sizes": (16, 32, 64, 128), "lsq_sizes": (8, 16, 32),
             "widths": (2, 4, 8)}

SIZES = {
    "full": Size(
        sweep_benchmarks=("twolf", "gzip"), sweep_scale=QUICK_SCALE,
        sweep_seeds=4, grid=FULL_GRID,
        fig6_scale=DEFAULT_SCALE, fig6_seeds=3,
        service_benchmarks=("twolf", "gzip"), service_pool=7,
        service_subset=3),
    "toy": Size(
        sweep_benchmarks=("gzip",), sweep_scale=TOY_SCALE,
        sweep_seeds=1,
        grid={"ruu_sizes": (16, 32), "lsq_sizes": (8,), "widths": (2,)},
        fig6_scale=TOY_SCALE, fig6_seeds=1,
        service_benchmarks=("gzip",), service_pool=12,
        service_subset=1),
}

#: Pool width for the sweep and the cache warm-up: never more than the
#: two CPUs the benchmark is sized for.
JOBS = 2


def derive_seeds(seed, count, salt):
    """*count* distinct synthesis seeds, a pure function of the workload
    seed, so the program only ever sees generated inputs."""
    return sorted(random.Random(f"{salt}:{seed}").sample(
        range(1, 2 ** 31), count))


def digest(payload):
    text = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def cpu_seconds(live_pids=()):
    """CPU time of this process, its reaped children and *live_pids*
    (children still running, read from /proc)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    total = own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime
    ticks = os.sysconf("SC_CLK_TCK")
    for pid in live_pids:
        fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1]
        fields = fields.split()
        total += (int(fields[11]) + int(fields[12])) / ticks
    return total


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


class Outcome:
    """What one child reports back to ``run.py``."""

    def __init__(self):
        self.iterations = []
        self.checks = []
        self.attempted = 0
        self.failed = 0
        self.digests = {}
        self.values = {}
        self.layers = None
        self.setup_s = None

    def check(self, name, ok, detail=""):
        self.checks.append({"name": name, "ok": bool(ok),
                            "detail": str(detail)})

    def to_payload(self):
        return {"setup_s": self.setup_s, "peak_rss_mb": peak_rss_mb(),
                "iterations": self.iterations, "checks": self.checks,
                "attempted": self.attempted, "failed": self.failed,
                "digests": self.digests, "values": self.values,
                "layers": self.layers}


class Recorder:
    """In-memory spans around public calls the program has no span for.

    ``wrap`` swaps an attribute for a timing wrapper; ``restore`` puts
    every original back.  Spans are kept in memory and read when the
    pass ends."""

    def __init__(self):
        self.spans = []
        self._undo = []

    def wrap(self, owner, attr, classify, count=lambda args, out: 1):
        original = getattr(owner, attr)
        spans = self.spans

        def wrapper(*args, **kwargs):
            caller = sys._getframe(1).f_code.co_name
            started = time.perf_counter()
            out = original(*args, **kwargs)
            elapsed = time.perf_counter() - started
            spans.append({"name": classify(args, caller),
                          "elapsed": elapsed, "count": count(args, out)})
            return out

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def wrap_simulation(self):
        """The splits of a synthetic or execution-driven simulation."""
        import repro.core.framework as framework
        import repro.frontend.warming as warming
        from repro.core.synthetic import SyntheticTrace
        from repro.cpu.source import ExecutionDrivenSource
        from repro.power.wattch import WattchPowerModel

        self.wrap(SyntheticTrace, "to_fetch_slots",
                  lambda args, caller: "core.synthetic.handoff",
                  count=lambda args, out: len(out))
        self.wrap(framework, "simulate",
                  lambda args, caller: (
                      "cpu.pipeline.execution"
                      if isinstance(args[1], ExecutionDrivenSource)
                      else "cpu.pipeline.synthetic"),
                  count=lambda args, out: out.cycles)
        self.wrap(WattchPowerModel, "energy_per_cycle",
                  lambda args, caller: "power.wattch.power")
        # Warming runs inside profiling too (already inside the profile
        # span); only the execution-driven warm-up is its own layer.
        self.wrap(warming, "warm_locality_structures",
                  lambda args, caller: (
                      "frontend.warm" if caller == "run_execution_driven"
                      else "frontend.warm.profile"))

    def restore(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


# -- sweep-cold --------------------------------------------------------


def sweep_tasks(sweeps):
    """Per-(benchmark, point, seed) metrics of every (benchmark, sweep)
    pair, in order."""
    return [[bench, point.point.point_id, seed, point.per_seed[seed]]
            for bench, sweep in sweeps
            for point in sweep.results
            for seed in sorted(point.per_seed)]


def sweep_cold(request, size, out):
    from repro.dse.study import run_study

    spec = reduced_sec46_spec(**size.grid)
    points = len(spec.expand())
    seeds = derive_seeds(request["seed"], size.sweep_seeds, "sweep-cold")
    work = Path(request["work_dir"])
    traced = request["mode"] == "traced"
    out.setup_s = time.perf_counter() - T0
    if request["mode"] == "setup":
        return

    recorder = Recorder()
    if traced:
        from repro.dse.cache import ResultCache

        telemetry.start(trace_dir=work / "trace")
        recorder.wrap(ResultCache, "put",
                      lambda args, caller: "dse.cache.put")
    cpu0, wall0 = cpu_seconds(), time.perf_counter()
    studies = [run_study(spec, bench, size.sweep_scale, jobs=JOBS,
                         cache_dir=str(work / "cache"), seeds=seeds,
                         verify=False)
               for bench in size.sweep_benchmarks]
    wall = time.perf_counter() - wall0
    out.iterations.append({"mode": request["mode"], "wall_s": wall,
                           "cpu_s": cpu_seconds() - cpu0})
    if traced:
        telemetry.reset()

    tasks = sweep_tasks([(study.benchmark, study.sweep)
                         for study in studies])
    out.digests[request["mode"]] = digest(tasks)
    sweeps = [study.sweep for study in studies]
    out.attempted = sum(s.total_tasks + s.unstarted for s in sweeps)
    out.failed = sum(s.failed + s.quarantined + s.unstarted
                     for s in sweeps)
    expected = points * len(seeds)
    for study in studies:
        sweep = study.sweep
        out.check(f"{study.benchmark}: every point ok",
                  all(r.ok for r in sweep.results)
                  and len(sweep.results) == points,
                  f"{len(sweep.ok_results)}/{points} ok")
        out.check(f"{study.benchmark}: no failed or quarantined "
                  f"evaluation",
                  sweep.failed == 0 and sweep.quarantined == 0
                  and not sweep.interrupted,
                  sweep.summary())
        out.check(f"{study.benchmark}: every evaluation fresh",
                  sweep.evaluated == expected and sweep.cached == 0,
                  f"{sweep.evaluated} evaluated, {sweep.cached} cached, "
                  f"expected {expected}")
    stats = [s.cache_stats or {} for s in sweeps]
    out.values.update({
        "dse.engine.evaluations": sum(s.evaluated for s in sweeps),
        "dse.cache.hits": sum(s.cached for s in sweeps),
        "dse.cache.writes": sum(int(st.get("writes", 0))
                                for st in stats),
        "dse.cache.io_errors": sum(int(st.get("io_errors", 0))
                                   for st in stats),
        "core.synthesis.instructions": sum(
            int(metrics["synthetic_instructions"])
            for _, _, _, metrics in tasks),
    })
    if not traced:
        return

    # The hand-off, pipeline and power splits run inside pool workers;
    # take them by evaluating the same tasks in process.  The engine
    # derives the same per-task seeds at jobs=1, so the metrics must
    # match the pool's bit for bit.
    from repro.dse.engine import SweepEngine
    from repro.dse.study import profile_benchmark

    recorder.wrap_simulation()
    serial = []
    for bench in size.sweep_benchmarks:
        profile, _, _ = profile_benchmark(bench, size.sweep_scale)
        engine = SweepEngine(profile, jobs=1, experiment=spec.name,
                             benchmark=bench)
        sweep = engine.evaluate(spec.expand(), seeds=seeds,
                                reduction_factor=(
                                    size.sweep_scale.reduction_factor))
        serial.append((bench, sweep))
    recorder.restore()
    out.digests["in-process"] = digest(sweep_tasks(serial))

    out.layers = ledger.layer_totals(
        load_spans(work / "trace"), recorder.spans, jobs=JOBS,
        profile_instructions=size.sweep_scale.reference)
    out.layers.update({key: out.values[key] for key in (
        "dse.engine.evaluations", "dse.cache.hits", "dse.cache.writes",
        "dse.cache.io_errors", "core.synthesis.instructions")})
    lookups = out.values["dse.engine.evaluations"] \
        + out.values["dse.cache.hits"]
    out.layers["dse.cache.hit_ratio"] = (
        out.values["dse.cache.hits"] / lookups if lookups else 0.0)


# -- fig6-suite --------------------------------------------------------


def fig6_suite(request, size, out):
    from repro.experiments import fig6_absolute

    scale = dataclasses.replace(
        size.fig6_scale,
        seeds=tuple(derive_seeds(request["seed"], size.fig6_seeds,
                                 "fig6-suite")))
    work = Path(request["work_dir"])
    traced = request["mode"] == "traced"
    out.setup_s = time.perf_counter() - T0
    if request["mode"] == "setup":
        return

    recorder = Recorder()
    if traced:
        telemetry.start(trace_dir=work / "trace")
        recorder.wrap_simulation()
    cpu0, wall0 = cpu_seconds(), time.perf_counter()
    rows = fig6_absolute.run(scale)
    wall = time.perf_counter() - wall0
    out.iterations.append({"mode": request["mode"], "wall_s": wall,
                           "cpu_s": cpu_seconds() - cpu0})
    if traced:
        telemetry.reset()
        recorder.restore()

    reported = sorted(row["benchmark"] for row in rows)
    out.attempted = len(scale.benchmarks)
    out.failed = len(set(scale.benchmarks) - set(reported))
    out.check("every benchmark reports",
              reported == sorted(scale.benchmarks),
              f"{len(reported)}/{len(scale.benchmarks)}: "
              f"{rows.report.summary() if rows.report else ''}")
    errors = [[row["benchmark"], row["ipc_error"], row["epc_error"],
               row["edp_error"]]
              for row in sorted(rows, key=lambda r: r["benchmark"])]
    out.digests[request["mode"]] = digest(errors)
    if rows:
        averages = fig6_absolute.average_errors(rows)
        out.values["ipc_error_pct"] = averages["ipc"] * 100.0
        out.values["epc_error_pct"] = averages["epc"] * 100.0
        out.values["edp_error_pct"] = averages["edp"] * 100.0
    if traced:
            out.layers = ledger.layer_totals(
            load_spans(work / "trace"), recorder.spans, jobs=JOBS,
            profile_instructions=scale.reference)


# -- service-warm ------------------------------------------------------


class Daemon:
    """A ``repro serve --workers 1`` subprocess and its client."""

    def __init__(self, work, env, trace_dir=None):
        from repro.service.client import ServiceClient

        self.state = work / "state"
        # Unix socket paths are limited to ~100 bytes: bind it relative
        # to the checkout root (the daemon and this process share it).
        sock = os.path.relpath(work / "s.sock")
        command = [sys.executable, "-m", "repro", "serve", "-q",
                   "--state-dir", str(self.state), "--socket", sock,
                   "--workers", "1"]
        if trace_dir is not None:
            command += ["--trace-dir", str(trace_dir)]
        self.log = open(work / "daemon.log", "wb")
        self.process = subprocess.Popen(command, env=env,
                                        stdout=self.log,
                                        stderr=subprocess.STDOUT)
        self.client = ServiceClient(sock, client_id="perfbench",
                                    max_attempts=1)

    def wait_ready(self, timeout=60.0):
        from repro.errors import ServiceError

        deadline = time.monotonic() + timeout
        while True:
            if self.process.poll() is not None:
                raise RuntimeError(
                    f"daemon exited with {self.process.returncode}")
            try:
                self.client.ping()
                return
            except (ServiceError, OSError):
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.02)

    def stop(self):
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.log.close()


def service_rounds(seed, size):
    """The seed pool and the rounds of distinct (benchmark, seed subset)
    jobs.  Every round holds one job per benchmark, so rounds are equal
    work; subsets are shuffled by the seed.  Every job's evaluations are
    pre-warmed and no job repeats."""
    pool = derive_seeds(seed, size.service_pool, "service-warm")
    rng = random.Random(f"order:{seed}")
    per_bench = []
    for bench in size.service_benchmarks:
        subsets = [list(subset) for subset in itertools.combinations(
            pool, size.service_subset)]
        rng.shuffle(subsets)
        per_bench.append([(bench, subset) for subset in subsets])
    return pool, [list(jobs) for jobs in zip(*per_bench)]


def bad_jobs(results):
    """Jobs that did not end ``done`` with every evaluation served from
    the warm cache."""
    return {job_id: r for job_id, r in results.items()
            if r["state"] != "done" or r["evaluations"] != 0
            or r["cached"] != r["expected"]}


def service_warm(request, size, out):
    from repro.dse.study import run_study
    from repro.errors import ServiceError
    from repro.service.jobs import JobStore

    work = Path(request["work_dir"])
    spec = reduced_sec46_spec(**size.grid)
    points = len(spec.expand())
    pool, all_rounds = service_rounds(request["seed"], size)
    cache_dir = str((work / "cache").resolve())
    payload_base = {"kind": "sweep", "scale": "quick",
                    "cache_dir": cache_dir}
    if size.grid != FULL_GRID:
        payload_base["spec"] = spec.to_dict()
    traced = "traced" in request["phases"]
    daemon = Daemon(work, dict(os.environ),
                    trace_dir=work / "trace" if traced else None)
    latencies = {}
    acks = {}
    try:
        daemon.wait_ready()
        for bench in size.service_benchmarks:
            study = run_study(spec, bench, QUICK_SCALE, jobs=JOBS,
                              cache_dir=cache_dir, seeds=pool,
                              verify=False)
            out.check(f"{bench}: cache warm-up complete",
                      study.sweep.failed == 0
                      and study.sweep.quarantined == 0,
                      study.sweep.summary())
        out.setup_s = time.perf_counter() - T0

        rounds = {}
        rejected = 0
        share = len(all_rounds) // len(request["phases"])
        for index, phase in enumerate(request["phases"]):
            if phase == "traced":
                context = telemetry.start()
            pending = all_rounds[index * share:(index + 1) * share]
            # The round count is sized to the phase's seconds; the guard
            # only keeps a slow host inside the run's time limit.
            phase_end = time.monotonic() + 2 * request["seconds"]
            rounds[phase] = []
            while pending and (not rounds[phase]
                               or time.monotonic() < phase_end):
                batch = pending.pop(0)
                live = [daemon.process.pid]
                cpu0, wall0 = cpu_seconds(live), time.perf_counter()
                ids = []
                for bench, subset in batch:
                    started = time.perf_counter()
                    out.attempted += 1
                    try:
                        ack = daemon.client.submit(
                            {**payload_base, "benchmark": bench,
                             "seeds": subset})
                    except ServiceError as exc:
                        rejected += 1
                        out.failed += 1
                        out.check(f"submit {bench} {subset}", False, exc)
                        continue
                    acked = time.perf_counter()
                    job_id = ack["job"]["job_id"]
                    acks[job_id] = {"wall": time.time(),
                                    "rtt": acked - started}
                    daemon.client.wait(job_id, timeout=120, poll=0.05)
                    latencies[job_id] = {
                        "phase": phase, "subset": len(subset),
                        "latency": time.perf_counter() - started}
                    ids.append(job_id)
                out.iterations.append({
                    "mode": phase,
                    "wall_s": time.perf_counter() - wall0,
                    "cpu_s": cpu_seconds(live) - cpu0})
                rounds[phase].append(ids)
            if phase == "traced":
                telemetry.reset()
        counters = daemon.client.metrics().get(
            "metrics", {}).get("counters", {})
    finally:
        daemon.stop()

    out.check("no submit rejections",
              rejected == 0 and counters.get("service.rejected", 0) == 0,
              f"client saw {rejected}, daemon counted "
              f"{counters.get('service.rejected', 0)}")
    store = JobStore(daemon.state)
    store.recover()
    results = {}
    for job_id, info in latencies.items():
        job = store.get(job_id)
        state = job.state if job is not None else "missing"
        result = (job.result or {}) if job is not None else {}
        results[job_id] = {"state": state,
                           "evaluations": result.get("evaluations"),
                           "cached": result.get("cached_evaluations"),
                           "expected": points * info["subset"]}
    bad = bad_jobs(results)
    out.failed += len(bad)
    out.check("every job done, every evaluation a cache hit",
              not bad and results,
              f"{len(results) - len(bad)}/{len(results)} ok"
              + (f"; first bad: {next(iter(bad.values()))}" if bad
                 else ""))
    out.values["latencies"] = latencies
    hits = sum(r["cached"] or 0 for r in results.values())
    evaluations = sum(r["evaluations"] or 0 for r in results.values())
    out.values.update({"dse.engine.evaluations": evaluations,
                       "dse.cache.hits": hits})
    if not traced:
        return

    traced_rounds = rounds.get("traced", [])
    rounds_n = max(1, len(traced_rounds))
    spans = [span for span in load_spans(work)
             if span.get("trace") == context.trace_id]
    jobs_traced = [job_id for ids in traced_rounds for job_id in ids]
    totals = ledger.layer_totals(
        spans, [], jobs=1, profile_instructions=QUICK_SCALE.reference)
    out.layers = {key: value / rounds_n if ledger.UNITS[key] == "s"
                  else value for key, value in totals.items()}
    out.layers.update(ledger.service_layers(
        spans, {job_id: acks[job_id] for job_id in jobs_traced},
        {job_id: latencies[job_id]["latency"] for job_id in jobs_traced}))
    traced_hits = sum(results[job_id]["cached"] or 0
                      for job_id in jobs_traced)
    traced_evals = sum(results[job_id]["evaluations"] or 0
                       for job_id in jobs_traced)
    out.layers.update({
        "dse.engine.evaluations": traced_evals / rounds_n,
        "dse.cache.hits": traced_hits / rounds_n,
        "dse.cache.hit_ratio": (traced_hits / (traced_hits + traced_evals)
                                if traced_hits + traced_evals else 0.0),
        "dse.cache.io_errors": counters.get("dse.cache_io_errors", 0),
    })


WORKLOADS = {"sweep-cold": sweep_cold, "fig6-suite": fig6_suite,
             "service-warm": service_warm}


def main(argv):
    request = json.loads(argv[1])
    out = Outcome()
    WORKLOADS[request["workload"]](request, SIZES[request["size"]], out)
    sys.stdout.write("\n" + json.dumps(out.to_payload()) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
