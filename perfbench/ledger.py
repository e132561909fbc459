"""Per-layer metrics from one traced pass, and the ledger view.

Two span sources feed a layer:

* the program's own telemetry spans (``prepare``, ``profile``,
  ``reduce``, ``synthesize``, ``simulate``, ``evaluate``, ``sweep``,
  ``job``), read with :func:`repro.obs.traceview.load_spans` from every
  process that took part (pool workers, the daemon);
* the benchmark's in-memory wrapper spans around public calls the
  program has no span for (``iteration.Recorder``).

A layer's self time is its span minus the part of it that child spans
cover.  Times are totals per iteration (one sweep of both benchmarks,
one Fig. 6 suite pass, one round of service jobs); ``service.*`` times
are per-job medians.
"""

import statistics
from collections import defaultdict

#: Every per-layer metric, in ledger order, with its unit.
LAYERS = [
    ("frontend.prepare_s", "s"),
    ("frontend.warm_s", "s"),
    ("core.profiler.profile_s", "s"),
    ("core.profiler.ns_per_instr", "ns"),
    ("core.reduction.reduce_s", "s"),
    ("core.synthesis.synth_s", "s"),
    ("core.synthesis.ns_per_instr", "ns"),
    ("core.synthesis.instructions", "count"),
    ("core.synthetic.handoff_s", "s"),
    ("core.synthetic.ns_per_slot", "ns"),
    ("cpu.pipeline.synthetic_s", "s"),
    ("cpu.pipeline.execution_s", "s"),
    ("cpu.pipeline.cycles", "count"),
    ("cpu.pipeline.ns_per_cycle", "ns"),
    ("power.wattch.power_s", "s"),
    ("dse.engine.evaluations", "count"),
    ("dse.engine.worker_busy_s", "s"),
    ("dse.engine.pool_efficiency", "ratio"),
    ("dse.engine.first_result_s", "s"),
    ("dse.cache.put_s", "s"),
    ("dse.cache.writes", "count"),
    ("dse.cache.get_s", "s"),
    ("dse.cache.hits", "count"),
    ("dse.cache.hit_ratio", "ratio"),
    ("dse.cache.io_errors", "count"),
    ("service.submit_rtt_s", "s"),
    ("service.queue_wait_s", "s"),
    ("service.job_s", "s"),
    ("service.overhead_s", "s"),
    ("obs.trace_overhead_pct", "%"),
]
UNITS = dict(LAYERS)

#: Counts that must repeat exactly across runs of one seed.
EXACT_COUNTS = ("core.synthesis.instructions", "cpu.pipeline.cycles",
                "dse.engine.evaluations", "dse.cache.hits")


def _end(span):
    return span["ts"] + span["elapsed"]


def self_time(span, children):
    """*span*'s elapsed time minus the union of its children's
    intervals (clipped to the span), so parallel children in pool
    workers are not subtracted twice."""
    start, end = span["ts"], _end(span)
    intervals = sorted((max(start, child["ts"]), min(end, _end(child)))
                       for child in children)
    covered, cursor = 0.0, start
    for lo, hi in intervals:
        lo = max(lo, cursor)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return max(0.0, span["elapsed"] - covered)


def _per(total_s, count):
    return total_s * 1e9 / count if count else 0.0


def layer_totals(spans, wrapped, jobs, profile_instructions):
    """Per-layer totals from program *spans* and benchmark *wrapped*
    spans; every name in :data:`LAYERS` is present (0 where the layer
    did no work)."""
    by_id = {span["span"]: span for span in spans}
    children = defaultdict(list)
    for span in spans:
        if span.get("parent") in by_id:
            children[span["parent"]].append(span)

    def phase(name):
        return [span for span in spans if span["phase"] == name]

    def total(name):
        return sum(span["elapsed"] for span in phase(name))

    wrap_s = defaultdict(float)
    wrap_n = defaultdict(int)
    for span in wrapped:
        wrap_s[span["name"]] += span["elapsed"]
        wrap_n[span["name"]] += span["count"]

    layers = {name: 0.0 for name, _ in LAYERS}
    profiles = phase("profile")
    layers["frontend.prepare_s"] = total("prepare")
    layers["frontend.warm_s"] = wrap_s["frontend.warm"]
    layers["core.profiler.profile_s"] = total("profile")
    layers["core.profiler.ns_per_instr"] = _per(
        total("profile"), len(profiles) * profile_instructions)
    layers["core.reduction.reduce_s"] = total("reduce")
    synth = sum(self_time(span, children[span["span"]])
                for span in phase("synthesize"))
    instructions = wrap_n["core.synthetic.handoff"]
    layers["core.synthesis.synth_s"] = synth
    layers["core.synthesis.ns_per_instr"] = _per(synth, instructions)
    layers["core.synthesis.instructions"] = instructions
    layers["core.synthetic.handoff_s"] = wrap_s["core.synthetic.handoff"]
    layers["core.synthetic.ns_per_slot"] = _per(
        wrap_s["core.synthetic.handoff"], instructions)
    pipeline = (wrap_s["cpu.pipeline.synthetic"]
                + wrap_s["cpu.pipeline.execution"])
    cycles = (wrap_n["cpu.pipeline.synthetic"]
              + wrap_n["cpu.pipeline.execution"])
    layers["cpu.pipeline.synthetic_s"] = wrap_s["cpu.pipeline.synthetic"]
    layers["cpu.pipeline.execution_s"] = wrap_s["cpu.pipeline.execution"]
    layers["cpu.pipeline.cycles"] = cycles
    layers["cpu.pipeline.ns_per_cycle"] = _per(pipeline, cycles)
    layers["power.wattch.power_s"] = wrap_s["power.wattch.power"]

    evaluates = phase("evaluate")
    busy = sum(span["elapsed"] for span in evaluates)
    pooled = [span for span in phase("sweep")
              if any(child["phase"] == "evaluate"
                     for child in children[span["span"]])]
    cached = [span for span in phase("sweep")
              if not children[span["span"]]]
    pooled_s = sum(span["elapsed"] for span in pooled)
    layers["dse.engine.evaluations"] = len(evaluates)
    layers["dse.engine.worker_busy_s"] = busy
    layers["dse.engine.pool_efficiency"] = (
        busy / (jobs * pooled_s) if pooled_s else 0.0)
    layers["dse.engine.first_result_s"] = sum(
        min(_end(child) for child in children[span["span"]]
            if child["phase"] == "evaluate") - span["ts"]
        for span in pooled)
    layers["dse.cache.put_s"] = wrap_s["dse.cache.put"]
    layers["dse.cache.writes"] = wrap_n["dse.cache.put"]
    layers["dse.cache.get_s"] = sum(self_time(span, []) for span in cached)
    return layers


def service_layers(spans, acks, latencies):
    """``service.*`` per-job medians.  *acks* maps job id to the submit
    round trip and the wall-clock time the ack arrived; *latencies*
    maps job id to the client's submit-to-terminal latency."""
    jobs = {span["fields"].get("job"): span for span in spans
            if span["phase"] == "job"}
    ids = [job_id for job_id in latencies if job_id in jobs]
    if not ids:
        return {}
    return {
        "service.submit_rtt_s": statistics.median(
            acks[job_id]["rtt"] for job_id in ids),
        "service.queue_wait_s": statistics.median(
            jobs[job_id]["ts"] - acks[job_id]["wall"] for job_id in ids),
        "service.job_s": statistics.median(
            jobs[job_id]["elapsed"] for job_id in ids),
        "service.overhead_s": statistics.median(
            latencies[job_id] - jobs[job_id]["elapsed"] for job_id in ids),
    }


def render(workload, layers, wall_s):
    """The ledger table: each layer's value, unit and share of
    ``wall_s`` (times only)."""
    lines = [f"ledger {workload} (per iteration; wall_s {wall_s:.3f} s)",
             f"  {'layer metric':<30} {'value':>14} {'unit':<6} "
             f"{'share':>7}"]
    for name, unit in LAYERS:
        value = layers.get(name, 0.0)
        share = (f"{value / wall_s * 100:6.1f}%"
                 if unit == "s" and wall_s and not name.startswith(
                     "service.") else "")
        lines.append(f"  {name:<30} {value:>14.6g} {unit:<6} {share:>7}")
    return "\n".join(lines)
