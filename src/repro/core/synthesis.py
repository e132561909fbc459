"""Synthetic trace generation: the nine-step algorithm of section 2.2.

The reduced SFG is random-walked: a start node is drawn from the
cumulative node-occurrence distribution (step 1), each visited node's
budget is decremented (step 2) and its basic block is emitted with
statistically assigned operands, dependencies and locality events
(steps 3-8), then an outgoing edge is drawn from the cumulative
transition distribution (step 9).  Per DESIGN.md, an edge is eligible
only while its target node has budget left; at a dead end the walk
restarts from step 1, and the algorithm terminates when every budget is
exhausted — emitting exactly ``sum(Ni)`` basic blocks.

Dependency sampling follows the paper exactly: a sampled distance whose
producer "is supposedly generated by a branch or a store" is rejected
and redrawn up to 1,000 times, after which the dependency is squashed.

Hot-path layout (see ``docs/performance.md``): every categorical draw
goes through the draw-stable samplers of :mod:`repro.core.sampling` —
O(1) guide tables for the fixed per-slot distributions (flattened into
plain tuples and inlined into the emit loop), a Fenwick tree for the
draining start-node budgets — and all per-context recipe tables are
built once per SFG and cached on the graph (a DSE worker therefore
builds them once per *profile*, not once per design point).  The
samplers are bit-compatible with the original ``bisect_right`` code:
the same profile and seed produce a byte-identical synthetic trace
(pinned by ``tests/test_determinism_golden.py``; the pre-overhaul
generator survives as :mod:`repro.bench.legacy` for benchmarking).

The trace comes out as a :class:`~repro.core.synthetic.ColumnarTrace`,
the one format synthesis hands to the pipeline: the compiled emitters
write column buffers, never per-instruction objects.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple
from weakref import WeakKeyDictionary

import numpy as np

from repro.errors import SynthesisError
from repro.health.budget import checkpoint as _health_checkpoint
from repro.obs.metrics import get_registry
from repro.obs.tracing import trace_span
from repro.isa.iclass import BRANCH_CLASSES, IClass
from repro.branch.unit import BranchOutcome
from repro.core.profiler import StatisticalProfile
from repro.core.reduction import ReducedFlowGraph, reduce_flow_graph
from repro.core.sampling import FenwickSampler, GuideTableSampler
from repro.core.sfg import Context, ContextStats, StatisticalFlowGraph
from repro.core.synthetic import ColumnarTrace

#: Emitted instructions between cooperative health checkpoints
#: (:mod:`repro.health`); the checkpoint draws nothing from the RNG,
#: so synthesized traces are byte-identical with or without a budget.
_HEALTH_EVERY = 8192

#: Paper section 2.2 step 4: retries before squashing a dependency.
MAX_DEPENDENCY_RETRIES = 1000


def _operand_table(histogram: Dict[int, int], occurrences: int) -> tuple:
    """Flat guide-table form of one operand's distance distribution:
    ``(p_dep, total, distances, cumulative, guide, inv, buckets, n)``,
    unpacked and walked directly inside the emit loop."""
    distances = sorted(histogram)
    table = GuideTableSampler([histogram[d] for d in distances])
    p_dep = table.total / occurrences if occurrences else 0.0
    return (p_dep, table.total, distances, table.cumulative,
            table.guide, table.inv, table.buckets, table.n)


class _SlotRecipe:
    """Pre-computed sampling recipe for one instruction slot.

    ``packed`` is the flat tuple the emit loop unpacks in one go —
    operand/anti guide tables, event probabilities, the truncated
    cumulative branch-outcome thresholds (precomputed once here; the
    old code sliced ``outcome_cumulative[:-1]`` per branch draw), and
    the produces-register flag the walk uses for the step 4 rejection
    test without reading the emitted columns back.
    """

    __slots__ = ("packed",)

    def __init__(self, stats: ContextStats, slot: int,
                 include_anti_dependencies: bool = False) -> None:
        occurrences = stats.occurrences
        iclass = stats.iclasses[slot]
        is_branch = iclass in BRANCH_CLASSES
        operands = tuple(
            _operand_table(stats.dep_hists[slot][op], occurrences)
            for op in range(stats.n_src[slot])
        )
        anti: tuple = ()
        if include_anti_dependencies:
            anti = tuple(
                _operand_table(hist, occurrences)
                for hist in (stats.waw_hists[slot], stats.war_hists[slot])
                if hist
            )
        il1_count = stats.il1[slot]
        dl1_count = stats.dl1[slot]
        counts = stats.outcome_counts
        outcome_c0 = counts[0]
        outcome_c1 = counts[0] + counts[1]
        self.packed = (
            operands,
            anti,
            iclass is IClass.LOAD,
            is_branch,
            il1_count / occurrences,
            stats.l2i[slot] / il1_count if il1_count else 0.0,
            stats.itlb[slot] / occurrences,
            dl1_count / occurrences,
            stats.l2d[slot] / dl1_count if dl1_count else 0.0,
            stats.dtlb[slot] / occurrences,
            stats.taken / occurrences,
            outcome_c0,
            outcome_c1,
            outcome_c1 + counts[2],
            iclass,
            0 if (iclass is IClass.STORE or is_branch) else 1,
        )


# -- per-SFG recipe/transition table cache ------------------------------
#
# Recipes depend only on the SFG's context statistics (never on the
# reduction factor or seed), so they are built once per graph and
# shared by every synthesis call — across seeds, design points and the
# lifetime of a DSE worker process.  Keyed weakly so dropping a profile
# frees its tables.


class _SfgTables:
    """Lazily built per-context emitters and per-history edge tables."""

    __slots__ = ("recipes", "anti_recipes", "transitions", "edges")

    def __init__(self) -> None:
        # context -> compiled emit(produces, record, dep_val, rand)
        self.recipes: Dict[Context, object] = {}
        self.anti_recipes: Dict[Context, object] = {}
        self.transitions: Dict[Tuple[int, ...],
                               Tuple[Tuple[int, Context], ...]] = {}
        # context -> its history's edge table (saves the per-block
        # ``context[1:]`` slice in the walk's step 9)
        self.edges: Dict[Context,
                         Tuple[Tuple[int, Context], ...]] = {}


_TABLE_CACHE: "WeakKeyDictionary[StatisticalFlowGraph, _SfgTables]" = \
    WeakKeyDictionary()


def _tables_for(sfg: StatisticalFlowGraph) -> _SfgTables:
    tables = _TABLE_CACHE.get(sfg)
    if tables is None:
        tables = _SfgTables()
        _TABLE_CACHE[sfg] = tables
    return tables


def tables_cached(sfg: StatisticalFlowGraph,
                  include_anti_dependencies: bool = False) -> bool:
    """Whether *sfg* already has warm recipe tables (metrics aid)."""
    tables = _TABLE_CACHE.get(sfg)
    if tables is None:
        return False
    recipes = (tables.anti_recipes if include_anti_dependencies
               else tables.recipes)
    return bool(recipes)


def _build_recipes(stats: ContextStats,
                   include_anti_dependencies: bool):
    """Pack every slot's recipe and compile the context's emitter."""
    return _compile_emitter([
        _SlotRecipe(stats, slot, include_anti_dependencies).packed
        for slot in range(stats.block_size)])


def prepare_recipes(profile: StatisticalProfile,
                    include_anti_dependencies: bool = False) -> int:
    """Prebuild every context's slot recipes and every history's edge
    table for *profile* (a DSE worker calls this once at startup so
    each design-point evaluation starts with warm tables).  Returns the
    number of contexts whose recipes were built by this call."""
    sfg = profile.sfg
    tables = _tables_for(sfg)
    recipes = (tables.anti_recipes if include_anti_dependencies
               else tables.recipes)
    built = 0
    for context, stats in sfg.contexts.items():
        if context not in recipes:
            recipes[context] = _build_recipes(stats,
                                              include_anti_dependencies)
            built += 1
    transition_cache = tables.transitions
    for history, counts in sfg.transitions.items():
        if history not in transition_cache:
            transition_cache[history] = tuple(
                (weight, history + (block,))
                for block, weight in counts.items())
    edges = tables.edges
    for context in sfg.contexts:
        if context not in edges:
            edges[context] = transition_cache.get(context[1:], ())
    if built:
        get_registry().counter("synthesis.recipe_contexts_built").inc(
            built)
    return built


# -- per-context compiled block emitters --------------------------------
#
# The inner loop of synthesis is "emit this basic block's instructions",
# and every decision that does not depend on the uniform draws —
# instruction classes, which operands carry distributions, the guide
# tables themselves, which event probabilities are exactly zero — is
# fixed per context.  So instead of interpreting a recipe tuple per
# slot per emission, each context's recipe is compiled ONCE into a
# specialized Python function with the constants baked in and the
# operand loops unrolled.  The generated code consumes uniforms in
# exactly the legacy order (the determinism contract): per operand with
# a non-empty distribution, one gate draw then one draw per retry; per
# non-empty anti table, a gate draw then one sample draw; il1 / (l2i if
# il1) / itlb; for loads dl1 / (l2d if dl1) / dtlb; for branches taken
# then, if any outcomes were observed, one outcome draw.  Zero-total
# operand tables consume no draws (the legacy code `continue`d before
# touching the rng), so they are simply omitted from the generated
# code.


def _emit_distance_walk(body: List[str], pad: str, table: tuple,
                        bind) -> str:
    """Generate the inlined guide-table walk; returns the expression
    holding the sampled distance."""
    _p_dep, total, dists, cumulative, guide, inv, buckets, n = table
    if n == 1:
        # Single-distance table: the draw is consumed but the outcome
        # is fixed, so skip the table walk entirely.
        body.append(f"{pad}rand()")
        return repr(dists[0])
    g = bind("_G", guide)
    c = bind("_C", cumulative)
    d = bind("_D", dists)
    body.append(f"{pad}draw = rand() * {total}")
    body.append(f"{pad}b = int(draw * {inv!r})")
    body.append(f"{pad}if b >= {buckets}:")
    body.append(f"{pad}    b = {buckets - 1}")
    body.append(f"{pad}i = {g}[b]")
    body.append(f"{pad}while i < {n} and {c}[i] <= draw:")
    body.append(f"{pad}    i += 1")
    body.append(f"{pad}dd = {d}[i] if i < {n} else {dists[-1]}")
    return "dd"


#: The per-instruction record the compiled emitters write: one byte per
#: field, in this order — the instruction class, the seven event flags
#: (in ColumnarTrace column order), the BranchOutcome code and the
#: number of dependency distances the instruction carries.
_RECORD = ("iclass", "il1", "l2i", "itlb", "dl1", "l2d", "dtlb", "taken",
           "outcome", "deps")
_STRIDE = len(_RECORD)
_FIELD = {name: index for index, name in enumerate(_RECORD)}


def _compile_emitter(packed_recipes: List[tuple]):
    """Compile one context's packed slot recipes into an
    ``emit(produces, record, dep_val, rand)`` function (steps 3-8
    specialized).

    The emitter writes columns, not objects.  Each block appends its
    static record template — instruction classes, everything else
    zero — to the *record* bytearray and its static produces-register
    flags to *produces*; the draws then set the bytes of the events
    that occur (a miss, a taken branch, a non-correct outcome), count
    each instruction's dependencies and append the distances to
    *dep_val*.  :func:`_to_columns` turns the finished record into the
    trace's numpy columns.
    """
    env: Dict[str, object] = {}
    names: List[str] = []

    def bind(prefix: str, value) -> str:
        name = f"{prefix}{len(names)}"
        env[name] = value
        names.append(name)
        return name

    flags = bind("_P", tuple(r[15] for r in packed_recipes))
    template = bytearray(_STRIDE * len(packed_recipes))
    template[_FIELD["iclass"]::_STRIDE] = bytes(
        int(r[14]) for r in packed_recipes)
    record = bind("_R", bytes(template))
    # The block's produces-register flags are static, so the parallel
    # array is extended up front; in-block dependency targets (distance
    # smaller than the slot index) then resolve like any older slot.
    body: List[str] = [
        "    position = len(produces)",
        f"    produces.extend({flags})",
        f"    base = position * {_STRIDE}",
        f"    record += {record}",
    ]
    for k, packed in enumerate(packed_recipes):
        (operand_tables, anti_tables, is_load, is_branch,
         p_il1, p_l2i, p_itlb, p_dl1, p_l2d, p_dtlb,
         p_taken, oc0, oc1, ototal, _iclass, _flag) = packed

        def at(field: str) -> str:
            return f"record[base + {k * _STRIDE + _FIELD[field]}]"

        # Step 4: dependency distances, rejecting branch/store
        # producers (up to MAX_DEPENDENCY_RETRIES redraws each).
        for table in operand_tables:
            if not table[1]:
                continue
            body.append(f"    if rand() < {table[0]!r}:")
            body.append(f"        for _r in range({MAX_DEPENDENCY_RETRIES}):")
            expr = _emit_distance_walk(body, "            ", table, bind)
            body.append(f"            t = position + {k} - {expr}")
            body.append("            if t >= 0 and not produces[t]:")
            body.append("                continue")
            body.append(f"            {at('deps')} += 1")
            body.append(f"            dep_val({expr})")
            body.append("            break")
        # WAW/WAR distances for non-renaming machines (section 2.1.1
        # extension): no producer check, no retries.
        for table in anti_tables:
            body.append(f"    if rand() < {table[0]!r}:")
            expr = _emit_distance_walk(body, "        ", table, bind)
            body.append(f"        {at('deps')} += 1")
            body.append(f"        dep_val({expr})")
        # Steps 5-7: locality events (a draw is consumed even when the
        # probability is zero, matching the legacy comparisons; the L2
        # draw happens only after an L1 miss).
        _emit_miss(body, p_il1, p_l2i, at("il1"), at("l2i"))
        _emit_event(body, p_itlb, at("itlb"))
        if is_load:
            _emit_miss(body, p_dl1, p_l2d, at("dl1"), at("l2d"))
            _emit_event(body, p_dtlb, at("dtlb"))
        # Step 6: branch characteristics; outcomes never observed in
        # the context classify as CORRECT (code 0, no draw).
        if is_branch:
            _emit_event(body, p_taken, at("taken"))
            if ototal:
                body.append(f"    draw = rand() * {ototal}")
                body.append(f"    if {oc0} <= draw:")
                body.append(f"        {at('outcome')} = "
                            f"{int(BranchOutcome.MISPREDICTION)} "
                            f"if {oc1} <= draw else "
                            f"{int(BranchOutcome.FETCH_REDIRECTION)}")
    params = "".join(f", {name}={name}" for name in names)
    source = "\n".join(
        [f"def _emit(produces, record, dep_val, rand{params}):"] + body)
    exec(compile(source, "<sfg-emitter>", "exec"), env)
    return env["_emit"]


def _emit_event(body: List[str], probability: float, flag: str) -> None:
    """Generate one single-draw event flag."""
    if probability:
        body.append(f"    if rand() < {probability!r}:")
        body.append(f"        {flag} = 1")
    else:
        body.append("    rand()")


def _emit_miss(body: List[str], p_first: float, p_second: float,
               first: str, second: str) -> None:
    """Generate an L1 miss draw and, only after a miss, the L2 draw."""
    if p_first:
        body.append(f"    if rand() < {p_first!r}:")
        body.append(f"        {first} = 1")
        body.append(f"        if rand() < {p_second!r}:")
        body.append(f"            {second} = 1")
    else:
        body.append("    rand()")


def _to_columns(record: bytearray, dep_val: List[int]) -> ColumnarTrace:
    """The emitters' record as a trace's numpy columns."""
    n = len(record) // _STRIDE
    columns = np.frombuffer(record, dtype=np.uint8).reshape(
        n, _STRIDE).T.copy()
    trace = ColumnarTrace.__new__(ColumnarTrace)
    trace.iclass = columns[_FIELD["iclass"]]
    # The seven event flags are contiguous in the record.
    (trace.il1, trace.l2i, trace.itlb, trace.dl1, trace.l2d, trace.dtlb,
     trace.taken) = columns[_FIELD["il1"]:_FIELD["outcome"]].view(bool)
    trace.outcome = columns[_FIELD["outcome"]]
    dep_off = np.zeros(n + 1, dtype=np.int64)
    np.add.accumulate(columns[_FIELD["deps"]], dtype=np.int64,
                      out=dep_off[1:])
    trace.dep_off = dep_off
    trace.dep_val = np.asarray(dep_val, dtype=np.int64)
    return trace


def generate_synthetic_trace(
    profile: StatisticalProfile,
    reduction_factor: float,
    seed: int = 0,
    reduced: Optional[ReducedFlowGraph] = None,
    max_instructions: Optional[int] = None,
    include_anti_dependencies: bool = False,
) -> ColumnarTrace:
    """Generate a synthetic trace a factor *reduction_factor* smaller
    than the profiled execution (paper section 2.2), as columns.

    Pass *reduced* to reuse an already-reduced graph (e.g. when
    generating multiple traces with different seeds for convergence
    studies); it must come from this profile's SFG.
    *include_anti_dependencies* additionally samples the profiled
    WAW/WAR distances into the trace, for machines simulated without
    full register renaming (pair with
    ``MachineConfig.enforce_anti_dependencies``).

    The result is the same :class:`ColumnarTrace` format the vector
    generator (:mod:`repro.core.columnar`) returns; the two differ only
    in their draw stream.  Call ``to_synthetic_trace()`` on it for
    per-instruction objects.
    """
    with trace_span("synthesize", bench=profile.name, seed=seed):
        return _generate_synthetic_trace(
            profile, reduction_factor, seed=seed, reduced=reduced,
            max_instructions=max_instructions,
            include_anti_dependencies=include_anti_dependencies)


def _generate_synthetic_trace(
    profile: StatisticalProfile,
    reduction_factor: float,
    seed: int = 0,
    reduced: Optional[ReducedFlowGraph] = None,
    max_instructions: Optional[int] = None,
    include_anti_dependencies: bool = False,
) -> ColumnarTrace:
    sfg = profile.sfg
    if not sfg.contexts:
        raise SynthesisError(
            f"profile {profile.name!r} holds no contexts; nothing to "
            f"synthesize (was the trace shorter than one basic block?)")
    if reduced is None:
        with trace_span("reduce", bench=profile.name):
            reduced = reduce_flow_graph(sfg, reduction_factor)
    elif reduced.sfg is not sfg:
        raise SynthesisError(
            "reduced graph does not belong to this profile")

    rng = random.Random(seed)
    rand = rng.random
    order = profile.order

    tables = _tables_for(sfg)
    recipe_cache = (tables.anti_recipes if include_anti_dependencies
                    else tables.recipes)
    if recipe_cache:
        get_registry().counter("synthesis.table_reuse").inc()
    transition_cache = tables.transitions
    sfg_contexts = sfg.contexts
    sfg_transitions = sfg.transitions

    # Step 1 state: budgets as a Fenwick tree so a restart draw is
    # O(log n) instead of an O(n) cumulative rebuild (contexts in the
    # reduced graph's insertion order, matching the original dict
    # iteration).  Drained budgets are batched in *pending* and flushed
    # into the tree only when the next restart actually samples it.
    remaining: Dict[Context, int] = dict(reduced.occurrences)
    remaining_get = remaining.get
    contexts_by_index = list(remaining)
    index_of = {context: index
                for index, context in enumerate(contexts_by_index)}
    start = FenwickSampler(list(remaining.values()))
    start_sample = start.sample
    start_add = start.add
    total_remaining = start.total
    pending: Dict[Context, int] = {}
    pending_get = pending.get

    # Column buffers the compiled emitters append to (see
    # _compile_emitter); *produces* doubles as the position counter.
    produces: List[int] = []
    record = bytearray()
    dep_val: List[int] = []
    dep_val_append = dep_val.append
    built = 0
    limit = (max_instructions if max_instructions is not None
             else float("inf"))
    recipe_get = recipe_cache.get
    edges_cache = tables.edges
    edges_get = edges_cache.get
    # Reused per-draw scratch for the eligible-edge scan (step 9).
    eligible_weights: List[int] = []
    eligible_targets: List[Context] = []
    next_health = _HEALTH_EVERY

    while total_remaining > 0:
        if pending:
            for drained, count in pending.items():
                start_add(index_of[drained], -count)
            pending.clear()
        context = contexts_by_index[start_sample(rand())]  # step 1
        while True:
            remaining[context] -= 1  # step 2
            pending[context] = pending_get(context, 0) + 1
            total_remaining -= 1
            emit = recipe_get(context)
            if emit is None:
                emit = _build_recipes(sfg_contexts[context],
                                      include_anti_dependencies)
                recipe_cache[context] = emit
                built += 1
            emit(produces, record, dep_val_append, rand)  # steps 3-8
            emitted = len(produces)
            if emitted >= next_health:
                next_health = emitted + _HEALTH_EVERY
                _health_checkpoint(emitted)
            if emitted >= limit:
                total_remaining = 0
                break
            if order == 0:
                break  # k = 0: no edges; restart from step 1
            # Step 9: draw an outgoing edge among targets with budget.
            entries = edges_get(context)
            if entries is None:
                history = context[1:]
                entries = transition_cache.get(history)
                if entries is None:
                    counts = sfg_transitions.get(history)
                    entries = tuple((weight, history + (block,))
                                    for block, weight in counts.items()) \
                        if counts else ()
                    transition_cache[history] = entries
                edges_cache[context] = entries
            if not entries:
                break
            eligible_weights.clear()
            eligible_targets.clear()
            total = 0
            for weight, target in entries:
                if remaining_get(target, 0) > 0:
                    eligible_weights.append(weight)
                    eligible_targets.append(target)
                    total += weight
            if not total:
                break
            draw = rand() * total
            running = 0
            chosen = 0
            for index, weight in enumerate(eligible_weights):
                running += weight
                if running > draw:
                    chosen = index
                    break
            context = eligible_targets[chosen]

    if built:
        get_registry().counter("synthesis.recipe_contexts_built").inc(
            built)
    trace = _to_columns(record, dep_val)
    trace.name = f"{profile.name}/synthetic"
    trace.order = order
    trace.reduction_factor = reduction_factor
    trace.seed = seed
    return trace
