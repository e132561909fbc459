"""Regression corpus: minimized reproducers on disk, replayable forever.

Every failing fuzz case is written to the corpus directory as one
checksummed JSON file (reusing :mod:`repro.runner.checkpoint`, so a
truncated or hand-edited entry raises ``ArtifactCorruptError`` instead
of silently replaying garbage).  An entry carries everything needed to
re-run the check without the fuzz RNG: the originating case (seed,
index, workload, machine overrides), the diff/acceptance report at
discovery time, the minimization statistics, and the *minimized
program* itself, fully serialized — blocks, instructions, branch
behaviours (with their seeds) and memory streams.

Replay semantics are those of a regression corpus: a committed entry
replays **green** (the optimized pipeline now matches the reference,
or the synthetic statistics now converge).  A replay failure means the
bug the entry pinned down has come back.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import ReproError
from repro.isa.iclass import IClass
from repro.isa.instruction import StaticInstruction
from repro.isa.program import BasicBlock, Program
from repro.runner.checkpoint import (
    read_json_checked,
    sanitize_unit_id,
    write_json_atomic,
)
from repro.workloads.behaviors import (
    BiasedRandomBehavior,
    IndirectBehavior,
    LoopBehavior,
    PatternBehavior,
    PointerChaseStream,
    RandomStream,
    StridedStream,
)

#: Bumped when the entry layout changes incompatibly.
CORPUS_SCHEMA = 1


# --------------------------------------------------------------- program

def _behavior_to_dict(behavior) -> Dict:
    if isinstance(behavior, LoopBehavior):
        return {"kind": "loop", "trip_count": behavior.trip_count}
    if isinstance(behavior, PatternBehavior):
        return {"kind": "pattern", "pattern": behavior.pattern}
    if isinstance(behavior, BiasedRandomBehavior):
        return {"kind": "biased", "p_taken": behavior.p_taken,
                "seed": behavior._seed}
    if isinstance(behavior, IndirectBehavior):
        return {"kind": "indirect", "n_targets": behavior.n_targets,
                "switch_period": behavior.switch_period,
                "seed": behavior._seed}
    raise ReproError(
        f"cannot serialize branch behavior {type(behavior).__name__}")


def _behavior_from_dict(data: Dict):
    kind = data["kind"]
    if kind == "loop":
        return LoopBehavior(data["trip_count"])
    if kind == "pattern":
        return PatternBehavior(data["pattern"])
    if kind == "biased":
        return BiasedRandomBehavior(data["p_taken"], data["seed"])
    if kind == "indirect":
        return IndirectBehavior(data["n_targets"], data["switch_period"],
                                data["seed"])
    raise ReproError(f"unknown branch behavior kind {kind!r}")


def _stream_to_dict(stream) -> Dict:
    if isinstance(stream, StridedStream):
        return {"kind": "strided", "base": stream.base,
                "stride": stream.stride, "length": stream.length}
    if isinstance(stream, RandomStream):
        return {"kind": "random", "base": stream.base,
                "working_set": stream.working_set, "align": stream.align,
                "seed": stream._seed}
    if isinstance(stream, PointerChaseStream):
        # _start is seed % n_nodes, and the constructor reapplies the
        # modulo, so storing _start as the seed round-trips exactly.
        return {"kind": "chase", "base": stream.base,
                "n_nodes": stream.n_nodes,
                "node_bytes": stream.node_bytes, "seed": stream._start}
    raise ReproError(
        f"cannot serialize memory stream {type(stream).__name__}")


def _stream_from_dict(data: Dict):
    kind = data["kind"]
    if kind == "strided":
        return StridedStream(data["base"], data["stride"], data["length"])
    if kind == "random":
        return RandomStream(data["base"], data["working_set"],
                            align=data.get("align", 8),
                            seed=data.get("seed", 0))
    if kind == "chase":
        return PointerChaseStream(data["base"], data["n_nodes"],
                                  node_bytes=data.get("node_bytes", 64),
                                  seed=data.get("seed", 1))
    raise ReproError(f"unknown memory stream kind {kind!r}")


def _instruction_to_dict(inst: StaticInstruction) -> Dict:
    data: Dict = {"iclass": int(inst.iclass)}
    if inst.src_regs:
        data["src_regs"] = list(inst.src_regs)
    if inst.dst_reg is not None:
        data["dst_reg"] = inst.dst_reg
    if inst.mem_stream is not None:
        data["mem_stream"] = inst.mem_stream
    return data


def _instruction_from_dict(data: Dict) -> StaticInstruction:
    return StaticInstruction(
        iclass=IClass(data["iclass"]),
        src_regs=tuple(data.get("src_regs", ())),
        dst_reg=data.get("dst_reg"),
        mem_stream=data.get("mem_stream"),
    )


def program_to_dict(program: Program) -> Dict:
    """Fully serialize a program (round-trips via
    :func:`program_from_dict`; the rebuilt behaviours start from their
    initial state, exactly like a fresh ``generate_program``)."""
    return {
        "name": program.name,
        "entry": program.entry,
        "blocks": [{
            "bb_id": block.bb_id,
            "address": block.address,
            "instructions": [_instruction_to_dict(inst)
                             for inst in block.instructions],
            "taken_target": block.taken_target,
            "fallthrough": block.fallthrough,
            "indirect_targets": list(block.indirect_targets),
            "branch_behavior": block.branch_behavior,
        } for block in program.blocks],
        "branch_behaviors": [_behavior_to_dict(behavior)
                             for behavior in program.branch_behaviors],
        "memory_streams": [_stream_to_dict(stream)
                           for stream in program.memory_streams],
    }


def program_from_dict(data: Dict) -> Program:
    """Inverse of :func:`program_to_dict`."""
    blocks = [BasicBlock(
        bb_id=raw["bb_id"],
        address=raw["address"],
        instructions=[_instruction_from_dict(inst)
                      for inst in raw["instructions"]],
        taken_target=raw.get("taken_target", -1),
        fallthrough=raw.get("fallthrough", -1),
        indirect_targets=tuple(raw.get("indirect_targets", ())),
        branch_behavior=raw.get("branch_behavior", -1),
    ) for raw in data["blocks"]]
    return Program(
        name=data["name"],
        blocks=blocks,
        entry=data.get("entry", 0),
        branch_behaviors=[_behavior_from_dict(raw)
                          for raw in data.get("branch_behaviors", [])],
        memory_streams=[_stream_from_dict(raw)
                        for raw in data.get("memory_streams", [])],
    )


# ----------------------------------------------------------------- entry

@dataclass
class CorpusEntry:
    """One minimized reproducer with its discovery context."""

    case_id: str
    kind: str  # differential, synthetic-differential, acceptance, vector
    case: Dict  # FuzzCase.to_dict()
    report: Dict  # DifferentialReport/AcceptanceReport .to_dict()
    program: Dict  # program_to_dict() of the minimized reproducer
    minimization: Dict = field(default_factory=dict)
    chaos_spec: Optional[str] = None
    skew_injected: bool = False

    def to_dict(self) -> Dict:
        return {
            "schema": CORPUS_SCHEMA,
            "case_id": self.case_id,
            "kind": self.kind,
            "case": self.case,
            "report": self.report,
            "program": self.program,
            "minimization": self.minimization,
            "chaos_spec": self.chaos_spec,
            "skew_injected": self.skew_injected,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "CorpusEntry":
        schema = data.get("schema", 0)
        if schema != CORPUS_SCHEMA:
            raise ReproError(
                f"corpus entry schema {schema} unsupported "
                f"(this build reads schema {CORPUS_SCHEMA})")
        return cls(
            case_id=data["case_id"],
            kind=data["kind"],
            case=data["case"],
            report=data["report"],
            program=data["program"],
            minimization=data.get("minimization", {}),
            chaos_spec=data.get("chaos_spec"),
            skew_injected=data.get("skew_injected", False),
        )


def entry_path(corpus_dir: str, case_id: str) -> str:
    return os.path.join(corpus_dir, f"{sanitize_unit_id(case_id)}.json")


def save_entry(corpus_dir: str, entry: CorpusEntry) -> str:
    """Write *entry* atomically; returns the path."""
    os.makedirs(corpus_dir, exist_ok=True)
    path = entry_path(corpus_dir, entry.case_id)
    write_json_atomic(path, entry.to_dict())
    return path


def load_entry(path: str) -> CorpusEntry:
    """Load one checksummed entry (raises ``ArtifactCorruptError`` on
    tamper/truncation)."""
    return CorpusEntry.from_dict(read_json_checked(path))


def list_entries(corpus_dir: str) -> List[str]:
    """Entry paths under *corpus_dir*, sorted for determinism."""
    if not os.path.isdir(corpus_dir):
        return []
    return sorted(
        os.path.join(corpus_dir, name)
        for name in os.listdir(corpus_dir)
        if name.endswith(".json")
    )
