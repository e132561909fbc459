"""Shared fixtures: hand-built miniature programs and small scales.

The hand-built programs are fully deterministic and analytically
checkable, which lets tests assert exact profiling results; the
generated workloads cover the realistic path.
"""

import pytest

from repro.config import MachineConfig, baseline_config
from repro.isa.iclass import IClass
from repro.isa.instruction import StaticInstruction
from repro.isa.program import BasicBlock, Program
from repro.frontend.functional import run_program
from repro.workloads.behaviors import (
    LoopBehavior,
    PatternBehavior,
    StridedStream,
)
from repro.workloads.generator import WorkloadConfig, generate_program


@pytest.fixture(autouse=True)
def _reset_health_state():
    """The degradation ladder, canary clock and active budget are
    process-level singletons; a breaker tripped by one test must never
    leak degraded behavior into the next."""
    yield
    from repro.health import reset_canary, reset_ladder
    from repro.health.budget import install_budget

    install_budget(None)
    reset_canary()
    reset_ladder()


@pytest.fixture(autouse=True)
def _clear_profile_memo():
    """Design-space studies memoize profiles for the process lifetime;
    each test starts (and leaves) with an empty memo, so spans, events
    and monkeypatched preparation behave as in a fresh process."""
    from repro.dse.study import clear_profile_memo

    clear_profile_memo()
    yield
    clear_profile_memo()


def make_tiny_program(trip_count: int = 4) -> Program:
    """Two-block program: a loop body (block 0) iterated *trip_count*
    times per visit to the exit block (block 1).

    Block 0: load r1 <- stream0; alu r2 <- r1; branch (loop backedge)
    Block 1: alu r3 <- r2;                     branch (always taken -> 0)
    """
    block0 = BasicBlock(
        bb_id=0,
        address=0x1000,
        instructions=[
            StaticInstruction(IClass.LOAD, src_regs=(4,), dst_reg=1,
                              mem_stream=0),
            StaticInstruction(IClass.INT_ALU, src_regs=(1,), dst_reg=2),
            StaticInstruction(IClass.INT_COND_BRANCH, src_regs=(2,)),
        ],
        taken_target=0,
        fallthrough=1,
        branch_behavior=0,
    )
    block1 = BasicBlock(
        bb_id=1,
        address=0x2000,
        instructions=[
            StaticInstruction(IClass.INT_ALU, src_regs=(2,), dst_reg=3),
            StaticInstruction(IClass.INT_COND_BRANCH, src_regs=(3,)),
        ],
        taken_target=0,
        fallthrough=0,
        branch_behavior=1,
    )
    return Program(
        name="tiny",
        blocks=[block0, block1],
        entry=0,
        branch_behaviors=[LoopBehavior(trip_count), PatternBehavior("T")],
        memory_streams=[StridedStream(base=0x10_0000, stride=8,
                                      length=4096)],
    )


@pytest.fixture
def tiny_program() -> Program:
    return make_tiny_program()


@pytest.fixture
def tiny_trace(tiny_program):
    return run_program(tiny_program, n_instructions=600)


@pytest.fixture
def config() -> MachineConfig:
    return baseline_config()


@pytest.fixture
def small_workload_config() -> WorkloadConfig:
    return WorkloadConfig(name="unit", seed=7, n_blocks=12,
                          mean_block_size=4, working_set_kb=32,
                          n_memory_streams=4)


@pytest.fixture
def small_program(small_workload_config) -> Program:
    return generate_program(small_workload_config)


@pytest.fixture
def small_trace(small_program):
    return run_program(small_program, n_instructions=3000)
