"""Trace-driven superscalar out-of-order core (sim-outorder stand-in).

One cycle-accurate pipeline (:mod:`repro.cpu.pipeline`), with one cycle
loop, serves as both of the paper's simulators.  Every source resolves
its instructions into the same row columns before the loop runs
(:class:`~repro.cpu.source.RowSource`):

* an :class:`~repro.cpu.source.ExecutionDrivenSource` makes it the
  execution-driven *reference* simulator — the window's cache walk
  resolves every locality event from real addresses, and real branches
  stay live: classified against the predictor at fetch, trained at
  dispatch;
* a :class:`~repro.cpu.source.ColumnarSource` makes it the
  *synthetic-trace* simulator of paper section 2.3 — no caches or
  predictors, all outcomes pre-assigned by the trace generator.
  Columns (:class:`~repro.core.synthetic.ColumnarTrace`) are the one
  synthetic-trace format: the scalar and the vector generator both
  emit them, differing only in their draw stream;
* a :class:`~repro.cpu.source.PreannotatedSource` replays
  ``FetchSlot`` lists (hand-built streams and the tests).

``FetchSlot`` is otherwise only the protocol of the frozen
:class:`~repro.cpu.reference.ReferencePipeline`, which the equivalence
tests and the fuzz oracle hold the one loop to.

This makes the paper's statement that the two simulators share their
cycle model literal, so accuracy comparisons measure the statistical
methodology rather than model drift.
"""

from repro.cpu.source import (
    ColumnarSource,
    ExecutionDrivenSource,
    FetchSlot,
    InstructionSource,
    PreannotatedSource,
    RowSource,
)
from repro.cpu.pipeline import SuperscalarPipeline, simulate
from repro.cpu.results import SimulationResult

__all__ = [
    "ColumnarSource",
    "FetchSlot",
    "InstructionSource",
    "ExecutionDrivenSource",
    "PreannotatedSource",
    "RowSource",
    "SuperscalarPipeline",
    "SimulationResult",
    "simulate",
]
