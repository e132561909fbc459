"""Trace-driven superscalar out-of-order core (sim-outorder stand-in).

One cycle-accurate pipeline (:mod:`repro.cpu.pipeline`) serves as both of
the paper's simulators:

* fed by an :class:`~repro.cpu.source.ExecutionDrivenSource`, it is the
  execution-driven *reference* simulator — live caches and branch
  predictor resolve every locality event from real addresses, with
  lookups at fetch and speculative update at dispatch;
* fed by a :class:`~repro.cpu.source.ColumnarSource`, it is the
  *synthetic-trace* simulator of paper section 2.3 — no caches or
  predictors, all outcomes pre-assigned by the trace generator.
  Columns (:class:`~repro.core.synthetic.ColumnarTrace`) are the one
  synthetic-trace format: the scalar and the vector generator both
  emit them, differing only in their draw stream.
  :class:`~repro.cpu.source.PreannotatedSource` replays ``FetchSlot``
  lists for the frozen reference pipeline and the tests.

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
)
from repro.cpu.pipeline import SuperscalarPipeline, simulate
from repro.cpu.results import SimulationResult

__all__ = [
    "ColumnarSource",
    "FetchSlot",
    "InstructionSource",
    "ExecutionDrivenSource",
    "PreannotatedSource",
    "SuperscalarPipeline",
    "SimulationResult",
    "simulate",
]
