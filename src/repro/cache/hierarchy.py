"""The memory hierarchy of the Table 2 machine.

Separate L1 instruction and data caches back a unified L2; instruction
and data TLBs translate in parallel.  The hierarchy distinguishes L2
misses caused by instruction fetches from those caused by data accesses,
because the paper's statistical profile records them separately
(section 2.1.2, footnote 1).

Locality events depend only on the instruction stream and the cache
geometry, never on pipeline timing, so consumers resolve a whole window
at once with :meth:`CacheHierarchy.walk`: one program-order pass that
returns per-instruction 3-bit event codes (:data:`EVENT_L1`,
:data:`EVENT_L2`, :data:`EVENT_TLB`).  ``access_instruction`` and
``access_data`` remain the single-access API the walk must match.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

from repro.config import MachineConfig
from repro.cache.cache import SetAssociativeCache
from repro.cache.tlb import TranslationLookasideBuffer


#: Bits of a locality event code: the L1 (IL1 for a fetch, DL1 for a
#: data access) missed, the unified L2 missed, the TLB missed.
EVENT_L1 = 1
EVENT_L2 = 2
EVENT_TLB = 4


def cache_geometry(config: MachineConfig) -> tuple:
    """The part of *config* a locality walk depends on: two machines
    with equal geometry see identical event codes for the same window."""
    return (config.il1, config.dl1, config.l2, config.itlb, config.dtlb)


@dataclass(frozen=True)
class LocalityWalk:
    """The locality events of one (warm-up, window) pair on one cache
    geometry: ``icodes[i]`` is instruction *i*'s fetch event code and
    ``dcodes[i]`` its data-access code (0 without a memory operand).

    Computed once per window (see
    :func:`repro.frontend.warming.walk_window`) and handed to every
    consumer of that window — the profiler and the execution-driven
    source — instead of re-walking the caches for each.
    """

    icodes: bytes
    dcodes: bytes
    geometry: tuple

    def check(self, instructions: int, config: MachineConfig) -> None:
        """Raise ``ValueError`` unless this walk covers a window of
        *instructions* instructions on *config*'s cache geometry."""
        if len(self.icodes) != instructions:
            raise ValueError(
                f"locality walk covers {len(self.icodes)} instructions, "
                f"the window has {instructions}")
        if self.geometry != cache_geometry(config):
            raise ValueError(
                "locality walk was computed for a different cache "
                "geometry")


@dataclass(frozen=True)
class InstructionAccessResult:
    """Locality events for one instruction fetch."""

    il1_miss: bool
    l2_miss: bool
    itlb_miss: bool


@dataclass(frozen=True)
class DataAccessResult:
    """Locality events for one data access."""

    dl1_miss: bool
    l2_miss: bool
    dtlb_miss: bool


class CacheHierarchy:
    """L1I + L1D + unified L2 + I/D TLBs, with latency assignment.

    The latency helpers implement the synthetic-trace simulator's rules
    (paper section 2.3): a load's latency is set by the deepest level it
    misses in; an I-cache miss stalls the fetch engine for the
    corresponding fill latency.
    """

    def __init__(self, config: MachineConfig) -> None:
        self.config = config
        self.il1 = SetAssociativeCache(config.il1)
        self.dl1 = SetAssociativeCache(config.dl1)
        self.l2 = SetAssociativeCache(config.l2)
        self.itlb = TranslationLookasideBuffer(config.itlb)
        self.dtlb = TranslationLookasideBuffer(config.dtlb)
        self.l2_instruction_accesses = 0
        self.l2_instruction_misses = 0
        self.l2_data_accesses = 0
        self.l2_data_misses = 0

    # ----------------------------------------------------------- access
    def access_instruction(self, pc: int) -> InstructionAccessResult:
        """Fetch the instruction at *pc* through IL1 -> unified L2."""
        itlb_miss = not self.itlb.access(pc)
        il1_miss = not self.il1.access(pc)
        l2_miss = False
        if il1_miss:
            self.l2_instruction_accesses += 1
            l2_miss = not self.l2.access(pc)
            if l2_miss:
                self.l2_instruction_misses += 1
        return InstructionAccessResult(il1_miss, l2_miss, itlb_miss)

    def access_data(self, address: int, is_store: bool = False
                    ) -> DataAccessResult:
        """Access data at *address* through DL1 -> unified L2.

        Stores exercise the hierarchy (write-allocate) but the paper's
        synthetic traces only annotate loads; the *is_store* flag exists
        so callers can separate statistics.
        """
        dtlb_miss = not self.dtlb.access(address)
        dl1_miss = not self.dl1.access(address)
        l2_miss = False
        if dl1_miss:
            self.l2_data_accesses += 1
            l2_miss = not self.l2.access(address)
            if l2_miss:
                self.l2_data_misses += 1
        return DataAccessResult(dl1_miss, l2_miss, dtlb_miss)

    def walk(self, instructions: Sequence) -> Tuple[bytes, bytes]:
        """Fetch, then access data for, every instruction in program
        order; return ``(icodes, dcodes)``, one event code per
        instruction.

        State and counters end exactly as the equivalent
        ``access_instruction``/``access_data`` loop leaves them.  The
        loop is inlined and allocates nothing per access: an access to a
        set's most-recently-used way is an O(1) hit with no LRU change,
        and since only fetches touch the IL1 and I-TLB, a fetch from the
        previous fetch's line or page hits without even the set lookup.
        """
        il1, dl1, l2 = self.il1, self.dl1, self.l2
        itlb, dtlb = self.itlb, self.dtlb
        il1_sets, il1_n, il1_shift = il1._sets, il1._num_sets, \
            il1._line_shift
        il1_ways = il1.config.associativity
        dl1_sets, dl1_n, dl1_shift = dl1._sets, dl1._num_sets, \
            dl1._line_shift
        dl1_ways = dl1.config.associativity
        l2_sets, l2_n, l2_shift = l2._sets, l2._num_sets, l2._line_shift
        l2_ways = l2.config.associativity
        itlb_sets, itlb_n, itlb_shift = itlb._sets, itlb._num_sets, \
            itlb._page_shift
        itlb_ways = itlb.config.associativity
        dtlb_sets, dtlb_n, dtlb_shift = dtlb._sets, dtlb._num_sets, \
            dtlb._page_shift
        dtlb_ways = dtlb.config.associativity

        n = len(instructions)
        icodes = bytearray(n)
        dcodes = bytearray(n)
        il1_miss = itlb_miss = l2i_access = l2i_miss = 0
        data = dl1_miss = dtlb_miss = l2d_access = l2d_miss = 0
        last_line = last_page = -1
        for index, inst in enumerate(instructions):
            pc = inst.pc
            code = 0
            page = pc >> itlb_shift
            if page != last_page:
                last_page = page
                ways = itlb_sets[page % itlb_n]
                if not ways or ways[-1] != page:
                    if page in ways:
                        ways.remove(page)
                    else:
                        code = EVENT_TLB
                        itlb_miss += 1
                        if len(ways) >= itlb_ways:
                            del ways[0]
                    ways.append(page)
            line = pc >> il1_shift
            if line != last_line:
                last_line = line
                ways = il1_sets[line % il1_n]
                if not ways or ways[-1] != line:
                    if line in ways:
                        ways.remove(line)
                    else:
                        code |= EVENT_L1
                        il1_miss += 1
                        if len(ways) >= il1_ways:
                            del ways[0]
                        l2i_access += 1
                        line2 = pc >> l2_shift
                        ways2 = l2_sets[line2 % l2_n]
                        if not ways2 or ways2[-1] != line2:
                            if line2 in ways2:
                                ways2.remove(line2)
                            else:
                                code |= EVENT_L2
                                l2i_miss += 1
                                if len(ways2) >= l2_ways:
                                    del ways2[0]
                            ways2.append(line2)
                    ways.append(line)
            if code:
                icodes[index] = code

            address = inst.mem_addr
            if address is None:
                continue
            data += 1
            code = 0
            page = address >> dtlb_shift
            ways = dtlb_sets[page % dtlb_n]
            if not ways or ways[-1] != page:
                if page in ways:
                    ways.remove(page)
                else:
                    code = EVENT_TLB
                    dtlb_miss += 1
                    if len(ways) >= dtlb_ways:
                        del ways[0]
                ways.append(page)
            line = address >> dl1_shift
            ways = dl1_sets[line % dl1_n]
            if not ways or ways[-1] != line:
                if line in ways:
                    ways.remove(line)
                else:
                    code |= EVENT_L1
                    dl1_miss += 1
                    if len(ways) >= dl1_ways:
                        del ways[0]
                    l2d_access += 1
                    line2 = address >> l2_shift
                    ways2 = l2_sets[line2 % l2_n]
                    if not ways2 or ways2[-1] != line2:
                        if line2 in ways2:
                            ways2.remove(line2)
                        else:
                            code |= EVENT_L2
                            l2d_miss += 1
                            if len(ways2) >= l2_ways:
                                del ways2[0]
                        ways2.append(line2)
                ways.append(line)
            if code:
                dcodes[index] = code

        il1.accesses += n
        il1.misses += il1_miss
        itlb.accesses += n
        itlb.misses += itlb_miss
        dl1.accesses += data
        dl1.misses += dl1_miss
        dtlb.accesses += data
        dtlb.misses += dtlb_miss
        l2.accesses += l2i_access + l2d_access
        l2.misses += l2i_miss + l2d_miss
        self.l2_instruction_accesses += l2i_access
        self.l2_instruction_misses += l2i_miss
        self.l2_data_accesses += l2d_access
        self.l2_data_misses += l2d_miss
        return bytes(icodes), bytes(dcodes)

    # ---------------------------------------------------------- latency
    def load_latency(self, result: DataAccessResult) -> int:
        """Latency in cycles for a load with the given locality events."""
        return _load_latency(self.config, result.dl1_miss, result.l2_miss,
                             result.dtlb_miss)

    def fetch_stall(self, result: InstructionAccessResult) -> int:
        """Fetch-engine stall cycles for an instruction access (0 when
        everything hits)."""
        return _fetch_stall(self.config, result.il1_miss, result.l2_miss,
                            result.itlb_miss)

    # ------------------------------------------------------- statistics
    def miss_rates(self) -> dict:
        """The six miss rates of the paper's statistical profile."""
        def rate(misses: int, accesses: int) -> float:
            return misses / accesses if accesses else 0.0

        return {
            "il1": self.il1.miss_rate,
            "l2_instruction": rate(self.l2_instruction_misses,
                                   self.l2_instruction_accesses),
            "dl1": self.dl1.miss_rate,
            "l2_data": rate(self.l2_data_misses, self.l2_data_accesses),
            "itlb": self.itlb.miss_rate,
            "dtlb": self.dtlb.miss_rate,
        }

    def reset_statistics(self) -> None:
        """Zero every access and miss counter, keeping the cache state
        (used after functional warm-up)."""
        for structure in (self.il1, self.dl1, self.l2, self.itlb,
                          self.dtlb):
            structure.reset_statistics()
        self.l2_instruction_accesses = 0
        self.l2_instruction_misses = 0
        self.l2_data_accesses = 0
        self.l2_data_misses = 0


def _load_latency(config: MachineConfig, dl1_miss: bool, l2_miss: bool,
                  dtlb_miss: bool) -> int:
    if l2_miss:
        latency = config.memory_latency
    elif dl1_miss:
        latency = config.l2.hit_latency
    else:
        latency = config.dl1.hit_latency
    if dtlb_miss:
        latency += config.dtlb.miss_latency
    return latency


def _fetch_stall(config: MachineConfig, il1_miss: bool, l2_miss: bool,
                 itlb_miss: bool) -> int:
    stall = 0
    if l2_miss:
        stall = config.memory_latency
    elif il1_miss:
        stall = config.l2.hit_latency
    if itlb_miss:
        stall += config.itlb.miss_latency
    return stall


def event_latency_tables(config: MachineConfig
                         ) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """``(fetch_stall, load_latency)`` indexed by event code: the
    :meth:`CacheHierarchy.fetch_stall` and
    :meth:`CacheHierarchy.load_latency` rules for all eight codes."""
    codes = range(8)
    return (
        tuple(_fetch_stall(config, bool(code & EVENT_L1),
                           bool(code & EVENT_L2), bool(code & EVENT_TLB))
              for code in codes),
        tuple(_load_latency(config, bool(code & EVENT_L1),
                            bool(code & EVENT_L2), bool(code & EVENT_TLB))
              for code in codes),
    )
