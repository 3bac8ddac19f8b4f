"""Cycle-level model of the sampling coprocessor.

Two timed functional units run strictly one after the other, matching the
additive cycle decomposition of the modeled core (SL-I: 4632 + 3893 =
8525):

  AES-CTR wrapper   per 16-byte block: issue into the pipelined core,
                    output ready 21 cycles later, drained in 2 cycles as
                    two 64-bit word writes (one per cycle), plus 2 cycles
                    of overhead; a one-time 57-cycle setup covers seed
                    staging (its first 2 cycles) and FSM warmup.
                    cycles = 57 + 25 * blocks, blocks = ceil(tau/16).

  RejSamp unit      per 16-byte group: 2 refill-read cycles + 1 parallel
                    validate cycle; 1 collect cycle per stream byte (tau
                    total); 1 write per packed output word; a one-time
                    77-cycle setup.  cycles = 77 + 3*groups + tau +
                    ceil(n'/8).

The per-state costs are a calibrated model, not measured RTL.  The unit
scans the full stream (no data-dependent early stop), so no cycle depends
on the data.

Compiled schedule.  That independence makes cycle-based compiled
simulation (the idea behind Verilator) sound: the schedule depends on the
program alone, so MemoryModel checks it once per key of a small cache,
(level, seed address, memory depth).  Each unit has a `schedule` (its
rows without data and the cycles they span) and a `run` (its datapath:
input bytes in, output bytes out).  A cache miss plays the rows through
MemoryModel with symbolic data: the k-th write stores k, and each read
returns the k of the write it sees; the pass checks the memory map below.
A run then only checks its inputs and computes its keystream and sampled
bytes.  test_schedule_ignores_seed checks the condition.

Program: two LOAD_SEED, then RUN_FULL or RUN_PRG, RUN_REJSAMP, then
READ_RESULT with raddr 0, with NOPs anywhere (they cost nothing).  Every
accepted program runs one straight-line schedule: seed writes at cycles
0-1, B1 staging reads at cycles 2-3 with the wrapper starting at cycle 2,
the sampler from the wrapper's last cycle, then the host drain.  Reports
are in cycles only; the simulator knows no clock.

Memory map (in place): seed words land at the two consecutive LOAD_SEED
addresses (words 0-1 in the default program) and are captured into B1
before the keystream [0, ceil(tau/8)) overwrites them; the packed output
[0, ceil(n'/8)) then overwrites the consumed stream head, and the host
drains it from word 0.  So the reads, in cycle order, return the writes
in the order they were made, each once.  The largest region ever live is
the keystream, so the required depth is exactly ceil(tau/8).  run_program
checks the depth on every run, and `_compiled` the map once per key.

Trace: `_compiled` is the one place that builds trace rows.  Its pass
records (cycle, unit, event, addr, k) per row: k is the write a row
stores or returns, None for the wrapper's issue row per block and the
sampler's done row at its last write.  `ProgramResult.trace_rows()`, the
one place that builds words, puts the k-th 64-bit word of the run's seed,
keystream and output in place of each k when it is called.
"""

import functools
import itertools
import struct
from dataclasses import dataclass, field

from .. import aesprg
from ..params import (BYTES_PER_WORD, ParameterSet, SecurityLevel,
                      builtin_params)
from ..sampler import FieldVector, _sample
from .errors import CapacityError, ProgramError, SimulationFault
from .isa import Instruction, Opcode, decode
from .memory import DEFAULT_DEPTH, MemoryModel

_GROUP_BYTES = 16  # shift-register width: two 64-bit words
_SCHEDULES = 8  # compiled schedules kept: the three levels, and spares
# The calibrated cycle costs.  The two setups are solved so that SL-I gives
# 4632 + 3893 = 8525: 57 + 183 * (21 + 2 + 2) and 77 + 3 * 183 + 2916 + 351.
_AES_LATENCY = 21
_BLOCK_OVERHEAD = 2
_WRAPPER_SETUP = 57  # the seed is staged in its first 2 cycles
_REJSAMP_SETUP = 77


@dataclass(frozen=True)
class CycleReport:
    """Per-unit cycle counts; the total is derived, never stored.

    Totals cover the two functional units only; seed staging and result
    drain appear in the trace but are host/control work outside the
    measured window.  The simulator knows no clock: a caller converts
    cycles to time with `fom.latency` at the frequency it chooses.
    """
    wrapper_cycles: int
    rejsamp_cycles: int

    @property
    def total_cycles(self) -> int:
        return self.wrapper_cycles + self.rejsamp_cycles

    def to_json_dict(self) -> dict:
        return {
            "total_cycles": self.total_cycles,
            "wrapper_cycles": self.wrapper_cycles,
            "rejsamp_cycles": self.rejsamp_cycles,
        }


def _block_count(p: ParameterSet) -> int:
    return -(-p.tau // _GROUP_BYTES)


class AesCtrWrapper:
    """Block-serial CTR wrapper around the pipelined cipher core.

    Schedule, per block: issue into the core, then _AES_LATENCY cycles
    later drain its cipher output (B2) as two 64-bit words on consecutive
    cycles.  Datapath: the golden keystream (aesprg.keystream) of the run,
    tau bytes, which the schedule writes to words [0, ceil(tau/8)); only
    ProgramResult.trace_rows() packs them into words.
    """

    def schedule(self, p: ParameterSet,
                 start_cycle: int = 0) -> tuple[list[tuple], int]:
        """The (cycle, unit, event, addr) rows of the block schedule, an
        issue per block and a write per keystream word, and the cycles
        they span from start_cycle."""
        per_block = _AES_LATENCY + 2 + _BLOCK_OVERHEAD  # 2: drain
        issue0 = start_cycle + _WRAPPER_SETUP
        ready0 = issue0 + _AES_LATENCY
        blocks = _block_count(p)
        rows = [(issue0 + b * per_block, "wrapper", "issue", b)
                for b in range(blocks)]
        rows += [(ready0 + (a // 2) * per_block + a % 2, "wrapper", "write", a)
                 for a in range(p.tau_addrs)]
        return rows, issue0 + blocks * per_block - start_cycle

    def run(self, seed: bytes, iv: bytes, p: ParameterSet) -> bytes:
        """The tau keystream bytes of the seed staged in B1."""
        return aesprg.keystream(seed, iv, p.tau)


class RejSampUnit:
    """Streaming rejection-sampling unit.

    Schedule, per 16-byte group: two refill reads, one validate cycle
    (mask and compare against q) and one collect cycle per byte.
    Datapath: `sampler`'s rule (sampler._sample, which the golden rej_samp
    runs too) on the keystream the refill reads, n' bytes out, which the
    schedule writes as packed words from word 0.
    """

    def schedule(self, p: ParameterSet,
                 start_cycle: int = 0) -> tuple[list[tuple], int]:
        """The (cycle, unit, event, addr) rows of the sampling schedule,
        the refill reads, a write per packed output word and a done row at
        the last, and the cycles they span from start_cycle."""
        refill0 = start_cycle + _REJSAMP_SETUP
        per_group = 3 + _GROUP_BYTES  # refill, validate, a collect per byte
        # word a is refill read a % 2 of group a // 2; only the last group
        # can be short, so every group starts per_group after the one before
        rows = [(refill0 + (a // 2) * per_group + a % 2, "rejsamp", "read", a)
                for a in range(p.tau_addrs)]
        # 3 refill and validate cycles per group, then a collect per byte
        write0 = refill0 + 3 * _block_count(p) + p.tau
        rows += [(write0 + w, "rejsamp", "write", w)
                 for w in range(p.out_addrs)]
        rows.append((write0 + p.out_addrs - 1, "rejsamp", "done", None))
        return rows, write0 + p.out_addrs - start_cycle

    def run(self, p: ParameterSet, stream: bytes) -> bytes:
        """The n' bytes sampled from the tau-byte keystream."""
        return _sample(stream, p.n_prime, p.q)


@functools.lru_cache(maxsize=_SCHEDULES)
def _compiled(level: SecurityLevel, seed_addr: int, depth: int) -> tuple:
    """Build the one schedule of a run and play it through a memory of
    depth words with symbolic data, raising the memory's faults, and a
    SimulationFault where a read breaks the in-place memory map.

    Returns the rows (cycle, unit, event, addr, k) in cycle order and the
    cycle report.  k numbers the words the run writes: the k-th is the
    k-th word of the seed, the keystream, then the output, as each unit
    writes its words in cycle order.
    """
    p = builtin_params(level)
    wrapper_rows, wrapper_cycles = AesCtrWrapper().schedule(p, 2)
    cycle = 2 + wrapper_cycles
    rejsamp_rows, rejsamp_cycles = RejSampUnit().schedule(p, cycle)
    cycle += rejsamp_cycles
    rows = [(i, "ctrl", "write", seed_addr + i) for i in range(2)]  # LOAD_SEED
    rows += [(2 + i, "wrapper", "read", seed_addr + i)  # B1 staging
             for i in range(2)]
    rows += wrapper_rows + rejsamp_rows
    rows += [(cycle + w, "host", "read", w) for w in range(p.out_addrs)]
    # each unit's writes take its words' k in turn: 2 seed words from 1
    ks = {"ctrl": itertools.count(1), "wrapper": itertools.count(3),
          "rejsamp": itertools.count(3 + p.tau_addrs)}
    # the map: B1 stages k 1-2, the refill reads the keystream's k and the
    # host drains the output's, so the reads return k 1, 2, 3, ... in turn
    mapped = itertools.count(1)
    mem = MemoryModel(depth)
    trace = []
    # rows sort by (cycle, unit, event): no two rows share all three
    for cycle, unit, event, addr in sorted(rows):
        k = None  # an issue or done row carries no word
        if event == "write":
            k = next(ks[unit])
            mem.write(addr, k, cycle=cycle)
        elif event == "read":
            k = mem.read(addr, cycle=cycle)
            if k != (want := next(mapped)):
                raise SimulationFault(
                    f"{unit} read of word {addr} in cycle {cycle} returns "
                    f"write {k}; the memory map gives write {want}")
        trace.append((cycle, unit, event, addr, k))
    return tuple(trace), CycleReport(wrapper_cycles, rejsamp_cycles)


@dataclass(frozen=True)
class ProgramResult:
    report: CycleReport
    vector: FieldVector
    _rows: tuple = field(repr=False, compare=False)  # _compiled's rows
    _loaded: bytes = field(repr=False, compare=False)  # seed, keystream

    def trace_rows(self) -> list[tuple]:
        """The run's (cycle, unit, event, addr, data) rows in cycle order,
        as a new list on each call: data is the k-th 64-bit word of the
        seed, the zero-padded keystream and the packed output."""
        data = self._loaded + bytes(-len(self._loaded) % BYTES_PER_WORD)
        data += self.vector.to_packed_bytes()
        words = struct.unpack(f">{len(data) // BYTES_PER_WORD}Q", data)
        return [(cycle, unit, event, addr, None if k is None else words[k - 1])
                for cycle, unit, event, addr, k in self._rows]


# The op sequences, NOPs dropped, that produce a sampled vector.
_SHAPES = (
    (Opcode.LOAD_SEED, Opcode.LOAD_SEED, Opcode.RUN_FULL, Opcode.READ_RESULT),
    (Opcode.LOAD_SEED, Opcode.LOAD_SEED, Opcode.RUN_PRG, Opcode.RUN_REJSAMP,
     Opcode.READ_RESULT),
)


def _validate_program(
        program: list[Instruction]) -> tuple[SecurityLevel, int]:
    """Check a decoded program against the ISA rules; returns its level
    and the address of its first seed word."""
    if not program:
        raise ProgramError("empty program")
    active = [ins for ins in program if ins.op != Opcode.NOP]
    if not active:
        raise ProgramError("program contains only NOPs")
    levels = {ins.sec_level for ins in active}
    if len(levels) > 1:
        raise ProgramError(f"mixed security-level fields {sorted(levels)}")
    level = active[0].security_level()  # raises for the reserved encoding
    ops = tuple(ins.op for ins in active)
    if ops not in _SHAPES:
        raise ProgramError(
            f"program runs {', '.join(op.name for op in ops)}; a program is "
            f"2 LOAD_SEED, then RUN_FULL or RUN_PRG, RUN_REJSAMP, then "
            f"READ_RESULT (NOPs anywhere)")
    load0, load1 = active[:2]
    if load0.wen != 1 or load1.wen != 1:
        raise ProgramError("LOAD_SEED requires wen=1")
    if load1.waddr != load0.waddr + 1:
        raise ProgramError("LOAD_SEED words must target consecutive addresses")
    if any(ins.wen for ins in active[2:]):
        raise ProgramError("wen set on a non-LOAD_SEED instruction")
    if active[-1].raddr != 0:
        raise ProgramError(f"READ_RESULT raddr is {active[-1].raddr}; the "
                           f"result is drained from word 0, so raddr must be 0")
    return level, load0.waddr


def run_program(words: list[int], seed: bytes, iv: bytes,
                mem_depth: int = DEFAULT_DEPTH) -> ProgramResult:
    """Decode and check a program of instruction words, then run the one
    schedule every accepted program has (see the module docstring).
    Returns the cycle report and the sampled vector; trace_rows() gives
    its trace."""
    level, seed_addr = _validate_program([decode(w) for w in words])
    p = builtin_params(level)
    if mem_depth < p.tau_addrs:
        MemoryModel(mem_depth)  # rejects a depth that is not positive first
        raise CapacityError(
            f"{level.value} needs {p.tau_addrs} memory words for "
            f"the keystream region but the memory holds {mem_depth}; rerun "
            f"with depth >= {p.tau_addrs}")
    aesprg.check_key(seed)  # before the faults of the schedule
    rows, report = _compiled(level, seed_addr, mem_depth)
    stream = AesCtrWrapper().run(seed, iv, p)
    out = RejSampUnit().run(p, stream)
    return ProgramResult(report=report, vector=FieldVector(out, p.q),
                         _rows=rows, _loaded=seed + stream)
