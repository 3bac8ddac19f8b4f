"""Cycle-level model of the sampling coprocessor.

Two timed functional units run strictly one after the other, matching the
additive cycle decomposition of the modeled core (SL-I: 4632 + 3893 =
8525 with the default calibration):

  AES-CTR wrapper   per 16-byte block: issue into the pipelined core,
                    output ready after aes_latency cycles, drained in 2
                    cycles as two 64-bit word writes (one per cycle), plus
                    per_block_overhead; one-time wrapper_setup_cycles
                    covers seed staging and FSM warmup.  cycles = setup +
                    blocks * (latency + 2 + overhead), blocks = ceil(tau/16).

  RejSamp unit      per 16-byte group: 2 refill-read cycles + 1 parallel
                    validate cycle; 1 collect cycle per stream byte (tau
                    total); 1 write per packed output word; one-time
                    rejsamp_setup_cycles.  cycles = setup + 3*groups +
                    tau + ceil(n'/8).

The per-state costs are a calibrated model, not measured RTL: the setup
defaults are solved so the SL-I totals reproduce the reference cycle
counts exactly.  The unit scans the full stream (no data-dependent early
stop), which is what makes the counts seed-independent.

Memory map (in place): seed words land wherever LOAD_SEED points (words
0-1 in the default program) and are captured into B1 before the keystream
[0, ceil(tau/8)) overwrites them; the packed output [0, ceil(n'/8)) then
overwrites the consumed stream head.  The largest region ever live is the
keystream, so the required depth is exactly ceil(tau/8).

Trace: the memory's log is the run's one trace.  Reads and writes log
themselves; the wrapper adds an issue row per block and the sampler a
done row at its last write.
"""

import math
import struct
from dataclasses import dataclass

from .. import aesprg, fom
from ..packing import words_from_bytes, bytes_from_words
from ..params import (BYTES_PER_WORD, ParameterSet, SecurityLevel,
                      builtin_params)
from ..sampler import FieldVector
from .errors import CapacityError, PreconditionFault, ProgramError
from .isa import Instruction, Opcode, decode
from .memory import DEFAULT_DEPTH, MemoryModel

GROUP_BYTES = 16  # shift-register width: two 64-bit words
_HALVES = struct.Struct(">QQ")  # one cipher block as its two stream words


@dataclass(frozen=True)
class TimingConfig:
    """Cycle-cost knobs; the 2-cycle drain of a block is fixed, not a knob."""
    aes_latency: int = 21
    per_block_overhead: int = 2
    wrapper_setup_cycles: int = 57
    rejsamp_setup_cycles: int = 77

    def __post_init__(self):
        if self.aes_latency < 1:
            raise ValueError("aes_latency must be at least 1 cycle")
        for name in ("per_block_overhead", "wrapper_setup_cycles",
                     "rejsamp_setup_cycles"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")


@dataclass(frozen=True)
class CycleReport:
    """Per-unit and total cycle counts with the derived wall-clock latency.

    Totals cover the two functional units only; seed staging and result
    drain appear in the trace but are host/control work outside the
    measured window.
    """
    wrapper_cycles: int
    rejsamp_cycles: int
    freq_hz: float

    def __post_init__(self):
        if not 0 < self.freq_hz < math.inf:
            raise ValueError(f"frequency must be positive and finite, got "
                             f"{self.freq_hz}")
        if not math.isfinite(self.latency_seconds * 1e6):  # latency_us
            raise ValueError(f"frequency {self.freq_hz} Hz is too low for a "
                             f"finite latency")

    @property
    def total_cycles(self) -> int:
        return self.wrapper_cycles + self.rejsamp_cycles

    @property
    def latency_seconds(self) -> float:
        return fom.latency(self.total_cycles, self.freq_hz)

    def to_json_dict(self) -> dict:
        return {
            "total_cycles": self.total_cycles,
            "wrapper_cycles": self.wrapper_cycles,
            "rejsamp_cycles": self.rejsamp_cycles,
            "freq_hz": self.freq_hz,
            "latency_us": self.latency_seconds * 1e6,
        }


def block_count(p: ParameterSet) -> int:
    return -(-p.tau // GROUP_BYTES)


class AesCtrWrapper:
    """Block-serial CTR wrapper around the pipelined cipher core.

    Each block's cipher output (B2) is drained as two 64-bit words on
    consecutive cycles starting aes_latency cycles after issue.  Stream
    bytes past tau are zeroed in the final word.
    """

    def __init__(self, cfg: TimingConfig):
        self.cfg = cfg

    def run(self, seed: bytes, iv: bytes, p: ParameterSet, mem: MemoryModel,
            start_cycle: int = 0) -> int:
        """Generate and store the keystream, logging an issue row per block;
        returns the cycles the block schedule spans from start_cycle."""
        if mem.depth < p.tau_addrs:
            raise CapacityError(
                f"memory depth {mem.depth} cannot hold the {p.tau_addrs}-word "
                f"keystream for {p.sec_level.value}; required depth "
                f"{p.required_mem_words}", required_words=p.required_mem_words)
        cfg = self.cfg
        round_keys = aesprg.expand_key(seed)
        per_block = cfg.aes_latency + 2 + cfg.per_block_overhead  # 2: drain
        issue0 = start_cycle + cfg.wrapper_setup_cycles
        blocks = block_count(p)
        final = p.tau_addrs - 1
        pad_bits = 8 * (p.tau_addrs * BYTES_PER_WORD - p.tau)
        for b, counter in enumerate(aesprg.ctr_blocks(iv, blocks)):
            issue = issue0 + b * per_block
            mem.log.append((issue, "wrapper", "issue", b, None))
            b2 = aesprg.encrypt_block_expanded(round_keys, counter)
            ready = issue + cfg.aes_latency
            for half, word in enumerate(_HALVES.unpack(b2)):
                addr = 2 * b + half
                if addr > final:
                    break  # final block only partially inside the stream
                if addr == final:
                    word = word >> pad_bits << pad_bits  # zero past tau
                mem.write(addr, word, cycle=ready + half, unit="wrapper")
        return issue0 + blocks * per_block - start_cycle


class RejSampUnit:
    """Streaming rejection-sampling unit.

    The 16-byte shift register refills from two word reads; all resident
    bytes are masked and compared against q in one validate cycle.  Valid
    bytes from the spare tail queue up in arrival order and patch rejected
    head positions, which keeps the result bit-identical to the literal
    (position-preserving) algorithm while the hardware-style datapath
    streams the words once.
    """

    def __init__(self, cfg: TimingConfig):
        self.cfg = cfg

    def run(self, p: ParameterSet, mem: MemoryModel, start_cycle: int = 0) -> int:
        """Sample the stored keystream into packed output words in place,
        logging a done row at the last write; returns the cycles the
        schedule spans from start_cycle."""
        missing = mem.unwritten(0, p.tau_addrs)
        if missing:
            raise PreconditionFault(
                f"keystream region underfilled: {len(missing)} of "
                f"{p.tau_addrs} words never written (first missing "
                f"address {missing[0]})")
        q = p.q
        mask = bytes(b & q for b in range(256))
        rejected = bytes([q])
        cycle = start_cycle + self.cfg.rejsamp_setup_cycles
        out = bytearray()       # masked values of the first n' positions
        spares = bytearray()    # valid tail values, in stream order
        for g in range(block_count(p)):
            addr = 2 * g         # refill: two word reads
            group = mem.read(addr, cycle=cycle,
                             unit="rejsamp").to_bytes(BYTES_PER_WORD, "big")
            if addr + 1 < p.tau_addrs:
                group += mem.read(addr + 1, cycle=cycle + 1,
                                  unit="rejsamp").to_bytes(BYTES_PER_WORD, "big")
            in_group = min(GROUP_BYTES, p.tau - g * GROUP_BYTES)
            masked = group[:in_group].translate(mask)   # validate
            split = max(0, p.n_prime - g * GROUP_BYTES)
            out += masked[:split]                       # collect
            spares += masked[split:].replace(rejected, b"")
            cycle += 3 + in_group    # refill, validate, one collect per byte
        used = 0
        j = out.find(q)
        while j >= 0:            # patch rejected head positions in order
            out[j] = spares[used] if used < len(spares) else 0
            used += 1
            j = out.find(q, j + 1)
        for w, word in enumerate(words_from_bytes(out)):
            mem.write(w, word, cycle=cycle, unit="rejsamp")
            cycle += 1
        mem.log.append((cycle - 1, "rejsamp", "done", None, None))
        return cycle - start_cycle


@dataclass(frozen=True)
class ProgramResult:
    report: CycleReport
    vector: FieldVector
    mem: MemoryModel
    params: ParameterSet

    def trace_rows(self) -> list[tuple]:
        """The memory log's (cycle, unit, event, addr, data) rows, in
        cycle order."""
        return sorted(self.mem.log, key=lambda r: (r[0], r[1], r[2]))


def _validate_program(program: list[Instruction]) -> SecurityLevel:
    """Check a decoded program against the ISA rules; returns its level."""
    if not program:
        raise ProgramError("empty program")
    active = [ins for ins in program if ins.op != Opcode.NOP]
    if not active:
        raise ProgramError("program contains only NOPs")
    levels = {ins.sec_level for ins in active}
    if len(levels) > 1:
        raise ProgramError(f"mixed security-level fields {sorted(levels)}")
    level = active[0].security_level()  # raises for the reserved encoding

    loads = [ins for ins in active if ins.op == Opcode.LOAD_SEED]
    if len(loads) != 2:
        raise ProgramError(f"need exactly 2 LOAD_SEED for the 16-byte seed, "
                           f"got {len(loads)}")
    if any(ins.wen != 1 for ins in loads):
        raise ProgramError("LOAD_SEED requires wen=1")
    if loads[1].waddr != loads[0].waddr + 1:
        raise ProgramError("LOAD_SEED words must target consecutive addresses")
    if any(ins.wen for ins in active if ins.op != Opcode.LOAD_SEED):
        raise ProgramError("wen set on a non-LOAD_SEED instruction")

    first_run = next((i for i, ins in enumerate(active)
                      if ins.op in (Opcode.RUN_PRG, Opcode.RUN_REJSAMP,
                                    Opcode.RUN_FULL)), None)
    if first_run is None:
        raise ProgramError("no RUN_PRG/RUN_REJSAMP/RUN_FULL instruction")
    if any(ins.op == Opcode.LOAD_SEED for ins in active[first_run:]):
        raise ProgramError("LOAD_SEED must precede every RUN instruction")

    reads = [i for i, ins in enumerate(active) if ins.op == Opcode.READ_RESULT]
    if len(reads) != 1:
        raise ProgramError("need exactly one READ_RESULT")
    if reads[0] != len(active) - 1:
        raise ProgramError("READ_RESULT must be the last instruction")
    if not any(ins.op in (Opcode.RUN_REJSAMP, Opcode.RUN_FULL)
               for ins in active[:reads[0]]):
        raise ProgramError("READ_RESULT before any sampling run")
    return level


def run_program(words: list[int], seed: bytes, iv: bytes,
                cfg: TimingConfig | None = None,
                mem_depth: int = DEFAULT_DEPTH,
                freq_hz: float = 222e6) -> ProgramResult:
    """Decode and execute a sequence of instruction words; returns the
    cycle report, the sampled vector, the memory with its trace log and
    the parameter set the program ran."""
    cfg = cfg or TimingConfig()
    program = [decode(w) for w in words]
    level = _validate_program(program)
    p = builtin_params(level)
    mem = MemoryModel(mem_depth)  # rejects a depth that is not positive
    if mem_depth < p.required_mem_words:
        raise CapacityError(
            f"{level.value} needs {p.required_mem_words} memory words for "
            f"the keystream region but the memory holds {mem_depth}; rerun "
            f"with depth >= {p.required_mem_words}",
            required_words=p.required_mem_words)
    aesprg.check_key(seed)

    cycle = 0
    wrapper_cycles = 0
    rejsamp_cycles = 0
    seed_base = None
    seed_chunks = iter((seed[:8], seed[8:]))
    vector = None
    for ins in program:  # a NOP matches no branch
        if ins.op == Opcode.LOAD_SEED:
            if seed_base is None:
                seed_base = ins.waddr
            word = int.from_bytes(next(seed_chunks), "big")
            mem.write(ins.waddr, word, cycle=cycle, unit="ctrl")
            cycle += 1
        if ins.op in (Opcode.RUN_PRG, Opcode.RUN_FULL):
            # B1 staging: the wrapper pulls the seed back out of memory.
            staged = b"".join(
                mem.read(seed_base + i, cycle=cycle + i,
                         unit="wrapper").to_bytes(8, "big")
                for i in range(2))
            used = AesCtrWrapper(cfg).run(staged, iv, p, mem,
                                          start_cycle=cycle)
            wrapper_cycles += used
            cycle += used
        if ins.op in (Opcode.RUN_REJSAMP, Opcode.RUN_FULL):
            used = RejSampUnit(cfg).run(p, mem, start_cycle=cycle)
            rejsamp_cycles += used
            cycle += used
        if ins.op == Opcode.READ_RESULT:
            drain = [mem.read(ins.raddr + w, cycle=cycle + w,
                              unit="host") for w in range(p.out_addrs)]
            cycle += p.out_addrs
            vector = FieldVector(tuple(bytes_from_words(drain, p.n_prime)), p.q)
    assert vector is not None  # guaranteed by _validate_program

    report = CycleReport(
        wrapper_cycles=wrapper_cycles,
        rejsamp_cycles=rejsamp_cycles,
        freq_hz=freq_hz,
    )
    return ProgramResult(report=report, vector=vector, mem=mem, params=p)
