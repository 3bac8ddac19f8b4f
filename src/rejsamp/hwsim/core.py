"""Cycle-level model of the sampling coprocessor.

Two timed functional units run strictly one after the other, matching the
additive cycle decomposition of the modeled core (SL-I: 4632 + 3893 =
8525 with the default calibration):

  AES-CTR wrapper   per 16-byte block: issue into the pipelined core,
                    output ready after aes_latency cycles, drained in 2
                    cycles as two 64-bit word writes (one per cycle), plus
                    per_block_overhead; one-time wrapper_setup_cycles
                    covers seed staging (its first 2 cycles) and FSM
                    warmup.  cycles = setup + blocks * (latency + 2 +
                    overhead), blocks = ceil(tau/16).

  RejSamp unit      per 16-byte group: 2 refill-read cycles + 1 parallel
                    validate cycle; 1 collect cycle per stream byte (tau
                    total); 1 write per packed output word; one-time
                    rejsamp_setup_cycles.  cycles = setup + 3*groups +
                    tau + ceil(n'/8).

The per-state costs are a calibrated model, not measured RTL: the setup
defaults are solved so the SL-I totals reproduce the reference cycle
counts exactly.  The unit scans the full stream (no data-dependent early
stop), so no cycle depends on the data.  Each unit's loop is therefore
only its schedule, per block or group (issue rows, reads and writes at
their cycles); its datapath runs once over the whole stream, with
`packing` turning bytes into words, and its output is a per-block run's.

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
drains it from word 0.  The largest region ever live is the keystream, so
the required depth is exactly ceil(tau/8).  run_program alone knows this
map: it checks the depth once, and the units assume the schedule (the
wrapper writes every keystream word before the sampler reads one).

Trace: `ProgramResult.log` is the run's one trace, the memory's log.
Reads and writes log themselves; the wrapper adds an issue row per block
and the sampler a done row at its last write.
"""

from dataclasses import dataclass, fields

from .. import aesprg
from ..packing import words_from_bytes, bytes_from_words
from ..params import (BYTES_PER_WORD, ParameterSet, SecurityLevel,
                      builtin_params)
from ..sampler import FieldVector
from .errors import CapacityError, ProgramError
from .isa import Instruction, Opcode, decode
from .memory import DEFAULT_DEPTH, MemoryModel

_GROUP_BYTES = 16  # shift-register width: two 64-bit words


@dataclass(frozen=True)
class TimingConfig:
    """Cycle-cost knobs; the 2-cycle drain of a block is fixed, not a knob."""
    aes_latency: int = 21
    per_block_overhead: int = 2
    wrapper_setup_cycles: int = 57
    rejsamp_setup_cycles: int = 77

    def __post_init__(self):
        # the wrapper's setup stages the seed in its first 2 cycles
        least = {"aes_latency": 1, "wrapper_setup_cycles": 2}
        for f in fields(self):
            value, floor = getattr(self, f.name), least.get(f.name, 0)
            if value < floor:
                raise ValueError(f"{f.name} must be at least {floor}, got "
                                 f"{value}")


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

    Schedule, per block: issue into the core, then aes_latency cycles
    later drain its cipher output (B2) as two 64-bit words on consecutive
    cycles.  Datapath, once over the stream: one cipher call encrypts
    every counter block of the run, and the first tau bytes of its output
    are packed into words, the final one zero-padded.  It fills
    words [0, ceil(tau/8)), which run_program has checked the memory
    holds.
    """

    def __init__(self, cfg: TimingConfig):
        self.cfg = cfg

    def run(self, seed: bytes, iv: bytes, p: ParameterSet, mem: MemoryModel,
            start_cycle: int = 0) -> int:
        """Generate and store the keystream, logging an issue row per block;
        returns the cycles the block schedule spans from start_cycle."""
        cfg = self.cfg
        round_keys = aesprg.expand_key(seed)
        per_block = cfg.aes_latency + 2 + cfg.per_block_overhead  # 2: drain
        issue0 = start_cycle + cfg.wrapper_setup_cycles
        blocks = _block_count(p)
        counters = b"".join(aesprg.ctr_blocks(iv, blocks))  # checks the iv
        mem.log.extend((issue0 + b * per_block, "wrapper", "issue", b, None)
                       for b in range(blocks))
        stream = aesprg.encrypt_block_expanded(round_keys, counters)
        ready0 = issue0 + cfg.aes_latency
        for a, word in enumerate(words_from_bytes(stream[:p.tau])):
            mem.write(a, word, cycle=ready0 + (a // 2) * per_block + a % 2,
                      unit="wrapper")
        return issue0 + blocks * per_block - start_cycle


class RejSampUnit:
    """Streaming rejection-sampling unit.

    Schedule, per 16-byte group: two refill reads, one validate cycle
    (mask and compare against q) and one collect cycle per byte.
    Datapath, once over the stream read back: valid bytes from the spare
    tail queue up in arrival order and patch rejected head positions,
    which keeps the result bit-identical to the literal
    (position-preserving) algorithm.  It reads the keystream the wrapper
    wrote earlier in run_program's schedule.
    """

    def __init__(self, cfg: TimingConfig):
        self.cfg = cfg

    def run(self, p: ParameterSet, mem: MemoryModel, start_cycle: int = 0) -> int:
        """Sample the stored keystream into packed output words in place,
        logging a done row at the last write; returns the cycles the
        schedule spans from start_cycle."""
        q = p.q
        mask = bytes(b & q for b in range(256))
        cycle = start_cycle + self.cfg.rejsamp_setup_cycles
        words = []
        for g in range(_block_count(p)):
            in_group = min(_GROUP_BYTES, p.tau - g * _GROUP_BYTES)
            for i in range(-(-in_group // BYTES_PER_WORD)):  # refill
                words.append(mem.read(2 * g + i, cycle=cycle + i,
                                      unit="rejsamp"))
            cycle += 3 + in_group    # refill, validate, one collect per byte
        masked = bytes_from_words(words, p.tau).translate(mask)  # validate
        out = bytearray(masked[:p.n_prime])  # collect: the first n' values
        spares = masked[p.n_prime:].replace(bytes([q]), b"")  # valid tail
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
    log: list[tuple]  # (cycle, unit, event, addr, data) rows, as logged
    params: ParameterSet

    def trace_rows(self) -> list[tuple]:
        """The log's rows in cycle order."""
        return sorted(self.log, key=lambda r: (r[0], r[1], r[2]))


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
                cfg: TimingConfig | None = None,
                mem_depth: int = DEFAULT_DEPTH) -> ProgramResult:
    """Decode and check a program of instruction words, then run the one
    schedule every accepted program has (see the module docstring).
    Returns the cycle report, the sampled vector, the trace log and the
    parameter set the program ran."""
    cfg = cfg or TimingConfig()
    level, seed_addr = _validate_program([decode(w) for w in words])
    p = builtin_params(level)
    mem = MemoryModel(mem_depth)  # rejects a depth that is not positive
    if mem_depth < p.tau_addrs:
        raise CapacityError(
            f"{level.value} needs {p.tau_addrs} memory words for "
            f"the keystream region but the memory holds {mem_depth}; rerun "
            f"with depth >= {p.tau_addrs}")
    aesprg.check_key(seed)

    for i, word in enumerate(words_from_bytes(seed)):  # LOAD_SEED
        mem.write(seed_addr + i, word, cycle=i, unit="ctrl")
    # B1 staging: the wrapper pulls the seed back out of memory.
    staged = bytes_from_words(
        [mem.read(seed_addr + i, cycle=2 + i, unit="wrapper")
         for i in range(2)], aesprg.KEY_BYTES)
    wrapper_cycles = AesCtrWrapper(cfg).run(staged, iv, p, mem, start_cycle=2)
    cycle = 2 + wrapper_cycles
    rejsamp_cycles = RejSampUnit(cfg).run(p, mem, start_cycle=cycle)
    cycle += rejsamp_cycles
    drain = [mem.read(w, cycle=cycle + w, unit="host")
             for w in range(p.out_addrs)]
    vector = FieldVector(tuple(bytes_from_words(drain, p.n_prime)), p.q)
    report = CycleReport(wrapper_cycles=wrapper_cycles,
                         rejsamp_cycles=rejsamp_cycles)
    return ProgramResult(report=report, vector=vector, log=mem.log, params=p)
