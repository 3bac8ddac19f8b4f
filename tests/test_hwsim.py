import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rejsamp.hwsim.core import (AesCtrWrapper, CycleReport, RejSampUnit,
                                _compiled, run_program)
from rejsamp.hwsim.errors import (AddressError, CapacityError,
                                  InvalidInstructionError, ProgramError,
                                  SimulationFault, UnsupportedLevelError)
from rejsamp.hwsim.isa import (Instruction, Opcode, assemble, decode,
                               default_program, encode, parse_program)
from rejsamp.hwsim.memory import MemoryModel
from rejsamp.params import SecurityLevel, builtin_params
from rejsamp.sampler import rej_samp, rej_samp_prg, rejection_stats
from oracles import (format_program, rej_samp_naive, rejsamp_cycles_oracle,
                     replay_trace, wrapper_cycles_oracle)

SEED = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
IV = b"\x00\x01"
SL1 = builtin_params(SecurityLevel.SL1)


def peek_range(mem, start, count):
    """Untimed, unlogged view of words [start, start + count) with all
    pending writes applied."""
    assert 0 <= start and start + count <= mem.depth
    latest = dict(mem.words)
    latest.update((a, w) for _, a, w in mem._pending)
    return [latest.get(a, 0) for a in range(start, start + count)]


# ---------------------------------------------------------------------------
# instruction set


def test_decode_zero_word():
    ins = decode(0)
    assert ins == Instruction(sec_level=0, raddr=0, waddr=0, wen=0, op=Opcode.NOP)


def test_encode_bit_positions():
    word = encode(Instruction(sec_level=0b01, raddr=0x3FF, waddr=0,
                              wen=1, op=Opcode.RUN_PRG))
    assert word & 0b11 == 0b01
    assert word >> 2 & 0x3FF == 0x3FF
    assert word >> 12 & 0x3FF == 0
    assert word >> 22 & 1 == 1
    assert word >> 23 == 0b010


@settings(max_examples=200, deadline=None)
@given(sl=st.integers(0, 3), raddr=st.integers(0, 1023),
       waddr=st.integers(0, 1023), wen=st.integers(0, 1),
       op=st.sampled_from(list(Opcode)))
def test_roundtrip_property(sl, raddr, waddr, wen, op):
    ins = Instruction(sl, raddr, waddr, wen, op)
    assert decode(encode(ins)) == ins


@pytest.mark.parametrize("field,value,width", [
    ("sec_level", 4, "2 bits"), ("raddr", 1024, "10 bits"),
    ("waddr", -1, "10 bits"), ("wen", 2, "1 bit")])
def test_instruction_fields_checked_against_their_widths(field, value, width):
    fields = dict(sec_level=0, raddr=0, waddr=0, wen=0, op=Opcode.NOP)
    with pytest.raises(InvalidInstructionError,
                       match=f"{field} field is {width}"):
        Instruction(**{**fields, field: value})


@pytest.mark.parametrize("opval", [6, 7])
def test_unknown_opcode_rejected(opval):
    with pytest.raises(InvalidInstructionError, match="opcode"):
        decode(opval << 23)


def test_overwide_word_rejected():
    with pytest.raises(InvalidInstructionError):
        decode(1 << 26)


def test_program_file_roundtrip():
    words = default_program(SecurityLevel.SL3)
    text = format_program(words)
    assert all(len(line) == 7 for line in text.split())
    assert parse_program(text) == words
    assert parse_program("# comment\n\n" + text) == words


def test_program_file_errors():
    with pytest.raises(InvalidInstructionError, match="line 1"):
        parse_program("xyz\n")
    # int(_, 16) would take these; a program word is hex digits only
    for word in ("-1", "+5", "1_0", "0x5"):
        with pytest.raises(InvalidInstructionError, match="line 2"):
            parse_program(f"0000000\n{word}\n")
    with pytest.raises(InvalidInstructionError, match="26 bits"):
        parse_program("4000000\n")
    # a word is at most 7 hex digits, leading zeros included
    for word in ("00000005", "000000000000000005"):
        with pytest.raises(InvalidInstructionError, match="line 2"):
            parse_program(f"0000000\n{word}\n")


def test_reserved_level_field():
    ins = Instruction(3, 0, 0, 0, Opcode.NOP)
    with pytest.raises(UnsupportedLevelError):
        ins.security_level()


# ---------------------------------------------------------------------------
# memory model


def test_write_not_visible_same_cycle():
    mem = MemoryModel(16)
    mem.write(5, 1, cycle=0)
    mem.write(5, 2, cycle=2)
    assert mem.read(5, cycle=2) == 1  # cycle-2 write lands next cycle
    assert mem.read(5, cycle=3) == 2


def test_dual_port_same_cycle_write_and_read():
    mem = MemoryModel(16)
    mem.write(7, 3, cycle=1)
    mem.write(5, 9, cycle=2)
    assert mem.read(7, cycle=2) == 3
    assert mem.read(5, cycle=3) == 9  # the same-cycle write took port A


def test_commit_follows_cycle_order():
    mem = MemoryModel(16)
    mem.write(5, 1, cycle=4)
    mem.write(5, 3, cycle=5)
    # the later cycle wins, as peek_range says, and lands a cycle later
    assert peek_range(mem, 5, 1) == [3]
    assert mem.read(5, cycle=5) == 1
    assert mem.read(5, cycle=6) == 3


def test_address_and_word_validation():
    mem = MemoryModel(16)
    with pytest.raises(IndexError):
        mem.write(16, 0, cycle=0)
    with pytest.raises(IndexError):
        mem.read(-1, cycle=0)
    with pytest.raises(ValueError):
        mem.write(0, 1 << 64, cycle=0)


def test_deep_memory_is_sparse():
    mem = MemoryModel(10**18)  # nothing is allocated per word
    mem.write(10**18 - 1, 7, cycle=0)
    assert mem.read(10**18 - 1, cycle=1) == 7
    with pytest.raises(SimulationFault, match="port B"):
        mem.read(12345, cycle=1)
    assert mem.read(12345, cycle=2) == 0
    assert peek_range(mem, 10**18 - 2, 2) == [0, 7]


WRITE_AFTER_WRITE = "port A: write to cycle 7 after a write to cycle 7"
READ_AFTER_READ = "port B: read in cycle 7 after a read in cycle 7"


@pytest.mark.parametrize("accesses,message", [
    # port A takes one write per cycle, whatever the address, in cycle order
    ([("write", 5, 7), ("write", 5, 7)], WRITE_AFTER_WRITE),
    ([("write", 5, 7), ("write", 6, 7)], WRITE_AFTER_WRITE),
    ([("write", 5, 7), ("write", 6, 6)],
     "port A: write to cycle 6 after a write to cycle 7"),
    # port B likewise takes one read per cycle, in cycle order
    ([("read", 5, 7), ("read", 5, 7)], READ_AFTER_READ),
    ([("read", 5, 7), ("read", 6, 7)], READ_AFTER_READ),
    ([("read", 5, 7), ("read", 5, 6)],
     "port B: read in cycle 6 after a read in cycle 7"),
    # a write may not land behind a read, but the read's own cycle is open
    ([("read", 5, 7), ("write", 5, 6)], "write to cycle 6 after cycle 7 was read"),
], ids=["ww-same", "ww-other-addr", "w-earlier", "rr-same", "rr-other-addr",
        "r-earlier", "w-behind-r"])
def test_port_rule_faults(accesses, message):
    mem = MemoryModel(16)
    (kind, addr, cycle), (bad_kind, bad_addr, bad_cycle) = accesses
    if kind == "write":
        mem.write(addr, 1, cycle=cycle)
    else:
        mem.read(addr, cycle=cycle)
    ports = (mem._write_cycle, mem._read_cycle)
    with pytest.raises(SimulationFault) as fault:
        if bad_kind == "write":
            mem.write(bad_addr, 2, cycle=bad_cycle)
        else:
            mem.read(bad_addr, cycle=bad_cycle)
    assert str(fault.value) == message
    # the faulting access leaves no trace: no port moved, no word stored
    assert (mem._write_cycle, mem._read_cycle) == ports
    assert peek_range(mem, 0, 16) == [int(kind == "write" and a == addr)
                                      for a in range(16)]
    # and the next legal accesses still go through: a write in the cycle
    # after a write, or in the very cycle of a read
    mem.write(9, 3, cycle=cycle + (kind == "write"))
    assert mem.read(9, cycle=cycle + 2) == 3


# ---------------------------------------------------------------------------
# AES-CTR wrapper


def _wrapper():
    """The wrapper's SL1 schedule rows, the cycles they span and its
    keystream bytes."""
    unit = AesCtrWrapper()
    rows, cycles = unit.schedule(SL1)
    return rows, cycles, unit.run(SEED, IV, SL1)


def _sampled_bytes(stream, p=SL1):
    """The n' bytes the rejsamp unit samples from the keystream."""
    out = RejSampUnit().run(p, stream)
    assert len(out) == p.n_prime
    return out


def test_wrapper_cycles_and_writes():
    rows, cycles, stream = _wrapper()
    assert cycles == 4632
    writes = [r for r in rows if r[2] == "write"]
    assert len(writes) == -(-len(stream) // 8) == 365
    assert sorted(r[3] for r in writes) == list(range(365))


def test_wrapper_block_count_events():
    rows, _ = AesCtrWrapper().schedule(SL1)
    assert sum(r[2] == "issue" for r in rows) == 183


def test_pipeline_latency_from_log():
    rows, _ = AesCtrWrapper().schedule(SL1)
    first_issue = min(r[0] for r in rows if r[2] == "issue")
    w0, w1 = sorted(r for r in rows if r[2] == "write")[:2]
    assert w0[0] - first_issue == 21  # the cipher core's latency
    # B2 drains as two word writes on consecutive cycles
    assert (w1[0] - w0[0], w1[3] - w0[3]) == (1, 1)


# ---------------------------------------------------------------------------
# RejSamp unit


def test_rejsamp_unit_cycles_and_oracle():
    _, _, raw = _wrapper()
    rows, cycles = RejSampUnit().schedule(SL1)
    assert cycles == 3893
    out_writes = [r for r in rows if r[1:3] == ("rejsamp", "write")]
    assert len(out_writes) == 351
    out = _sampled_bytes(raw)
    assert list(out) == rej_samp_naive(raw, SL1.tau, SL1.n_prime, SL1.q)
    assert out == rej_samp(raw, SL1.tau, SL1.n_prime, SL1.q).elems


@pytest.mark.parametrize("density", [0, 0.05, 0.3, 0.9, 1.0])
@pytest.mark.parametrize("level", list(SecurityLevel), ids=lambda l: l.value)
def test_rejsamp_unit_matches_golden_adversarial(level, density):
    # streams dense in bytes that mask to q (0x7F, 0xFF); n' never falls on
    # a 16-byte group boundary, so each level splits a group
    p = builtin_params(level)
    assert p.n_prime % 16 != 0
    rng = random.Random(f"{level.value}-{density}")
    for _ in range(8):
        raw = bytes(rng.choice((0x7F, 0xFF)) if rng.random() < density
                    else rng.randrange(256) for _ in range(p.tau))
        out = _sampled_bytes(raw, p)
        assert list(out) == rej_samp_naive(raw, p.tau, p.n_prime, p.q)
        assert out == rej_samp(raw, p.tau, p.n_prime, p.q).elems
        # the spare tail runs dry (zero-fill) whenever q-bytes are dense
        assert (rejection_stats(raw, p.tau, p.n_prime, p.q).zero_filled > 0) \
            == (density > 0)


# ---------------------------------------------------------------------------
# full program


def test_run_program_reference_cycles():
    res = run_program(default_program(SecurityLevel.SL1), SEED, IV)
    r = res.report
    assert (r.total_cycles, r.wrapper_cycles, r.rejsamp_cycles) == (8525, 4632, 3893)
    assert res.vector.elems == rej_samp_prg(SEED, IV, SL1).elems


@pytest.mark.parametrize("level", [SecurityLevel.SL1, SecurityLevel.SL3])
def test_schedule_ignores_seed(level):
    # the paper's cycle counts are data-independent: only the data column
    # of the trace may change with the seed
    rng = random.Random(7)
    prog = default_program(level)
    schedules = set()
    for _ in range(4):
        res = run_program(prog, rng.randbytes(16), rng.randbytes(2))
        schedules.add(tuple(row[:4] for row in res.trace_rows()))
    assert len(schedules) == 1


def _split_program(level):
    """Separate RUN_PRG and RUN_REJSAMP runs, seed at words 3-4, one NOP."""
    return [
        assemble(Opcode.LOAD_SEED, level, waddr=3, wen=1),
        assemble(Opcode.LOAD_SEED, level, waddr=4, wen=1),
        assemble(Opcode.NOP, level),
        assemble(Opcode.RUN_PRG, level),
        assemble(Opcode.RUN_REJSAMP, level),
        assemble(Opcode.READ_RESULT, level, raddr=0),
    ]


@pytest.mark.parametrize("program", [default_program, _split_program],
                         ids=["default", "split"])
@pytest.mark.parametrize("level", list(SecurityLevel), ids=lambda l: l.value)
def test_schedule_fits_the_memory_ports(program, level):
    res = run_program(program(level), SEED, IV, mem_depth=1378)
    log, report = res.trace_rows(), res.report
    # each unit's rows lie inside the span it reports, the drain included
    start = min(row[0] for row in log if row[1] == "wrapper")
    last_write = max(row[0] for row in log if row[1:3] == ("wrapper", "write"))
    assert start <= last_write < start + report.wrapper_cycles
    sampler = [row[0] for row in log if row[1] == "rejsamp"]
    assert start + report.wrapper_cycles <= min(sampler)
    assert max(sampler) < start + report.total_cycles
    # the setup covers seed staging: no block issues before its key is read
    staged = max(row[0] for row in log if row[1:3] == ("wrapper", "read"))
    assert all(row[0] > staged for row in log if row[2] == "issue")
    p = builtin_params(level)
    replay_trace(log, SEED, IV, p.tau, p.n_prime, p.q)


def test_nops_are_free():
    level = SecurityLevel.SL1
    nop = assemble(Opcode.NOP, level)
    prog = default_program(level)
    res = run_program([nop] + prog[:2] + [nop] + prog[2:], SEED, IV)
    assert res.report.total_cycles == 8525


def test_sl5_capacity_and_enlarged_run():
    prog = default_program(SecurityLevel.SL5)
    with pytest.raises(CapacityError, match="1378"):
        run_program(prog, SEED, IV)
    res = run_program(prog, SEED, IV, mem_depth=1378)
    p5 = builtin_params(SecurityLevel.SL5)
    assert res.vector.elems == rej_samp_prg(SEED, IV, p5).elems


def _prog(*ops):
    return [encode(i) for i in ops]


SHAPE_ERROR = "a program is 2 LOAD_SEED, then RUN_FULL or RUN_PRG, RUN_REJSAMP"


def test_program_order_errors():
    L = SecurityLevel.SL1
    ld0 = Instruction(0, 0, 0, 1, Opcode.LOAD_SEED)
    ld1 = Instruction(0, 0, 1, 1, Opcode.LOAD_SEED)
    run = Instruction(0, 0, 0, 0, Opcode.RUN_FULL)
    rd = Instruction(0, 0, 0, 0, Opcode.READ_RESULT)
    with pytest.raises(ProgramError, match="runs LOAD_SEED, RUN_FULL, READ"):
        run_program(_prog(ld0, run, rd), SEED, IV)
    with pytest.raises(ProgramError, match=SHAPE_ERROR):
        run_program(_prog(ld0, run, ld1, rd), SEED, IV)
    with pytest.raises(ProgramError, match=SHAPE_ERROR):
        run_program(_prog(ld0, ld1, rd, run), SEED, IV)
    with pytest.raises(ProgramError, match=SHAPE_ERROR):
        run_program(_prog(ld0, ld1, run), SEED, IV)
    with pytest.raises(ProgramError, match="consecutive"):
        run_program(_prog(ld0, Instruction(0, 0, 5, 1, Opcode.LOAD_SEED),
                          run, rd), SEED, IV)
    with pytest.raises(ProgramError, match="wen=1"):
        run_program(_prog(Instruction(0, 0, 0, 0, Opcode.LOAD_SEED),
                          ld1, run, rd), SEED, IV)
    with pytest.raises(ProgramError, match="wen set"):
        run_program(_prog(ld0, ld1,
                          Instruction(0, 0, 0, 1, Opcode.RUN_FULL), rd),
                    SEED, IV)
    with pytest.raises(ProgramError, match="mixed"):
        run_program(_prog(ld0, Instruction(1, 0, 1, 1, Opcode.LOAD_SEED),
                          run, rd), SEED, IV)
    with pytest.raises(ProgramError, match="empty"):
        run_program([], SEED, IV)
    with pytest.raises(ProgramError, match="NOP"):
        run_program(_prog(Instruction(0, 0, 0, 0, Opcode.NOP)), SEED, IV)
    with pytest.raises(ProgramError, match=SHAPE_ERROR):
        run_program(_prog(ld0, ld1,
                          Instruction(0, 0, 0, 0, Opcode.RUN_PRG), rd),
                    SEED, IV)
    # the result sits at word 0: any other drain address is a program error
    with pytest.raises(ProgramError, match="READ_RESULT raddr is 5"):
        run_program(_prog(ld0, ld1, run,
                          Instruction(0, 5, 0, 0, Opcode.READ_RESULT)),
                    SEED, IV)


# the only op sequences, NOPs dropped, that produce a sampled vector
PROGRAM_SHAPES = (
    (Opcode.LOAD_SEED, Opcode.LOAD_SEED, Opcode.RUN_FULL, Opcode.READ_RESULT),
    (Opcode.LOAD_SEED, Opcode.LOAD_SEED, Opcode.RUN_PRG, Opcode.RUN_REJSAMP,
     Opcode.READ_RESULT),
)
_shaped_ops = st.builds(
    lambda runs: [Opcode.LOAD_SEED, Opcode.LOAD_SEED, *runs,
                  Opcode.READ_RESULT],
    st.lists(st.sampled_from([Opcode.RUN_FULL, Opcode.RUN_PRG,
                              Opcode.RUN_REJSAMP, Opcode.NOP]),
             min_size=1, max_size=3))


@pytest.fixture(scope="module")
def sl1_reference():
    return run_program(default_program(SecurityLevel.SL1), SEED, IV)


@settings(max_examples=60, deadline=None)
@given(ops=st.one_of(_shaped_ops,
                     st.lists(st.sampled_from(list(Opcode)), max_size=7)),
       seed_base=st.integers(0, 1000))
def test_program_shape_property(sl1_reference, ops, seed_base):
    # the k-th LOAD_SEED targets seed_base + k, so the seed words are
    # consecutive and no other rule than the op sequence can fail
    L, loads = SecurityLevel.SL1, iter(range(seed_base, seed_base + len(ops)))
    words = [assemble(op, L, waddr=next(loads), wen=1)
             if op == Opcode.LOAD_SEED else assemble(op, L)
             for op in ops]
    if tuple(op for op in ops if op != Opcode.NOP) not in PROGRAM_SHAPES:
        with pytest.raises(ProgramError):
            run_program(words, SEED, IV)
        return
    res = run_program(words, SEED, IV)
    assert res.report == sl1_reference.report
    assert res.vector == sl1_reference.vector


@pytest.mark.parametrize("level", list(SecurityLevel), ids=lambda l: l.value)
def test_trace_replays_against_the_oracles(level):
    p = builtin_params(level)
    res = run_program(default_program(level), SEED, IV,
                      mem_depth=max(1024, p.tau_addrs))
    replay_trace(res.trace_rows(), SEED, IV, p.tau, p.n_prime, p.q)


def _nth(rows, unit, event, n):
    """The index in rows of the unit's n-th row of the event."""
    return [i for i, r in enumerate(rows) if r[1:3] == (unit, event)][n]


def _change_drained_word(rows):
    i = _nth(rows, "host", "read", 100)
    cycle, unit, event, addr, data = rows[i]
    rows[i] = (cycle, unit, event, addr, data ^ 1)


def _drop_refill_read(rows):
    del rows[_nth(rows, "rejsamp", "read", 100)]


def _move_write_onto_a_write(rows):
    # a block's second word drained in the cycle of its first
    i = _nth(rows, "wrapper", "write", 101)
    rows[i] = (rows[i - 1][0],) + rows[i][1:]


def _one_cycle_late(unit, event, n):
    """A mutant that moves the unit's n-th row of the event a cycle later,
    keeping its data."""
    def mutate(rows):
        i = _nth(rows, unit, event, n)
        rows[i] = (rows[i][0] + 1,) + rows[i][1:]
    return mutate


@pytest.mark.parametrize("mutate,error", [
    (_change_drained_word, "read of word 100"),
    (_drop_refill_read, "do not cover"),
    (_move_write_onto_a_write, "second write"),
    (_one_cycle_late("host", "read", -1), "drain reads"),
    (_one_cycle_late("wrapper", "write", 101), "two keystream writes"),
    (_one_cycle_late("rejsamp", "read", 101), "refill group's reads"),
    (_one_cycle_late("wrapper", "issue", 50), "issue rows"),
    (_one_cycle_late("rejsamp", "done", 0), "done row"),
], ids=["drained-word-changed", "refill-read-dropped", "write-onto-a-write",
        "last-drain-late", "second-write-late", "second-refill-read-late",
        "issue-moved", "done-moved"])
def test_trace_scoreboard_catches_mutations(sl1_reference, mutate, error):
    rows = sl1_reference.trace_rows()
    mutate(rows)
    rows.sort(key=lambda r: r[:3])  # as trace_rows orders them
    with pytest.raises(AssertionError, match=error):
        replay_trace(rows, SEED, IV, SL1.tau, SL1.n_prime, SL1.q)


# ---------------------------------------------------------------------------
# compiled schedule cache

@pytest.mark.parametrize("level,depth", [
    (SecurityLevel.SL1, 1024),
    (SecurityLevel.SL3, 1024),
    (SecurityLevel.SL5, 1378),
    (SecurityLevel.SL3, 5000),
], ids=["SL1", "SL3", "SL5", "SL3-deep"])
def test_cache_hit_equals_miss(level, depth):
    p, prog = builtin_params(level), default_program(level)
    _compiled.cache_clear()
    miss = run_program(prog, SEED, IV, mem_depth=depth)
    hit = run_program(prog, SEED, IV, mem_depth=depth)
    info = _compiled.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    assert hit.trace_rows() == miss.trace_rows()
    assert (hit.vector, hit.report) == (miss.vector, miss.report)
    for res in (miss, hit):
        replay_trace(res.trace_rows(), SEED, IV, p.tau, p.n_prime, p.q)


def test_interleaved_keys_keep_their_own_schedules():
    # each part of the key changes the schedule or whether it fits
    L = SecurityLevel.SL1
    far = [assemble(Opcode.LOAD_SEED, L, waddr=1000, wen=1),
           assemble(Opcode.LOAD_SEED, L, waddr=1001, wen=1),
           *default_program(L)[2:]]
    runs = [(L, default_program(L), 1024),
            (L, default_program(L), 5000),
            (L, far, 1024),
            (SecurityLevel.SL3, default_program(SecurityLevel.SL3), 1024)]
    for level, words, depth in runs + runs[::-1]:
        res = run_program(words, SEED, IV, mem_depth=depth)
        p = builtin_params(level)
        assert res.report.wrapper_cycles == wrapper_cycles_oracle(p.tau)
        assert res.report.rejsamp_cycles == rejsamp_cycles_oracle(
            p.tau, p.n_prime)
        rows = res.trace_rows()
        seed_addr = decode(words[0]).waddr
        assert [r[3] for r in rows if r[1] == "ctrl"] == [seed_addr,
                                                         seed_addr + 1]
        replay_trace(rows, SEED, IV, p.tau, p.n_prime, p.q)
        with pytest.raises(AddressError):  # the far seed needs depth 1002
            run_program(far, SEED, IV, mem_depth=1001)


@pytest.mark.parametrize("unit,event,addr,message", [
    # the refill reads write 104 early; word 0 keeps seed write 1
    (RejSampUnit, "read", 100, "rejsamp read of word 101 in cycle 5661 "
     "returns write 104; the memory map gives write 103"),
    (AesCtrWrapper, "write", 0, "rejsamp read of word 0 in cycle 4711 "
     "returns write 1; the memory map gives write 3"),
], ids=["refill-read-moved", "keystream-write-moved"])
def test_compiled_refuses_a_schedule_that_breaks_the_memory_map(
        monkeypatch, unit, event, addr, message):
    schedule = unit.schedule  # its row for word addr goes to word addr ^ 1

    def moved(self, p, start_cycle=0):
        rows, cycles = schedule(self, p, start_cycle)
        return [r[:3] + (addr ^ 1,) if r[2:] == (event, addr) else r
                for r in rows], cycles

    prog = default_program(SecurityLevel.SL1)
    _compiled.cache_clear()
    monkeypatch.setattr(unit, "schedule", moved)
    try:
        with pytest.raises(SimulationFault) as fault:
            run_program(prog, SEED, IV)
    finally:
        monkeypatch.undo()
        _compiled.cache_clear()
    assert str(fault.value) == message
    res = run_program(prog, SEED, IV)
    replay_trace(res.trace_rows(), SEED, IV, SL1.tau, SL1.n_prime, SL1.q)


def test_trace_rows_hands_out_a_new_list():
    res = run_program(default_program(SecurityLevel.SL1), SEED, IV)
    rows = res.trace_rows()
    for mutate in (_change_drained_word, _drop_refill_read,
                   _move_write_onto_a_write):
        mutate(rows)
    rows.clear()
    again = run_program(default_program(SecurityLevel.SL1), SEED, IV)
    for res in (res, again):
        replay_trace(res.trace_rows(), SEED, IV, SL1.tau, SL1.n_prime, SL1.q)


def test_errors_after_a_good_run_keep_their_order():
    # precedence: program, then depth, then capacity, then key, then iv;
    # an error is raised again on every call, never cached
    L = SecurityLevel.SL1
    prog = default_program(L)
    reserved = [encode(Instruction(3, 0, 0, 1, Opcode.LOAD_SEED)),
                encode(Instruction(3, 0, 1, 1, Opcode.LOAD_SEED)),
                encode(Instruction(3, 0, 0, 0, Opcode.RUN_FULL)),
                encode(Instruction(3, 0, 0, 0, Opcode.READ_RESULT))]
    mixed = [prog[0], assemble(Opcode.LOAD_SEED, SecurityLevel.SL3,
                               waddr=1, wen=1), *prog[2:]]
    far = [assemble(Opcode.LOAD_SEED, L, waddr=500, wen=1),
           assemble(Opcode.LOAD_SEED, L, waddr=501, wen=1), *prog[2:]]
    key, iv = SEED[:15], IV + b"\x00"
    cases = [
        (reserved, key, iv, 0, UnsupportedLevelError, "reserved"),
        (mixed, key, iv, 0, ProgramError, "mixed"),
        (prog, key, iv, 0, ValueError, "depth must be positive"),
        (prog, key, iv, -5, ValueError, "depth must be positive"),
        (prog, key, iv, 364, CapacityError, "needs 365"),
        (prog, key, iv, 1024, ValueError, "key must be 16 bytes"),
        (prog, SEED, iv, 1024, ValueError, "iv must be 2 bytes"),
        (prog, SEED, IV[:1], 1024, ValueError, "iv must be 2 bytes"),
        (far, key, iv, 400, ValueError, "key must be 16 bytes"),
        (far, SEED, iv, 400, AddressError, "address 500"),
    ]
    good = run_program(prog, SEED, IV)
    for _ in range(2):
        for words, seed, iv_, depth, error, match in cases:
            with pytest.raises(error, match=match):
                run_program(words, seed, iv_, mem_depth=depth)
        again = run_program(prog, SEED, IV)
        assert again.vector == good.vector
        assert again.trace_rows() == good.trace_rows()


def test_cycle_report_identity_enforced():
    r = CycleReport(wrapper_cycles=5, rejsamp_cycles=4)
    assert r.total_cycles == 9 == r.to_json_dict()["total_cycles"]
    with pytest.raises(TypeError):  # the total is derived, never stored
        CycleReport(total_cycles=10, wrapper_cycles=5, rejsamp_cycles=4)
