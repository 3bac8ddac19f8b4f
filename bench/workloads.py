"""The benchmark's workloads and the checks that every op's output is right.

Each workload is a closed loop with one client: the next op starts when
the previous one has finished and been checked.  `make_op` draws the op's
inputs from the workload's seeded generator; `call` is the timed part;
`check` runs untimed afterwards, raises `Mismatch` on a wrong output and
returns the simulated cycles the op is credited with.  `call_inprocess`
is the same op run in the benchmark's own process, which is what the
traced run wraps.
"""

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from typing import NamedTuple

from rejsamp import cli, hwsim, kat, sampler
from rejsamp.params import builtin_params, level_from_number

# Closed-form cycles (wrapper, sampler) per level with the default timing:
# wrapper 57 + 25*blocks, sampler 77 + 3*blocks + tau + ceil(n'/8), where
# blocks = ceil(tau/16).  SL1 is the paper's 4632 + 3893 = 8525.
CYCLES = {1: (4632, 3893), 3: (9632, 8090), 5: (17282, 14501)}
# Invariant counts per level for the default program.
AES_BLOCKS = {1: 183, 3: 383, 5: 689}          # per keystream expansion
MEM_ACCESSES = {1: 1436, 3: 3018, 5: 5438}     # per run_program
STREAM_WORDS = {1: 365, 3: 766, 5: 1378}       # required memory depth
LEVEL_ORDER = (1, 3, 5)
TRACE_HEADER = "cycle,unit,event,addr,data"


class Mismatch(Exception):
    """An op produced a wrong output."""


class Op(NamedTuple):
    kind: str            # sweep, kat, simulate, verify or fom
    level: int | None
    key: bytes
    iv: bytes
    argv: tuple = ()


def expect_cycles(level, report):
    """Check a JSON cycle report against the closed form; returns the total."""
    got = tuple(report.get(k) for k in ("wrapper_cycles", "rejsamp_cycles",
                                        "total_cycles"))
    want = (*CYCLES[level], sum(CYCLES[level]))
    if got != want:
        raise Mismatch(f"SL{level} cycles (wrapper, sampler, total) {got}, "
                       f"closed form {want}")
    return want[2]


def _random_op(rng, kind, level):
    return Op(kind, level, rng.randbytes(16), rng.randbytes(2))


class Sweep:
    """Simulator against the golden model on fresh (seed, iv) pairs."""
    rotation = len(LEVEL_ORDER)
    subprocess = False

    def __init__(self, rng, workdir, env):
        self.rng = rng

    def make_op(self, i):
        return _random_op(self.rng, "sweep", LEVEL_ORDER[i % self.rotation])

    def call(self, op):
        level = level_from_number(op.level)
        sim = hwsim.run_program(hwsim.default_program(level), op.key, op.iv,
                                mem_depth=STREAM_WORDS[op.level])
        golden = sampler.rej_samp_prg(op.key, op.iv, builtin_params(level))
        return sim, golden

    call_inprocess = call

    def check(self, op, out):
        sim, golden = out
        if sim.vector.elems != golden.elems:
            raise Mismatch(f"SL{op.level} simulator vector differs from the "
                           f"golden model for key {op.key.hex()}")
        return expect_cycles(op.level, sim.report.to_json_dict())


class Kat:
    """One-case KAT file generated, parsed and verified: golden model only."""
    rotation = len(LEVEL_ORDER)
    subprocess = False

    def __init__(self, rng, workdir, env):
        self.rng = rng

    def make_op(self, i):
        return _random_op(self.rng, "kat", LEVEL_ORDER[i % self.rotation])

    def call(self, op):
        text = kat.generate_kat(op.key, op.iv, op.level, count=1)
        records = kat.parse_kat(text)
        return records, kat.verify_kat(records)

    call_inprocess = call

    def check(self, op, out):
        records, mismatch = out
        if mismatch is not None:
            raise Mismatch(f"verify_kat: {mismatch[1]}")
        if len(records) != 2:
            raise Mismatch(f"one KAT case gave {len(records)} records, not 2")
        # the modelled coprocessor would spend these cycles on the vector
        return sum(CYCLES[op.level])


class Cli:
    """One `rejsamp` process per op, in a fixed rotation."""
    ROTATION = (("simulate", 1), ("simulate", 3), ("simulate", 5),
                ("verify", 1), ("fom", None))
    rotation = len(ROTATION)
    subprocess = True

    def __init__(self, rng, workdir, env):
        self.rng = rng
        self.env = env
        self.trace = os.path.join(workdir, "trace.csv")
        self.vector = os.path.join(workdir, "vector.bin")
        self.kat_file = os.path.join(workdir, "small.kat")
        code, self.fom_expected = self.call_inprocess(Op("fom", None, b"", b"",
                                                         ("fom",)))
        if code != 0:
            raise Mismatch(f"in-process `rejsamp fom` exited {code}")

    def make_op(self, i):
        kind, level = self.ROTATION[i % self.rotation]
        op = _random_op(self.rng, kind, level)
        if kind == "simulate":
            argv = ("simulate", "--level", str(level), "--seed", op.key.hex(),
                    "--iv", op.iv.hex(), "--trace", self.trace,
                    "--out", self.vector)
            if level == 5:
                argv += ("--mem-depth", str(STREAM_WORDS[5]))
        elif kind == "verify":
            with open(self.kat_file, "w") as f:
                f.write(kat.generate_kat(op.key, op.iv, level, count=1))
            argv = ("kat", "verify", self.kat_file)
        else:
            argv = ("fom",)
        return op._replace(argv=argv)

    def call(self, op):
        proc = subprocess.run([sys.executable, "-m", "rejsamp.cli", *op.argv],
                              env=self.env, capture_output=True, text=True,
                              timeout=120)
        return proc.returncode, proc.stdout

    def call_inprocess(self, op):
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            try:
                code = cli.main(list(op.argv))
            except SystemExit as e:
                code = e.code
        return code, out.getvalue()

    def check(self, op, out):
        code, stdout = out
        if code != 0:
            raise Mismatch(f"`rejsamp {' '.join(op.argv[:3])}` exited {code}")
        if op.kind == "verify":
            if stdout.strip() != "verified 2 record(s)":
                raise Mismatch(f"kat verify printed {stdout.strip()!r}")
            return 0
        if op.kind == "fom":
            if stdout != self.fom_expected:
                raise Mismatch("fom report differs from the in-process one")
            return 0
        try:
            cycles = expect_cycles(op.level, json.loads(stdout.splitlines()[0]))
            with open(self.vector, "rb") as f:
                written = f.read()
            with open(self.trace) as f:
                header = f.readline().strip()
        finally:
            for path in (self.vector, self.trace):
                if os.path.exists(path):
                    os.remove(path)
        golden = sampler.rej_samp_prg(
            op.key, op.iv, builtin_params(level_from_number(op.level)))
        if written != golden.to_packed_bytes():
            raise Mismatch(f"SL{op.level} --out file differs from the golden "
                           f"packed vector for key {op.key.hex()}")
        if header != TRACE_HEADER:
            raise Mismatch(f"trace file header {header!r}")
        return cycles


WORKLOADS = {"sweep": Sweep, "kat": Kat, "cli": Cli}
