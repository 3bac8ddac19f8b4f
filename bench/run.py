"""rejsamp benchmark: one closed-loop workload, outputs checked, metrics out.

    python3 bench/run.py --workload sweep|kat|cli --seed N --seconds S --trace 0|1

Run it from the repository root; it imports the package from `src/` of
the checkout and exits with code 2 when that is missing.  The seed only
drives the benchmark's generator of (seed, iv) inputs.

Workloads (see BENCHMARK.json for why each was chosen):
  sweep  hwsim.run_program against rej_samp_prg, SL1 -> SL3 -> SL5 in turn
  kat    generate_kat(count=1) then parse_kat + verify_kat, levels in turn
  cli    one `rejsamp` process per op: simulate SL1/SL3/SL5 with --trace
         and --out, kat verify of a one-case file, fom

The run lasts at least --seconds and ends on a whole rotation of the
workload; an untraced run also makes at least MIN_OPS ops, so that ten
ops lie beyond p90.

Host times are normalized.  The shared host's speed drifts by tens of
percent for seconds at a time, so the benchmark pins itself and its
children to one CPU and times a fixed reference kernel after every
measured call.  Each call's time is scaled by REF_NOMINAL_MS over the mean
kernel time just before and after it: the values read as milliseconds on
a host where the kernel takes REF_NOMINAL_MS.  The unscaled figures are
kept under "raw" in the result file.

--trace 0 reports the end-to-end metrics.  ops_per_s and
sim_cycles_per_host_s divide by the time spent inside ops; the
benchmark's own output checks between ops are not counted.  On kat, which
never runs the simulator, each vector is credited with its closed-form
cycle count.  setup_s is the median time of fresh interpreters that
import rejsamp.cli.  peak_rss_mb is the peak RSS of this process, or of
its children for cli.  fail_ratio is printed with the other metrics but is
not in the result, whose `attempted` and `failed` already carry it.

--trace 1 reports the per-layer metrics, with times scaled by the run's
median kernel time.  Each op runs untraced, then again under the tracer
(bench/tracing.py); cli ops also run as a process first, and
cli.startup_ms is that process's wall time minus the untraced in-process
run of the same argv.  Exact counts must repeat between ops of one kind
and level, and between runs of the same source tree.

Stdout ends with one JSON line: correct, attempted, failed, metrics.
Run metadata and the full result go to bench/out/, with the spans of a
traced run.
"""

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import tracing

MIN_OPS = 100
SETUP_REPEATS = 7
SHOW_FAILURES = 5
# Median time of reference_kernel() on the development host (2 cores at
# 2.0 GHz, CPython 3.11); reported times are scaled to this host speed.
REF_NOMINAL_MS = 1.6
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

END_TO_END_UNITS = {
    "ops_per_s": "1/s", "op_ms_p50": "ms", "op_ms_p90": "ms",
    "sim_cycles_per_host_s": "cycles/s", "setup_s": "s", "peak_rss_mb": "MB",
}
# Pinned golden outputs for key 000102..0f, iv 0000: the SL1 keystream
# (equal to OpenSSL's AES-128-CTR) and the SL1 sampled vector.
PIN_KEY = bytes(range(16))
PIN_KEYSTREAM = "91b4bd125267edfb35bf5d7dcfa480ff52721c20f07f57a947d3747877fa1ffd"
PIN_VECTOR = "1fb40cd7d911d98d766c2b2d8cd1e71016fa6035ad2e30052ac5c1c06278a15f"
MEM_ACCESS = ("hwsim.MemoryModel.read", "hwsim.MemoryModel.write")
KAT_ENTRIES = ("kat.generate_kat", "kat.verify_kat", "kat.parse_kat")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["sweep", "kat", "cli"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return ap.parse_args(argv)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def metadata(args):
    files = sorted((SRC / "rejsamp").rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in files:
        data = path.read_bytes()
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "nproc": os.cpu_count(), "cpu": sorted(os.sched_getaffinity(0)),
        "src_rejsamp_lines": lines,
        "src_sha256": digest.hexdigest()[:16],
    }


def measure_setup(env, speed):
    """Median nominal-speed wall time of a fresh interpreter importing
    rejsamp.cli."""
    cmd = [sys.executable, "-c", "import rejsamp.cli"]
    subprocess.run(cmd, env=env, check=True, timeout=60)  # writes bytecode
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, check=True, timeout=60)
        samples.append(speed.normalize(time.perf_counter() - t0))
    return statistics.median(samples)


def golden_pins_hold():
    from rejsamp import aesprg, sampler
    from rejsamp.params import builtin_params, level_from_number
    p = builtin_params(level_from_number(1))
    ks = aesprg.keystream(PIN_KEY, b"\0\0", p.tau)
    vec = sampler.rej_samp_prg(PIN_KEY, b"\0\0", p).to_bytes()
    return (hashlib.sha256(ks).hexdigest() == PIN_KEYSTREAM
            and hashlib.sha256(vec).hexdigest() == PIN_VECTOR)


class Run:
    """Attempt/failure bookkeeping shared by both loops."""

    def __init__(self, workload, seconds, min_ops):
        self.wl = workload
        self.seconds = seconds
        self.min_ops = min_ops
        self.attempted = 0
        self.failed = 0

    def ops(self):
        """Op indices until the time is up, ending on a whole rotation."""
        start = time.perf_counter()
        i = 0
        while True:
            yield i
            i += 1
            if (i % self.wl.rotation == 0 and i >= self.min_ops
                    and time.perf_counter() - start >= self.seconds):
                return

    def timed(self, call, op):
        """(seconds, output or the exception call raised)."""
        t0 = time.perf_counter()
        try:
            out = call(op)
        except Exception as e:  # counted as a failed op by outcome()
            out = e
        return time.perf_counter() - t0, out

    def outcome(self, op, out):
        """(cycles credited to the op, None) or (None, the failure)."""
        try:
            if isinstance(out, Exception):
                raise out
            return self.wl.check(op, out), None
        except Exception as e:  # a wrong output must not stop the run
            return None, e

    def fail(self, op, error):
        self.failed += 1
        if self.failed <= SHOW_FAILURES:
            print(f"FAILED op {self.attempted} ({op.kind} SL{op.level}):",
                  file=sys.stderr)
            traceback.print_exception(error, limit=-3, file=sys.stderr)


_REF_TABLE = list(range(255, -1, -1))


def reference_kernel():
    """Fixed byte-table work of the same kind as the program's (list and
    bytes ops in the interpreter), independent of the rejsamp code."""
    t = _REF_TABLE
    state, acc = list(range(16)), 0
    for r in range(250):
        state = [t[b] for b in state]
        state = [state[(i * 5) & 15] for i in range(16)]
        state = [a ^ b for a, b in zip(state, t[r & 15:(r & 15) + 16])]
        acc ^= int.from_bytes(bytes(state), "big")
    return acc


class HostSpeed:
    """Scales host times to the nominal host speed (see the module doc)."""

    def __init__(self):
        self.refs = []
        self.sample()

    def sample(self):
        t0 = time.perf_counter()
        reference_kernel()
        self.refs.append(1e3 * (time.perf_counter() - t0))

    def normalize(self, seconds):
        """Nominal-speed seconds of a call that has just ended."""
        self.sample()
        return seconds * 2 * REF_NOMINAL_MS / (self.refs[-2] + self.refs[-1])

    def factor(self):
        """Run-wide scale: nominal over the median kernel time."""
        return REF_NOMINAL_MS / statistics.median(self.refs)


def latency_metrics(seconds, cycles):
    busy = sum(seconds)
    ms = sorted(1e3 * t for t in seconds)
    p90 = statistics.quantiles(ms, n=10, method="inclusive")[8]
    return {
        "ops_per_s": len(ms) / busy,
        "op_ms_p50": statistics.median(ms),
        "op_ms_p90": p90,
        "sim_cycles_per_host_s": cycles / busy,
    }, sum(t > p90 for t in ms)


def run_untraced(run, speed):
    raw, nominal, cycles = [], [], 0
    for i in run.ops():
        op = run.wl.make_op(i)
        dt, out = run.timed(run.wl.call, op)
        nominal.append(speed.normalize(dt))
        raw.append(dt)
        run.attempted += 1
        op_cycles, error = run.outcome(op, out)
        if error is None:
            cycles += op_cycles
        else:
            run.fail(op, error)
    metrics, beyond_p90 = latency_metrics(nominal, cycles)
    return metrics, {"ops": len(raw), "ops_beyond_p90": beyond_p90,
                     "raw": latency_metrics(raw, cycles)[0],
                     "ref_ms_median": statistics.median(speed.refs)}


class Tally:
    """Per-op figures of a traced run, summed for the per-layer metrics."""

    def __init__(self):
        self.ops = 0
        self.plain_ns = self.traced_ns = 0
        self.startup_ms = []
        self.first_counts = {}  # (kind, level) -> call counts of its first op
        self.per_level = {}     # level -> [blocks, expansions, accesses, runs]
        self.sim_cycles = {}    # level -> cycles reported with run_program
        self.sim_total = 0      # cycles of every op that ran run_program
        self.blocks = self.distinct = self.kat_ops = 0

    def repeat_error(self, op, counts):
        """A failure when this op's call counts differ from the first op
        of the same kind and level, else None."""
        first = self.first_counts.setdefault((op.kind, op.level), counts)
        if first != counts:
            return ValueError(f"call counts changed between ops: "
                              f"{dict(first)} then {dict(counts)}")
        return None

    def add(self, op, counts, n_distinct, cycles):
        self.ops += 1
        self.blocks += counts[tracing.BLOCK]
        self.distinct += n_distinct
        self.kat_ops += any(counts[k] for k in KAT_ENTRIES)
        if op.level is None:
            return
        acc = self.per_level.setdefault(op.level, [0, 0, 0, 0])
        acc[0] += counts[tracing.BLOCK]
        acc[1] += counts["aesprg.keystream"] + counts["hwsim.AesCtrWrapper.run"]
        acc[2] += sum(counts[k] for k in MEM_ACCESS)
        acc[3] += counts["hwsim.run_program"]
        if counts["hwsim.run_program"]:
            self.sim_cycles[op.level] = cycles
            self.sim_total += cycles


def run_traced(run, tracer, speed):
    wl, tally = run.wl, Tally()
    for i in run.ops():
        op = wl.make_op(i)
        run.attempted += 1
        errors = []
        if wl.subprocess:
            t_proc, out = run.timed(wl.call, op)
            errors.append(run.outcome(op, out)[1])
        t_plain, out = run.timed(wl.call_inprocess, op)
        errors.append(run.outcome(op, out)[1])
        try:
            out, dt, counts, n_distinct = tracer.run_op(
                i, lambda: wl.call_inprocess(op))
        except Exception as e:  # the op failed under the tracer
            out = e
        speed.sample()
        cycles, error = run.outcome(op, out)
        errors.append(error or tally.repeat_error(op, counts))
        errors = [e for e in errors if e is not None]
        if errors:
            run.fail(op, errors[0])
            continue
        tally.add(op, counts, n_distinct, cycles)
        tally.plain_ns += int(t_plain * 1e9)
        tally.traced_ns += dt
        if wl.subprocess:
            tally.startup_ms.append(1e3 * (t_proc - t_plain))
    factor = speed.factor()
    metrics = {k: (v * factor if u in ("ms", "us", "ns") else v, u)
               for k, (v, u) in layer_metrics(tracer, tally).items()}
    return metrics, {
        "counts": {f"{k}.SL{lv}" if lv else k: dict(c)
                   for (k, lv), c in tally.first_counts.items()},
        "absent": tracer.absent,
        "invariants": invariant_report(tally),
        "ref_ms_median": statistics.median(speed.refs),
    }


def layer_metrics(tracer, tally):
    tot = tracer.totals

    def calls(name):
        return tot[name][0] if name in tot else 0

    def mean(names, field, scale):
        """Mean total (field 1) or self (field 2) time per call, in scale."""
        c = sum(calls(n) for n in names)
        return sum(tot[n][field] for n in names if n in tot) / c / scale if c else 0.0

    def present(*names):
        return not any(n in tracer.absent for n in names)

    n_ops = tally.ops
    rp_ns = tot.get("hwsim.run_program", [0, 0, 0])[1]
    m = {}
    blocks = tally.blocks
    if present(tracing.BLOCK):
        m["aesprg.block_us"] = (mean([tracing.BLOCK], 1, 1e3), "us")
        m["aesprg.blocks_per_op"] = (blocks / n_ops if n_ops else 0.0, "count")
        m["aesprg.useful_block_ratio"] = (
            tally.distinct / blocks if blocks else 0.0, "ratio")
    if present("aesprg.expand_key"):
        m["aesprg.expand_key_us"] = (mean(["aesprg.expand_key"], 1, 1e3), "us")
    aes_self = sum(v[2] for k, v in tot.items() if k.startswith("aesprg."))
    traced_ns = tally.traced_ns
    m["aesprg.self_share"] = (aes_self / traced_ns if traced_ns else 0.0, "ratio")
    if present("hwsim.AesCtrWrapper.run"):
        m["hwsim.wrapper_self_ms"] = (mean(["hwsim.AesCtrWrapper.run"], 2, 1e6), "ms")
    if present("hwsim.RejSampUnit.run"):
        m["hwsim.rejsamp_unit_self_ms"] = (mean(["hwsim.RejSampUnit.run"], 2, 1e6), "ms")
    if present(*MEM_ACCESS):
        m["hwsim.mem_access_us"] = (mean(MEM_ACCESS, 1, 1e3), "us")
        m["hwsim.mem_accesses_per_op"] = (
            sum(calls(k) for k in MEM_ACCESS) / n_ops if n_ops else 0.0, "count")
    if present("hwsim.run_program"):
        m["hwsim.run_program_self_ms"] = (mean(["hwsim.run_program"], 2, 1e6), "ms")
        m["hwsim.host_ns_per_sim_cycle"] = (
            rp_ns / tally.sim_total if tally.sim_total else 0.0, "ns")
    if present("hwsim.ProgramResult.trace_rows"):
        m["hwsim.trace_rows_ms"] = (mean(["hwsim.ProgramResult.trace_rows"], 1, 1e6), "ms")
    for level in (1, 3, 5):
        blk, exp, acc, runs = tally.per_level.get(level, [0, 0, 0, 0])
        if present(tracing.BLOCK):
            m[f"aesprg.blocks_per_expansion.SL{level}"] = (
                blk / exp if exp else 0.0, "count")
        if present(*MEM_ACCESS):
            m[f"hwsim.mem_accesses_per_run.SL{level}"] = (
                acc / runs if runs else 0.0, "count")
        m[f"hwsim.sim_cycles.SL{level}"] = (tally.sim_cycles.get(level, 0), "count")
    if present("sampler.rej_samp"):
        m["sampler.rej_samp_self_ms"] = (mean(["sampler.rej_samp"], 2, 1e6), "ms")
    if present("kat.parse_kat"):
        m["kat.parse_ms"] = (mean(["kat.parse_kat"], 1, 1e6), "ms")
    if present(*KAT_ENTRIES):
        kat_self = sum(tot[k][2] for k in KAT_ENTRIES)
        m["kat.self_ms"] = (
            kat_self / tally.kat_ops / 1e6 if tally.kat_ops else 0.0, "ms")
    m["cli.startup_ms"] = (
        statistics.median(tally.startup_ms) if tally.startup_ms else 0.0, "ms")
    if present("cli.main"):
        m["cli.self_ms"] = (mean(["cli.main"], 2, 1e6), "ms")
    if present("fom.fom_report"):
        m["fom.report_ms"] = (mean(["fom.fom_report"], 1, 1e6), "ms")
    m["trace.overhead_ratio"] = (
        traced_ns / tally.plain_ns if tally.plain_ns else 0.0, "ratio")
    return m


def invariant_report(tally):
    """Exact counts against the paper's figures, for levels the run hit."""
    import workloads  # imported by main() once src/ is on the path
    report = {}
    for level, (blk, exp, acc, runs) in sorted(tally.per_level.items()):
        if exp:
            report[f"aes_blocks.SL{level}"] = blk == exp * workloads.AES_BLOCKS[level]
        if runs:
            report[f"mem_accesses.SL{level}"] = acc == runs * workloads.MEM_ACCESSES[level]
            report[f"sim_cycles.SL{level}"] = (
                tally.sim_cycles.get(level) == sum(workloads.CYCLES[level]))
    return report


def counts_repeat(path, counts):
    """Compare this run's exact counts with an earlier run of the same
    source tree, or record them; True when they agree."""
    if path.exists():
        earlier = json.loads(path.read_text())
        return all(earlier.get(k, v) == v for k, v in counts.items())
    path.write_text(json.dumps(counts, indent=1, sort_keys=True) + "\n")
    return True


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "rejsamp" / "__init__.py").is_file():
        print(f"error: no rejsamp package under {SRC}; run from a checkout "
              f"of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import rejsamp
    if Path(rejsamp.__file__).resolve().parent != SRC / "rejsamp":
        print(f"error: imported rejsamp from {rejsamp.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import workloads

    # One CPU for this process and its children, so that the reference
    # kernel sees the same host speed as the work it normalizes.
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except OSError as e:
        print(f"warning: running unpinned: {e}", file=sys.stderr)
    meta = metadata(args)
    env = child_env()
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        speed = HostSpeed()
        setup_s = None if args.trace else measure_setup(env, speed)
        correct = golden_pins_hold()
        if not correct:
            print("FAILED: golden keystream or vector differs from the pinned "
                  "digest", file=sys.stderr)
        wl = workloads.WORKLOADS[args.workload](
            random.Random(args.seed), str(workdir), env)
        if args.trace:
            tracer = tracing.Tracer()
            run = Run(wl, args.seconds, wl.rotation)
            values, extra = run_traced(run, tracer, speed)
            tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.csv.gz")
            counts_file = OUT / f"counts-{args.workload}-{meta['src_sha256']}.json"
            if not counts_repeat(counts_file, extra["counts"]):
                correct = False
                print(f"FAILED: exact counts differ from {counts_file.name}",
                      file=sys.stderr)
            for name, ok in extra["invariants"].items():
                if not ok:
                    print(f"warning: {name} differs from the paper's count",
                          file=sys.stderr)
        else:
            run = Run(wl, args.seconds, MIN_OPS)
            timings, extra = run_untraced(run, speed)
            who = resource.RUSAGE_CHILDREN if wl.subprocess else resource.RUSAGE_SELF
            peak_mb = resource.getrusage(who).ru_maxrss / 1024
            values = {k: (v, END_TO_END_UNITS[k]) for k, v in timings.items()}
            values["setup_s"] = (setup_s, "s")
            values["peak_rss_mb"] = (peak_mb, "MB")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
    result = {"correct": correct and run.failed == 0,
              "attempted": run.attempted, "failed": run.failed,
              "metrics": metrics}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps({"meta": meta, "extra": extra, **result},
                             indent=1) + "\n")
    print("meta " + json.dumps(meta))
    print("extra " + json.dumps(extra))
    for name, m in metrics.items():
        print(f"metric {name} {m['value']:.6g} {m['unit']}")
    print(f"metric fail_ratio {run.failed / run.attempted:.6g} ratio")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
