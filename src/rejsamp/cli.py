"""Command-line front end.

Subcommands: sample, simulate, kat generate|verify, fom, params.

Exit codes are a stable contract: 0 success, 2 usage, malformed input or
a file that cannot be read or written, 3 unsupported security level,
4 memory capacity, 5 KAT mismatch. Every command is
deterministic given its full flag set; the seed is always an explicit
argument.

Binary vector artifacts use the packed 64-bit-word convention (element 0
in the most significant byte of word 0, words serialized big-endian), so
the file bytes are the elements in order, zero-padded to a multiple of 8.
"""

import argparse
import json
import re
import sys

from . import aesprg, fom, kat
from .hwsim.core import run_program
from .hwsim.errors import CapacityError, HwSimError, UnsupportedLevelError
from .hwsim.isa import default_program, parse_program
from .hwsim.memory import DEFAULT_DEPTH
from .params import LEVEL_NUMBERS, builtin_params, level_from_number
from .sampler import FieldVector, rej_samp, rejection_stats

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_UNSUPPORTED_LEVEL = 3
EXIT_CAPACITY = 4
EXIT_MISMATCH = 5


def _hex_arg(name: str, n_bytes: int):
    """An argparse type that accepts exactly n_bytes bytes as hex."""
    def parse(s: str) -> bytes:
        # the digits first: bytes.fromhex skips whitespace
        if not re.fullmatch(r"[0-9a-fA-F]*", s):
            raise argparse.ArgumentTypeError(f"{s!r} is not hex")
        if len(s) != 2 * n_bytes:
            raise argparse.ArgumentTypeError(
                f"{name} must be exactly {2 * n_bytes} hex digits")
        return bytes.fromhex(s)
    return parse


_seed_arg = _hex_arg("seed", aesprg.KEY_BYTES)
_iv_arg = _hex_arg("iv", aesprg.IV_BYTES)


def _emit(text: str, path: str | None) -> None:
    """Write text to path, or to stdout when no path is given."""
    if path:
        with open(path, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _write_vector(vec: FieldVector, path: str, fmt: str):
    if fmt == "bin":
        with open(path, "wb") as f:
            f.write(vec.to_packed_bytes())
    elif fmt == "csv":
        with open(path, "w") as f:
            f.write(vec.to_csv())
    else:
        with open(path, "w") as f:
            json.dump(list(vec.elems), f)
            f.write("\n")


def _cmd_params(args) -> int:
    dicts = [builtin_params(level_from_number(n)).to_dict()
             for n in ([args.level] if args.level else LEVEL_NUMBERS)]
    doc = dicts[0] if args.level else {d["sec_level"]: d for d in dicts}
    _emit(json.dumps(doc, indent=2) + "\n", args.params_out)
    return EXIT_OK


def _cmd_sample(args) -> int:
    p = builtin_params(level_from_number(args.level))
    raw = aesprg.keystream(args.seed, args.iv, p.tau)
    vec = rej_samp(raw, p.tau, p.n_prime, p.q)
    stats = rejection_stats(raw, p.tau, p.n_prime, p.q)
    if args.out:
        # file first, as in simulate: a report on stdout means it was written
        _write_vector(vec, args.out, args.format)
    print(f"elements: {len(vec)} (q={p.q})")
    print(f"stream bytes: {stats.tau}, masked to q: {stats.masked_to_q} "
          f"(rate {stats.rejection_rate:.5f}), replaced from tail: "
          f"{stats.replaced}, zero-filled: {stats.zero_filled}")
    if args.out:
        print(f"wrote {args.format} artifact to {args.out}")
    return EXIT_OK


def _cmd_simulate(args) -> int:
    if args.program is not None:
        with open(args.program) as f:
            words = parse_program(f.read())
    else:
        words = default_program(level_from_number(args.level))
    result = run_program(words, args.seed, args.iv, mem_depth=args.mem_depth)
    report = result.report.to_json_dict()
    report["freq_hz"] = args.freq
    report["latency_us"] = fom.latency(report["total_cycles"], args.freq) * 1e6
    if args.trace:
        with open(args.trace, "w") as f:
            f.write("cycle,unit,event,addr,data\n")
            for cycle, unit, event, addr, data in result.trace_rows():
                addr_s = "" if addr is None else str(addr)
                data_s = "" if data is None else f"{data:016x}"
                f.write(f"{cycle},{unit},{event},{addr_s},{data_s}\n")
    if args.out:
        _write_vector(result.vector, args.out, args.format)
    # files first: a report on stdout must mean every output was written
    sys.stdout.write(json.dumps(report) + "\n")
    return EXIT_OK


def _cmd_kat(args) -> int:
    if args.kat_mode == "generate":
        _emit(kat.generate_kat(args.seed, args.iv, args.level,
                               count=args.count), args.out)
        return EXIT_OK
    with open(args.path) as f:
        records = kat.parse_kat(f.read())
    if not records:
        raise ValueError(f"{args.path} holds no KAT records")
    mismatch = kat.verify_kat(records)
    if mismatch is not None:
        print(mismatch[1], file=sys.stderr)
        return EXIT_MISMATCH
    print(f"verified {len(records)} record(s)")
    return EXIT_OK


def _cmd_fom(args) -> int:
    if args.metrics:
        with open(args.metrics) as f:
            try:
                doc = json.load(f)
            except RecursionError:
                raise ValueError("metrics file is nested too deeply") from None
    else:
        doc = fom.REFERENCE_INPUTS
    report = fom.fom_report(doc)
    for warning in report["warnings"]:
        print(f"warning: {warning}", file=sys.stderr)
    _emit(fom.report_to_csv(report) if args.format == "csv"
          else json.dumps(report, indent=2) + "\n", args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="rejsamp",
        description="Bit-exact model of an AES-CTR rejection-sampling "
                    "coprocessor for QR-UOV.",
        epilog="Binary artifacts pack 8 one-byte elements per 64-bit word, "
               "element 0 in the most significant byte, words serialized "
               "big-endian: the file holds the elements in order, "
               "zero-padded to a multiple of 8 bytes. Exit codes: 0 ok, "
               "2 usage/malformed input/unusable file, 3 unsupported "
               "level, 4 memory capacity, 5 KAT mismatch.")
    sub = ap.add_subparsers(dest="command", required=True)

    pp = sub.add_parser("params", help="emit parameter sets as JSON")
    pp.add_argument("--level", type=int, choices=LEVEL_NUMBERS)
    pp.add_argument("--params-out", metavar="PATH")
    pp.set_defaults(func=_cmd_params)

    ps = sub.add_parser("sample", help="run the golden sampler")
    ps.add_argument("--level", type=int, choices=LEVEL_NUMBERS, required=True)
    ps.add_argument("--seed", type=_seed_arg, required=True,
                    help=f"{2 * aesprg.KEY_BYTES} hex digits")
    ps.add_argument("--iv", type=_iv_arg, required=True,
                    help=f"{2 * aesprg.IV_BYTES} hex digits")
    ps.add_argument("--out", metavar="PATH")
    ps.add_argument("--format", choices=["bin", "csv", "json"], default="bin")
    ps.set_defaults(func=_cmd_sample)

    pm = sub.add_parser("simulate", help="run the cycle-level simulator")
    source = pm.add_mutually_exclusive_group(required=True)
    source.add_argument("--level", type=int, choices=LEVEL_NUMBERS)
    source.add_argument("--program", metavar="PATH",
                        help="hex instruction file overriding the default "
                             "program")
    pm.add_argument("--seed", type=_seed_arg, required=True)
    pm.add_argument("--iv", type=_iv_arg, required=True)
    pm.add_argument("--freq", type=float, default=222e6,
                    help="clock frequency in Hz (default 222e6)")
    pm.add_argument("--mem-depth", type=int, default=DEFAULT_DEPTH)
    pm.add_argument("--trace", metavar="PATH", help="write a CSV access trace")
    pm.add_argument("--out", metavar="PATH")
    pm.add_argument("--format", choices=["bin", "csv", "json"], default="bin")
    pm.set_defaults(func=_cmd_simulate)

    pk = sub.add_parser("kat", help="known-answer-test files")
    ksub = pk.add_subparsers(dest="kat_mode", required=True)
    kg = ksub.add_parser("generate")
    kg.add_argument("--level", type=int, choices=LEVEL_NUMBERS, required=True)
    kg.add_argument("--seed", type=_seed_arg, required=True)
    kg.add_argument("--iv", type=_iv_arg, required=True)
    kg.add_argument("--count", type=int, default=1)
    kg.add_argument("--out", metavar="PATH")
    kg.set_defaults(func=_cmd_kat)
    kv = ksub.add_parser("verify")
    kv.add_argument("path", metavar="PATH")
    kv.set_defaults(func=_cmd_kat)

    pf = sub.add_parser("fom", help="figures-of-merit report")
    pf.add_argument("metrics", nargs="?", metavar="METRICS.json",
                    help="platform metrics file (built-in reference inputs "
                         "when omitted)")
    pf.add_argument("--format", choices=["json", "csv"], default="json")
    pf.add_argument("--out", metavar="PATH")
    pf.set_defaults(func=_cmd_fom)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except UnsupportedLevelError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_UNSUPPORTED_LEVEL
    except CapacityError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CAPACITY
    # kat.KatError and json.JSONDecodeError are ValueErrors too
    except (HwSimError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
