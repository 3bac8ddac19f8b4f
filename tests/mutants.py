"""Mutation analysis of the tier-1 suite:
`python tests/mutants.py [--first-kill]`.

Each mutant in MUTANTS replaces an exact piece of one file under
src/rejsamp.  The script applies it in a fresh temporary copy of src/,
tests/, pyproject.toml, bench/tracing.py and bench/workloads.py (which
test_bench_tracing.py loads), runs the tier-1 command there once, one
pytest process at a time and with Hypothesis's shrink phase off (only
which tests fail is read), and reports the mutant as killed (with the
failing test ids), equivalent (declared in EQUIVALENT) or survived.  The
exit status is 1 if a mutant survived, and 2 if the unmutated copy, run
first, fails.  README ("Install and test") says more.

--first-kill gives the same score and exit status sooner, but no kill
sets: each run stops at its first failing test (pytest -x), with the
mutated module's own test file first and then every other test file.
The full kill sets, which the default mode prints, are what a test's
removal has to be judged on; that mode ends with the tests that kill no
mutant, out of every test id of the unmutated run.

A test may leave the suite only if every mutant it kills is still killed,
and each of its asserts is made, by a named test that stays; one that
kills nothing shows a gap in the table.  These stay regardless:
  - the acceptance tests c01-c10;
  - a test that pins 8525, 4632 or 3893, the exit codes 0/2/3/4/5, a
    published value (ADP/PDP cells, latencies, parameter sets, address
    counts), or a trace or artifact digest;
  - test_oracles_import_nothing_from_the_package, test_bench_tracing.py
    and oracles.py.
A pin may move, though: a test that pins a value may leave once a test
that stays asserts the same value on the same code path.
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ElementTree
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# the tier-1 command with no shrinking, less the guard that checks this
# table against the unmutated source (a mutated copy always fails it)
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
         "-p", "no:cacheprovider", "--hypothesis-seed=0",
         "--hypothesis-profile=mutants", "--deselect",
         "tests/test_dependencies.py::test_every_mutant_applies_once"]
# written into each copy, so that --hypothesis-profile can name the profile
CONFTEST = """from hypothesis import Phase, settings

settings.register_profile("mutants", phases=set(Phase) - {Phase.shrink})
"""

# (name, file under src/rejsamp, exact old text, new text)
MUTANTS = [
    ("shift-rows-inverted", "aesprg.py", "(j + 4 * (j % 4))", "(j - 4 * (j % 4))"),
    ("iv-bytes-swapped", "aesprg.py", "bytes(8) + iv + (s", "bytes(8) + iv[::-1] + (s"),
    ("span-number-dropped", "aesprg.py", '(s * _SPAN).to_bytes(6, "big")', "bytes(6)"),
    ("round-1-coefficient-wrong", "aesprg.py", "(3 - j // 4 - j) % 4",
     "(3 - j // 4 + j) % 4"),
    ("round-2-hi-rows-reversed", "aesprg.py", "bytes(4) + bytes(h) +",
     "bytes(4) + bytes(h[::-1]) +"),
    ("round-2-lo-from-wrong-lane", "aesprg.py", "+ -c % 4 for c", "+ c % 4 for c"),
    ("round-1-lo-hi-not-zeroed", "aesprg.py", 'a[:14] + b"\\0\\0"', "a"),
    ("lo-table-one-short", "aesprg.py", "[:min(m, 256)]", "[:min(m, 255)]"),
    ("state-mix-wraps-two-rows", "aesprg.py", "_WRAP * 0x01010100", "_WRAP * 0x01010000"),
    ("counter-limit-off-by-one", "aesprg.py", "n > _MAX", "n >= _MAX"),
    ("keystream-one-block-more", "aesprg.py", "n = -(-n_bytes // _BLOCK_BYTES)",
     "n = -(-n_bytes // _BLOCK_BYTES) + 1"),
    ("cipher-takes-no-blocks", "aesprg.py", "if not n or rest:", "if rest:"),
    ("xtime-reduces-by-0x1a", "aesprg.py", "(u0 >> 7 & ones) * 0x1B",
     "(u0 >> 7 & ones) * 0x1A"),
    ("xtime-keeps-bit-7", "aesprg.py", "low7 = 0x7F * ones", "low7 = 0xFF * ones"),
    ("keyed-sbox-ignores-key", "aesprg.py", "(ident ^ k * ones)", "(ident)"),
    ("round-reads-its-own-key", "aesprg.py",
     "rk[_BLOCK_BYTES * (r - 1):_BLOCK_BYTES * r]",
     "rk[_BLOCK_BYTES * r:_BLOCK_BYTES * (r + 1)]"),
    ("final-round-key-dropped", "aesprg.py", "_ADD_KEY[rk[10 * _BLOCK_BYTES + j]]",
     "_ADD_KEY[0]"),
    ("bad-schedule-struct-error", "aesprg.py", "except struct.error:",
     "except KeyError:"),
    ("zero-fill-with-1", "sampler.py", "len(spares) else 0", "len(spares) else 1"),
    ("spares-in-reverse", "sampler.py", 'bytes([q]), b"")', 'bytes([q]), b"")[::-1]'),
    ("mask-with-q-minus-1", "sampler.py", "b & q for", "b & (q - 1) for"),
    ("q-255-rejects-nothing", "sampler.py", "if q > 0xFF:", "if q >= 0xFF:"),
    ("vector-admits-q", "sampler.py", "(self.modulus, 0)", "(self.modulus + 1, 0)"),
    ("stats-ignore-tail-rejects", "sampler.py", "n_prime - tail_rejects)", "n_prime)"),
    ("parameter-set-unchecked", "params.py",
     "self = super().__new__(cls, *args, **kwargs)",
     "return super().__new__(cls, *args, **kwargs)"),
    ("tau-addrs-rounds-down", "params.py", "-(-self.tau // BYTES_PER_WORD)",
     "self.tau // BYTES_PER_WORD"),
    ("zero-is-mersenne", "params.py", "q >= 1 and", "q >= 0 and"),
    ("m-is-M", "params.py", '"m": self.l * self.M', '"m": self.M'),
    ("verify-kat-skips-last-record", "kat.py", "        if group not in streams:",
     "        if i == len(records) - 1:\n            break\n"
     "        if group not in streams:"),
    ("verify-kat-keeps-every-keystream", "kat.py",
     "if last[group] > i else streams.pop(group)", ""),
    ("kat-n-zero-accepted", "kat.py", "if n <= 0:", "if n < 0:"),
    ("kat-iv-wraps-mod-2-15", "kat.py", "% (1 << 8 *", "% (1 << -1 + 8 *"),
    ("kat-column-0-based", "kat.py", "col = start + 1", "col = start"),
    ("kat-column-found-from-line-start", "kat.py", "body.find(tok[0], start)",
     "body.find(tok[0])"),
    ("kat-fields-split-on-space-only", "kat.py", "in body.split():",
     'in body.split(" "):'),
    ("kat-lines-split-on-newline-only", "kat.py", "text.splitlines()",
     'text.split("\\n")'),
    ("kat-duplicate-field-accepted", "kat.py", "if name in fields:", "if False:"),
    ("kat-unknown-field-accepted", "kat.py", '- {"key", "iv", "n", "level", "out"}',
     "- set(fields)"),
    ("kat-signed-decimal", "kat.py", "value.isascii() and value.isdigit()",
     'value.lstrip("+").isdigit()'),
    ("kat-long-number-through-int", "kat.py",
     "int(digits) if len(digits) <= len(str(limit)) else limit + 1", "int(digits)"),
    ("kat-leading-zeros-counted", "kat.py", '= value.lstrip("0") or "0"', '= value'),
    ("kat-n-quoted-as-read", "kat.py", "rule = None, n, f\"n={fields['n']}\"",
     'rule = None, n, f"n={n}"'),
    ("adp-in-ns", "fom.py", "m[size] * cpd_s", 'm[size] * m["cpd_ns"]'),
    ("pdp-drops-cpd", "fom.py", '= m["power_mw"] * cpd_s', '= m["power_mw"] * 1e-9'),
    ("tech-ratio-inverted", "fom.py", '= scale_to_nm / m["tech_nm"]',
     '= m["tech_nm"] / scale_to_nm'),
    ("row-ignores-name", "fom.py", 'name = m["name"] or m["kind"]', 'name = m["kind"]'),
    ("csv-cr-unquoted", "fom.py", r"""',"\r\n'""", r"""',"\n'"""),
    ("csv-never-quotes", "fom.py", r"""if any(c in text for c in ',"\r\n'):""",
     "if False:"),
    ("csv-quotes-undoubled", "fom.py", """text.replace('"', '""')""", "text"),
    ("warning-ignores-watts", "fom.py", "listed * 1000.0,", "listed,"),
    ("fractional-luts-accepted", "fom.py", "x > 0 and float(x).is_integer()", "x > 0"),
    ("cpd-zero-accepted", "fom.py", '"cpd_ns": "positive"', '"cpd_ns": "non-negative"'),
    ("bools-accepted", "fom.py", "not isinstance(value, bool) and ", ""),
    ("int-past-float-traceback", "fom.py", "except (TypeError, OverflowError):",
     "except TypeError:"),
    ("non-number-traceback", "fom.py", "except (TypeError, OverflowError):",
     "except OverflowError:"),
    ("optional-fields-unchecked", "fom.py", "(f in _REQUIRED or m[f] is not None)",
     "f in _REQUIRED"),
    ("entry-type-unchecked", "fom.py", "if not isinstance(entry, dict):", "if False:"),
    ("kind-type-unchecked", "fom.py", "isinstance(kind, str) and kind in", "kind in"),
    ("unknown-metric-field-accepted", "fom.py", "- set(_FIELDS)", "- set(entry)"),
    ("platform-name-not-checked", "fom.py", 'if not isinstance(m["name"], str):',
     "if False:"),
    ("both-size-fields-accepted", "fom.py", "given != [size]", "size not in given"),
    ("empty-platforms-refused", "fom.py", 'not isinstance(doc.get("platforms"), list)',
     'not doc.get("platforms")'),
    ("unknown-doc-field-accepted", "fom.py",
     '- {"platforms", "scale_to_nm", "lut_area_um2"}', "- set(doc)"),
    ("scale-unchecked", "fom.py", '_check("scale_to_nm", scale_to_nm)', "pass"),
    ("lut-area-unchecked", "fom.py", '_check("lut_area_um2", lut_area_um2)', "pass"),
    ("row-finiteness-unchecked", "fom.py", "if not math.isfinite(value):", "if False:"),
    ("infinite-freq-accepted", "fom.py", "0 < freq_hz < math.inf", "0 < freq_hz"),
    ("lut-area-overflow-traceback", "fom.py", "area = math.inf", "raise"),
    ("exit-4-reported-as-2", "cli.py", "return EXIT_CAPACITY", "return EXIT_USAGE"),
    ("exit-3-reported-as-2", "cli.py", "return EXIT_UNSUPPORTED_LEVEL",
     "return EXIT_USAGE"),
    ("hex-arg-takes-spaces", "cli.py", 'r"[0-9a-fA-F]*"', 'r"[0-9a-fA-F ]*"'),
    ("trace-data-unpadded", "cli.py", "{data:016x}", "{data:x}"),
    ("empty-kat-file-verified", "cli.py", "if not records:", "if False:"),
    ("unreadable-file-traceback", "cli.py",
     "except (ValueError, OSError) as e:", "except ValueError as e:"),
    ("capacity-caught-as-hwsim-error", "cli.py",
     "    except CapacityError as e:",
     "    except HwSimError as e:\n"
     "        print(f\"error: {e}\", file=sys.stderr)\n"
     "        return EXIT_USAGE\n    except CapacityError as e:"),
    ("mem-depth-flag-ignored", "cli.py",
     "args.mem_depth if args.mem_depth is not None else DEFAULT_DEPTH",
     "DEFAULT_DEPTH"),
    ("nested-metrics-traceback", "cli.py", "except RecursionError:",
     "except MemoryError:"),
    ("drain-read-a-cycle-late", "hwsim/core.py", '(cycle + w, "host"',
     '(cycle + w + (w == p.out_addrs - 1), "host"'),
    ("refill-reads-swap-word-pairs", "hwsim/core.py", '"rejsamp", "read", a)',
     '"rejsamp", "read", a ^ 1)'),
    ("trace-words-little-endian", "hwsim/core.py", 'struct.unpack(f">',
     'struct.unpack(f"<'),
    ("sampler-writes-a-cycle-late", "hwsim/core.py", "_block_count(p) + p.tau",
     "_block_count(p) + p.tau + 1"),
    ("key-checked-after-schedule", "hwsim/core.py", "aesprg.check_key(seed)", "pass"),
    ("drain-address-unchecked", "hwsim/core.py", "raddr != 0:", "raddr < 0:"),
    ("load-seed-wen-unchecked", "hwsim/core.py",
     "if load0.wen != 1 or load1.wen != 1:", "if False:"),
    ("seed-words-not-consecutive", "hwsim/core.py",
     "if load1.waddr != load0.waddr + 1:", "if False:"),
    ("mixed-levels-accepted", "hwsim/core.py", "if len(levels) > 1:",
     "if len(levels) > 2:"),
    ("instruction-unchecked", "hwsim/isa.py",
     "self = super().__new__(cls, *args, **kwargs)",
     "return super().__new__(cls, *args, **kwargs)"),
    ("program-word-of-8-digits", "hwsim/isa.py", "stripped) > 7", "stripped) > 8"),
    ("waddr-field-shifted", "hwsim/isa.py", "waddr << 12", "waddr << 13"),
    ("reserved-level-indexed", "hwsim/isa.py", "sec_level >= len(", "sec_level > len("),
    ("program-word-not-hex", "hwsim/isa.py", "if not set(stripped) <= _HEX_DIGITS:",
     "if False:"),
    ("write-visible-in-its-cycle", "hwsim/memory.py", "] < cycle", "] <= cycle"),
    ("two-writes-in-a-cycle", "hwsim/memory.py", "cycle <= self._write_cycle",
     "cycle < self._write_cycle"),
    ("write-behind-a-read", "hwsim/memory.py", "cycle < self._read_cycle:",
     "cycle < self._read_cycle - 1:"),
    ("writes-out-of-cycle-order", "hwsim/memory.py", "cycle <= self._write_cycle",
     "cycle == self._write_cycle"),
    ("two-reads-in-a-cycle", "hwsim/memory.py", "cycle <= self._read_cycle",
     "cycle < self._read_cycle"),
    ("reads-out-of-cycle-order", "hwsim/memory.py", "cycle <= self._read_cycle",
     "cycle == self._read_cycle"),
    ("read-checks-port-a", "hwsim/memory.py", "cycle <= self._read_cycle",
     "cycle <= self._write_cycle"),
    # the range check is in write and read alike: each old text takes in
    # the line above it
    ("write-address-past-depth", "hwsim/memory.py",
     "-> None:\n        if not 0 <= addr < self.depth:",
     "-> None:\n        if not 0 <= addr <= self.depth:"),
    ("read-address-below-zero", "hwsim/memory.py",
     "-> int:\n        if not 0 <= addr < self.depth:",
     "-> int:\n        if not addr < self.depth:"),
    ("word-of-65-bits-accepted", "hwsim/memory.py", "word < _WORD_LIMIT",
     "word <= _WORD_LIMIT"),
]

# name -> why no output of the package can tell the mutant apart
EQUIVALENT = {}


def first_kill_args(file=None) -> list[str]:
    """pytest's arguments for a run that stops at its first failure, the
    mutated file's own test file first (test_hwsim.py for hwsim/*).  Each
    test file is named: pytest merges a file into a directory argument
    that holds it and runs the directory in its own order."""
    names = sorted(path.name for path in (ROOT / "tests").glob("test_*.py"))
    if file:
        own = f"test_{Path(file).parts[0].removesuffix('.py')}.py"
        names.remove(own)
        names.insert(0, own)
    return ["-x"] + [f"tests/{name}" for name in names]


def tier1(mutant=None, first_kill=False) -> tuple[set[str], set[str]]:
    """The ids of the tier-1 tests run in a fresh copy with mutant
    applied, and of those that fail (or only the first); a run that fails
    naming no test gives one pseudo-id."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, tmp / part,
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", tmp)
        (tmp / "conftest.py").write_text(CONFTEST)
        (tmp / "bench").mkdir()
        for name in ("tracing.py", "workloads.py"):
            shutil.copy(ROOT / "bench" / name, tmp / "bench")
        if mutant:
            name, file, old, new = mutant
            path = tmp / "src" / "rejsamp" / file
            text = path.read_text()
            assert text.count(old) == 1, f"{name}: old text not found once"
            path.write_text(text.replace(old, new))
        xml = tmp / "junit.xml"
        extra = first_kill_args(mutant and mutant[1]) if first_kill else []
        code = subprocess.run(TIER1 + extra + [f"--junitxml={xml}"], cwd=tmp,
                              env=dict(os.environ, PYTHONPATH="src"),
                              stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL).returncode
        cases = ElementTree.parse(xml).findall(".//testcase") if xml.exists() else []
    ran = {f"{case.get('classname')}::{case.get('name')}": case for case in cases}
    failed = {name for name, case in ran.items()
              if {"failure", "error"} & {child.tag for child in case}}
    return set(ran), failed or ({f"(pytest exit {code})"} if code else set())


def main() -> int:
    ap = argparse.ArgumentParser(description="mutation analysis of tier-1")
    ap.add_argument("--first-kill", action="store_true",
                    help="score only: stop each mutant at its first kill")
    first_kill = ap.parse_args().first_kill
    ran, broken = tier1(first_kill=first_kill)
    if broken:
        print("the unmutated copy fails:", *sorted(broken), sep="\n    ")
        return 2
    survived = []
    idle = set(ran)  # the tests that have killed no mutant yet
    for mutant in MUTANTS:
        name, file = mutant[:2]
        if name in EQUIVALENT:
            print(f"equivalent {name} ({file}): {EQUIVALENT[name]}")
            continue
        killers = tier1(mutant, first_kill)[1]
        idle -= killers
        if not killers:
            survived.append(name)
        print(f"{'killed' if killers else 'survived'} {name} ({file})",
              *sorted(killers), sep="\n    ", flush=True)
    scored = len(MUTANTS) - len(EQUIVALENT)
    print(f"mutation score {scored - len(survived)}/{scored}; "
          f"{len(EQUIVALENT)} declared equivalent; survived: "
          f"{', '.join(survived) or 'none'}")
    if not first_kill:
        print(f"tests that kill no mutant: {len(idle)} of {len(ran)}",
              *sorted(idle), sep="\n    ")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
