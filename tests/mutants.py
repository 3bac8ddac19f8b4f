"""Mutation analysis of the tier-1 suite: `python tests/mutants.py`.

Each mutant in MUTANTS replaces an exact piece of one file under
src/rejsamp.  The script applies it in a fresh temporary copy of src/,
tests/, pyproject.toml and bench/tracing.py, runs the tier-1 command there
once, one pytest process at a time, and reports the mutant as killed (with
the failing test ids), equivalent (declared in EQUIVALENT) or survived.
The exit status is 1 if a mutant survived, and 2 if the unmutated copy,
run first, fails.  README ("Install and test") says more.

A test may leave the suite only if every mutant it kills is still killed,
and each of its asserts is made, by a named test that stays; one that
kills nothing shows a gap in the table.  These stay regardless:
  - the acceptance tests c01-c10;
  - a test that pins 8525, 4632 or 3893, the exit codes 0/2/3/4/5, a
    published value (ADP/PDP cells, latencies, parameter sets, address
    counts), or a trace or artifact digest;
  - test_oracles_import_nothing_from_the_package, test_bench_tracing.py
    and oracles.py.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ElementTree
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# the tier-1 command, less the guard that checks this table against the
# unmutated source (a mutated copy always fails it)
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
         "-p", "no:cacheprovider", "--hypothesis-seed=0", "--deselect",
         "tests/test_dependencies.py::test_every_mutant_applies_once"]

# (name, file under src/rejsamp, exact old text, new text)
MUTANTS = [
    ("shift-rows-inverted", "aesprg.py", "(j + 4 * (j % 4))", "(j - 4 * (j % 4))"),
    ("block-index-little-endian", "aesprg.py", '_INDEX_BYTES, "big")',
     '_INDEX_BYTES, "little")'),
    ("counter-limit-off-by-one", "aesprg.py", "count > _MAX", "count >= _MAX"),
    ("keystream-one-block-more", "aesprg.py", "// _BLOCK_BYTES))",
     "// _BLOCK_BYTES) + 1)"),
    ("cipher-takes-no-blocks", "aesprg.py", "if not n or rest:", "if rest:"),
    ("zero-fill-with-1", "sampler.py", "len(spares) else 0", "len(spares) else 1"),
    ("spares-in-reverse", "sampler.py", 'bytes([q]), b"")', 'bytes([q]), b"")[::-1]'),
    ("mask-with-q-minus-1", "sampler.py", "b & q for", "b & (q - 1) for"),
    ("q-255-rejects-nothing", "sampler.py", "if q > 0xFF:", "if q >= 0xFF:"),
    ("vector-admits-q", "sampler.py", "(self.modulus, 0)", "(self.modulus + 1, 0)"),
    ("stats-ignore-tail-rejects", "sampler.py", "n_prime - tail_rejects)", "n_prime)"),
    ("bytes-from-words-little-endian", "packing.py", 'struct.pack(f">',
     'struct.pack(f"<'),
    ("words-hold-a-byte-more", "packing.py", "n_bytes > held:", "n_bytes > held + 1:"),
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
    ("kat-column-0-based", "kat.py", "tok.start() + 1", "tok.start()"),
    ("adp-in-ns", "fom.py", "getattr(m, size) * cpd_s", "getattr(m, size) * m.cpd_ns"),
    ("tech-ratio-inverted", "fom.py", "= scale_to_nm / m.tech_nm",
     "= m.tech_nm / scale_to_nm"),
    ("csv-cr-unquoted", "fom.py", r"""',"\r\n'""", r"""',"\n'"""),
    ("warning-ignores-watts", "fom.py", "power_listed_w * 1000.0,", "power_listed_w,"),
    ("fractional-luts-accepted", "fom.py", "x > 0 and float(x).is_integer()", "x > 0"),
    ("exit-4-reported-as-2", "cli.py", "return EXIT_CAPACITY", "return EXIT_USAGE"),
    ("exit-3-reported-as-2", "cli.py", "return EXIT_UNSUPPORTED_LEVEL",
     "return EXIT_USAGE"),
    ("hex-arg-takes-spaces", "cli.py", 'r"[0-9a-fA-F]*"', 'r"[0-9a-fA-F ]*"'),
    ("self-check-skipped", "cli.py", "if result.vector != golden:", "if False:"),
    ("trace-data-unpadded", "cli.py", "{data:016x}", "{data:x}"),
    ("drain-read-a-cycle-late", "hwsim/core.py", '(cycle + w, "host"',
     '(cycle + w + (w == p.out_addrs - 1), "host"'),
    ("refill-words-reversed", "hwsim/core.py", "k in refill]", "k in refill[::-1]]"),
    ("sampler-writes-a-cycle-late", "hwsim/core.py", "_block_count(p) + p.tau",
     "_block_count(p) + p.tau + 1"),
    ("key-checked-after-schedule", "hwsim/core.py", "aesprg.check_key(seed)", "pass"),
    ("timing-config-ignored", "hwsim/core.py", "_compiled(level, seed_addr, cfg,",
     "_compiled(level, seed_addr, TimingConfig(),"),
    ("drain-address-unchecked", "hwsim/core.py", "raddr != 0:", "raddr < 0:"),
    ("program-word-of-8-digits", "hwsim/isa.py", "stripped) > 7", "stripped) > 8"),
    ("waddr-field-shifted", "hwsim/isa.py", "waddr << 12", "waddr << 13"),
    ("reserved-level-indexed", "hwsim/isa.py", "sec_level >= len(", "sec_level > len("),
    ("write-visible-in-its-cycle", "hwsim/memory.py", "] < cycle", "] <= cycle"),
    ("two-writes-in-a-cycle", "hwsim/memory.py", "cycle <= self._write_cycle",
     "cycle < self._write_cycle"),
    ("write-behind-a-read", "hwsim/memory.py", "cycle < self._read_cycle:",
     "cycle < self._read_cycle - 1:"),
]

# name -> why no output of the package can tell the mutant apart
EQUIVALENT = {}


def failed_tests(mutant=None) -> set[str]:
    """The tier-1 test ids that fail in a fresh copy with mutant applied;
    a run that fails naming no test gives one pseudo-id."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, tmp / part,
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", tmp)
        (tmp / "bench").mkdir()
        shutil.copy(ROOT / "bench" / "tracing.py", tmp / "bench")
        if mutant:
            name, file, old, new = mutant
            path = tmp / "src" / "rejsamp" / file
            text = path.read_text()
            assert text.count(old) == 1, f"{name}: old text not found once"
            path.write_text(text.replace(old, new))
        xml = tmp / "junit.xml"
        code = subprocess.run(TIER1 + [f"--junitxml={xml}"], cwd=tmp,
                              env=dict(os.environ, PYTHONPATH="src"),
                              stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL).returncode
        failed = {f"{case.get('classname')}::{case.get('name')}"
                  for case in ElementTree.parse(xml).iter("testcase")
                  if case.find("failure") is not None
                  or case.find("error") is not None} if xml.exists() else set()
    return failed or ({f"(pytest exit {code})"} if code else set())


def main() -> int:
    broken = failed_tests()
    if broken:
        print("the unmutated copy fails:", *sorted(broken), sep="\n    ")
        return 2
    survived = []
    for mutant in MUTANTS:
        name, file = mutant[:2]
        if name in EQUIVALENT:
            print(f"equivalent {name} ({file}): {EQUIVALENT[name]}")
            continue
        killers = failed_tests(mutant)
        if not killers:
            survived.append(name)
        print(f"{'killed' if killers else 'survived'} {name} ({file})",
              *sorted(killers), sep="\n    ", flush=True)
    scored = len(MUTANTS) - len(EQUIVALENT)
    print(f"mutation score {scored - len(survived)}/{scored}; "
          f"{len(EQUIVALENT)} declared equivalent; survived: "
          f"{', '.join(survived) or 'none'}")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
