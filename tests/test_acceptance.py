"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -v tests/test_acceptance.py` (or `-s` to see the lines on
passing runs). Frozen expected values were computed with the independent
oracles in oracles.py before the package was built.
"""

import itertools
import math
import random
import time

from rejsamp import aesprg, fom
from rejsamp.hwsim.core import run_program
from rejsamp.hwsim.isa import default_program
from rejsamp.params import SecurityLevel, builtin_params
from rejsamp.sampler import rej_samp, rej_samp_prg, rejection_stats
from oracles import (aes128_decrypt_oracle, rejsamp_cycles_oracle,
                     rej_samp_naive, wrapper_cycles_oracle)

SL1 = builtin_params(SecurityLevel.SL1)


def _report(num: int, name: str, detail: str = ""):
    suffix = f" ({detail})" if detail else ""
    print(f"[ACCEPTANCE {num:02d}] PASS {name}{suffix}")


def test_c01_simulator_bit_exact_vs_golden_1000_seeds():
    rng = random.Random(0x5EED)
    prog = default_program(SecurityLevel.SL1)
    t0 = time.monotonic()
    for _ in range(1000):
        seed, iv = rng.randbytes(16), rng.randbytes(2)
        result = run_program(prog, seed, iv)
        golden = rej_samp_prg(seed, iv, SL1)
        assert result.vector.elems == golden.elems
    elapsed = time.monotonic() - t0
    assert elapsed <= 120, f"took {elapsed:.1f}s, budget 120s"
    _report(1, "oracle equivalence on 1000 random (seed, iv) pairs",
            f"{elapsed:.1f}s")


def test_c02_brute_force_equivalence_small_tau():
    alphabet = (0x00, 0x7F, 0xFF, 0x05)
    t0 = time.monotonic()
    cases = 0
    for tau in range(1, 5):
        for raw in itertools.product(alphabet, repeat=tau):
            for n_prime in range(1, tau + 1):
                got = list(rej_samp(bytes(raw), tau, n_prime, 127).elems)
                assert got == rej_samp_naive(raw, tau, n_prime, 127)
                cases += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0, f"took {elapsed:.2f}s, budget 1s"
    _report(2, "exhaustive small-tau equivalence with the transcription",
            f"{cases} cases in {elapsed:.2f}s")


def test_c03_output_range_fuzz_100k():
    rng = random.Random(0xFA22)
    violations = 0
    for _ in range(100_000):
        tau = rng.randint(1, 32)
        n_prime = rng.randint(1, tau)
        out = rej_samp(rng.randbytes(tau), tau, n_prime, 127)
        violations += sum(1 for v in out.elems if not 0 <= v <= 126)
    assert violations == 0
    _report(3, "output range [0, 126] over 1e5 fuzzed inputs",
            "0 violations")


def test_c04_aes_kat_and_1000_roundtrips():
    key = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
    pt = bytes.fromhex("00112233445566778899aabbccddeeff")
    assert aesprg.encrypt_block_expanded(aesprg.expand_key(key), pt).hex() \
        == "69c4e0d86a7b0430d8cdb78070b4c55a"
    rng = random.Random(0xAE5)
    for _ in range(1000):
        k, b = rng.randbytes(16), rng.randbytes(16)
        ct = aesprg.encrypt_block_expanded(aesprg.expand_key(k), b)
        assert aes128_decrypt_oracle(k, ct) == b
    _report(4, "AES-128 known answer + 1000 independent-decryptor round trips")


def test_c05_packing_address_counts():
    want = {SecurityLevel.SL1: (365, 351), SecurityLevel.SL3: (766, 741),
            SecurityLevel.SL5: (1378, 1339)}
    for level, pair in want.items():
        p = builtin_params(level)
        assert (p.tau_addrs, p.out_addrs) == pair
    _report(5, "address counts (365,351)/(766,741)/(1378,1339)")


def test_c06_reference_cycle_counts_and_identity():
    seed = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
    res = run_program(default_program(SecurityLevel.SL1), seed, b"\x00\x01")
    r = res.report
    assert (r.total_cycles, r.wrapper_cycles, r.rejsamp_cycles) == \
        (8525, 4632, 3893)
    for level in SecurityLevel:  # SL5 needs 1378 memory words
        rr = run_program(default_program(level), seed, b"\x00\x01",
                         mem_depth=1378).report
        p = builtin_params(level)
        assert rr.wrapper_cycles == wrapper_cycles_oracle(p.tau)
        assert rr.rejsamp_cycles == rejsamp_cycles_oracle(p.tau, p.n_prime)
        assert rr.wrapper_cycles + rr.rejsamp_cycles == rr.total_cycles
    _report(6, "cycle counts 8525 = 4632 + 3893 and decomposition identity")


def test_c07_latency_arithmetic():
    # the quoted figures are truncations of the exact ratios, so agreement
    # is asserted to one unit in the last quoted digit
    quotes = [(8525, 222e6, 38.4), (8525, 565e6, 15.0),
              (3893, 565e6, 6.8), (4632, 565e6, 8.1)]
    for cycles, freq, quoted in quotes:
        micros = fom.latency(cycles, freq) * 1e6
        assert abs(micros - quoted) < 0.1, (cycles, freq, micros)
    _report(7, "latency figures 38.4/15.0/6.8/8.1 us at quoted precision")


def test_c08_fom_table_reproduction():
    rep = fom.report_from_doc(fom.REFERENCE_INPUTS)
    cells = {(r["platform"], r["adp_unit"]): (r["adp_3sf"], r["pdp_3sf"])
             for r in rep["rows"]}
    assert cells[("ASIC (65 nm)", fom.UM2_S)] == ("8.23e-04", "2.28e-10")
    assert cells[("FPGA (Artix-7)", fom.LUT_S)] == ("2.30e-05", "5.40e-09")
    scaled = [r for r in rep["rows"] if "tech-scaled" in r["platform"]][0]
    assert (scaled["adp_3sf"], scaled["pdp_3sf"]) == ("1.24e-04", "5.40e-09")
    assert len(rep["warnings"]) == 1  # the documented W/mW discrepancy
    _report(8, "ADP/PDP comparison cells at 3 s.f. with unit warning")


def test_c09_rejection_rate_statistic():
    n = 10**6
    data = aesprg.keystream(bytes(range(16)), b"\x00\x09", n)
    rejected = sum(1 for b in data if b & 127 == 127)
    assert rejection_stats(data, n, 1, 127).masked_to_q == rejected
    rate = rejected / n
    p = 1 / 128
    sigma = math.sqrt(p * (1 - p) / n)
    assert abs(rate - p) < 5 * sigma, f"rate {rate}, bound {5 * sigma}"
    _report(9, "masked-to-q rate within 5 sigma of 1/128 over 1e6 bytes",
            f"rate {rate:.6f}")


def test_c10_hardware_measurements_are_inputs_only():
    # slice/LUT/FF counts, silicon area, frequencies and power are
    # synthesis measurements: they enter as fom inputs, are echoed with
    # measured provenance, and nothing in the package computes them
    doc = fom.REFERENCE_INPUTS
    metrics = [fom.metrics_from_dict(e) for e in doc["platforms"]]
    rep = fom.report_from_doc(doc)
    direct = [r for r in rep["rows"] if "tech-scaled" not in r["platform"]]
    for row, m in zip(direct, metrics, strict=True):
        assert "measured" in row["provenance"]
        assert row["cpd_ns"] == m.cpd_ns  # echoed, not derived
    public = [n for n in dir(fom) if not n.startswith("_")]
    assert not any("synthesize" in n or "estimate_area" in n for n in public)
    _report(10, "resource/power figures are fom inputs, never reproduced")
