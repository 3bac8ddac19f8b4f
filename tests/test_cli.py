import hashlib
import itertools
import json

import pytest

from rejsamp import cli, kat
from rejsamp.hwsim.isa import (Instruction, Opcode, assemble, default_program,
                               encode)
from rejsamp.params import SecurityLevel
from oracles import format_program

SEED_HEX = "000102030405060708090a0b0c0d0e0f"
SEED = bytes.fromhex(SEED_HEX)


def run_cli(*argv):
    return cli.main(list(argv))


def test_params_json(capsys):
    assert run_cli("params", "--level", "1") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["tau"] == 2916 and doc["tau_addrs"] == 365
    assert run_cli("params") == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {"SL1", "SL3", "SL5"}


def test_params_out_file(tmp_path):
    path = tmp_path / "p.json"
    assert run_cli("params", "--level", "3", "--params-out", str(path)) == 0
    assert json.loads(path.read_text())["n_prime"] == 5928


@pytest.mark.parametrize("level,count", [("1", 2808), ("3", 5928)])
def test_sample_element_counts(level, count, capsys):
    assert run_cli("sample", "--level", level, "--seed", SEED_HEX,
                   "--iv", "0001") == 0
    out = capsys.readouterr().out
    assert f"elements: {count}" in out


# sha256 of each SL1 artifact for SEED_HEX, iv 0001: the formats stay fixed
ARTIFACT_SHA256 = {
    ("sample", "bin"): "b32280c05f7cd3a7178225f365b59802"
                       "578a01d37037fbd54a55c812041b5eb7",
    ("sample", "csv"): "1831815b9670c7a79d6779dda3d49e12"
                       "fe94984816c50910fafaa7edf7507af3",
    ("sample", "json"): "1598ba6ee22bf60450dddb4b3b17fe6e"
                        "7bc814bbf78886219f2ed1050ae56cf8",
    ("simulate", "json"): "1598ba6ee22bf60450dddb4b3b17fe6e"
                          "7bc814bbf78886219f2ed1050ae56cf8",
}


def test_sample_csv_and_json_formats(tmp_path):
    c = tmp_path / "v.csv"
    assert run_cli("sample", "--level", "1", "--seed", SEED_HEX, "--iv",
                   "0001", "--out", str(c), "--format", "csv") == 0
    lines = c.read_text().splitlines()
    assert len(lines) == 2808 and all(0 <= int(x) < 127 for x in lines[:50])
    j = tmp_path / "v.json"
    assert run_cli("sample", "--level", "1", "--seed", SEED_HEX, "--iv",
                   "0001", "--out", str(j), "--format", "json") == 0
    assert len(json.loads(j.read_text())) == 2808
    for (cmd, fmt), digest in ARTIFACT_SHA256.items():
        path = tmp_path / f"{cmd}.{fmt}"
        assert run_cli(cmd, "--level", "1", "--seed", SEED_HEX, "--iv",
                       "0001", "--out", str(path), "--format", fmt) == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest, \
            (cmd, fmt)


def test_bad_hex_is_usage_error(capsys):
    # bytes.fromhex skips whitespace: the digits are checked first,
    # also where whitespace keeps the string at the right length
    for cmd, (seed, iv) in itertools.product(
            [["sample"], ["kat", "generate"]],
            [("zz", "0001"), (SEED_HEX, "00 01"),
             (SEED_HEX[:2] + " " + SEED_HEX[2:], "0001"),
             (SEED_HEX, "01  "), (SEED_HEX, "  01"),
             (SEED_HEX[:14] + "  " + SEED_HEX[16:], "0001")]):
        with pytest.raises(SystemExit) as ei:
            run_cli(*cmd, "--level", "1", "--seed", seed, "--iv", iv)
        assert ei.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "hex digits" in captured.err or "is not hex" in captured.err


def test_simulate_report_and_self_check(capsys, tmp_path):
    trace = tmp_path / "trace.csv"
    assert run_cli("simulate", "--level", "1", "--seed", SEED_HEX,
                   "--iv", "0001", "--freq", "222e6",
                   "--trace", str(trace)) == 0
    captured = capsys.readouterr()
    rep = json.loads(captured.out)
    assert (rep["total_cycles"], rep["wrapper_cycles"], rep["rejsamp_cycles"]) \
        == (8525, 4632, 3893)
    assert rep["latency_us"] == pytest.approx(38.4, abs=0.1)
    assert "matches the golden model" in captured.err
    header, *rows = trace.read_text().splitlines()
    assert header == "cycle,unit,event,addr,data"
    assert len(rows) > 700


@pytest.mark.parametrize("freq,line", [
    ((), '{"total_cycles": 8525, "wrapper_cycles": 4632, "rejsamp_cycles": '
         '3893, "freq_hz": 222000000.0, "latency_us": 38.4009009009009}\n'),
    (("--freq", "565e6"),
     '{"total_cycles": 8525, "wrapper_cycles": 4632, "rejsamp_cycles": '
     '3893, "freq_hz": 565000000.0, "latency_us": 15.08849557522124}\n'),
], ids=["default-freq", "565MHz"])
def test_simulate_report_line_pinned(freq, line, capsys):
    # key order, float text and the latency derived at --freq
    assert run_cli("simulate", "--level", "1", "--seed", SEED_HEX,
                   "--iv", "0001", *freq) == 0
    assert capsys.readouterr().out == line


@pytest.mark.parametrize("args,digest", [
    (("--level", "1"),
     "601ea6a549877ff789c744770b2dc75c07c7d313650888902f6a30a084700e72"),
    (("--level", "3"),
     "b9d54a6109d58cc77bdcbad573a5262c2f8258c2f0b5f8fb3eafe0764ab460e4"),
    (("--level", "5", "--mem-depth", "1378"),
     "d361ca1ebeefe4099a188758f70f7760641c531d489151508097be2e54e66fdc"),
    (("--program", "{split}"),
     "a5f969ad22980254b6476609a4d83553856af59bc981ecbbd9615e7e55a06128"),
], ids=["SL1", "SL3", "SL5", "SL3-split"])
def test_simulate_trace_pinned(args, digest, tmp_path, capsys):
    # any drift in the simulated schedule or the access log changes the CSV;
    # the split program runs RUN_PRG and RUN_REJSAMP apart at SL3, with the
    # seed at words 3-4
    L, op = SecurityLevel.SL3, Opcode
    split = tmp_path / "prog.hex"
    split.write_text(format_program([
        assemble(op.LOAD_SEED, L, waddr=3, wen=1),
        assemble(op.LOAD_SEED, L, waddr=4, wen=1),
        assemble(op.NOP, L),
        assemble(op.RUN_PRG, L),
        assemble(op.RUN_REJSAMP, L),
        assemble(op.READ_RESULT, L, raddr=0),
    ]))
    trace = tmp_path / "trace.csv"
    assert run_cli("simulate", *[a.format(split=split) for a in args],
                   "--seed", SEED_HEX, "--iv", "1234",
                   "--trace", str(trace)) == 0
    assert hashlib.sha256(trace.read_bytes()).hexdigest() == digest


def test_simulate_sl5_capacity_exit(capsys):
    assert run_cli("simulate", "--level", "5", "--seed", SEED_HEX,
                   "--iv", "0001") == 4
    assert "1378" in capsys.readouterr().err


@pytest.mark.parametrize("depth", ["0", "-3"])
def test_simulate_nonpositive_mem_depth_exit2(depth, capsys):
    assert run_cli("simulate", "--level", "1", "--seed", SEED_HEX,
                   "--iv", "0001", "--mem-depth", depth) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: memory depth must be positive\n"


def test_simulate_custom_program_file(tmp_path, capsys):
    prog = tmp_path / "prog.hex"
    prog.write_text(format_program(default_program(SecurityLevel.SL1)))
    assert run_cli("simulate", "--program", str(prog), "--seed", SEED_HEX,
                   "--iv", "0001") == 0
    assert json.loads(capsys.readouterr().out)["total_cycles"] == 8525


def test_simulate_level_and_program_usage(tmp_path, capsys):
    # --level would otherwise be ignored and the SL1 program run
    prog = tmp_path / "prog.hex"
    prog.write_text(format_program(default_program(SecurityLevel.SL1)))
    with pytest.raises(SystemExit) as ei:
        run_cli("simulate", "--level", "3", "--program", str(prog),
                "--seed", SEED_HEX, "--iv", "0001")
    assert ei.value.code == 2
    assert capsys.readouterr().out == ""


def test_simulate_reserved_level_program_exit3(tmp_path, capsys):
    words = [encode(Instruction(3, 0, w, 1, Opcode.LOAD_SEED))
             for w in (0, 1)]
    words += [encode(Instruction(3, 0, 0, 0, Opcode.RUN_FULL)),
              encode(Instruction(3, 0, 0, 0, Opcode.READ_RESULT))]
    prog = tmp_path / "prog.hex"
    prog.write_text(format_program(words))
    assert run_cli("simulate", "--program", str(prog), "--seed", SEED_HEX,
                   "--iv", "0001") == 3


@pytest.mark.parametrize("text", ["", "0000000\n0000000\n"],
                         ids=["empty", "all-nop"])
def test_simulate_program_without_work_exit2(text, tmp_path, capsys):
    prog = tmp_path / "prog.hex"
    prog.write_text(text)
    assert run_cli("simulate", "--program", str(prog), "--seed", SEED_HEX,
                   "--iv", "0001") == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("freq", ["nan", "inf", "0", "1e-300"])
def test_simulate_bad_freq_exit2(freq, capsys):
    assert run_cli("simulate", "--level", "1", "--seed", SEED_HEX,
                   "--iv", "0001", "--freq", freq) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")


@pytest.mark.parametrize("ops", [
    [(0, 0, 0, 1, "LOAD_SEED"), (0, 0, 1, 1, "LOAD_SEED"),
     (0, 0, 0, 0, "RUN_REJSAMP"), (0, 0, 0, 0, "READ_RESULT")],
    [(0, 0, 0, 1, "LOAD_SEED"), (0, 0, 1, 1, "LOAD_SEED"),
     (0, 0, 0, 0, "RUN_FULL"), (0, 674, 0, 0, "READ_RESULT")],
    [(0, 0, 1022, 1, "LOAD_SEED"), (0, 0, 1023, 1, "LOAD_SEED"),
     (0, 0, 0, 0, "RUN_FULL"), (0, 0, 0, 0, "READ_RESULT")],
    # a second keystream run would be keyed with the first one's words
    [(0, 0, 0, 1, "LOAD_SEED"), (0, 0, 1, 1, "LOAD_SEED"),
     (0, 0, 0, 0, "RUN_PRG"), (0, 0, 0, 0, "RUN_PRG"),
     (0, 0, 0, 0, "RUN_REJSAMP"), (0, 0, 0, 0, "READ_RESULT")],
    # the result sits at word 0: inside it, and past the output region
    [(0, 0, 0, 1, "LOAD_SEED"), (0, 0, 1, 1, "LOAD_SEED"),
     (0, 0, 0, 0, "RUN_FULL"), (0, 5, 0, 0, "READ_RESULT")],
    [(0, 0, 0, 1, "LOAD_SEED"), (0, 0, 1, 1, "LOAD_SEED"),
     (0, 0, 0, 0, "RUN_FULL"), (0, 400, 0, 0, "READ_RESULT")],
], ids=["sample-before-keystream", "drain-past-depth", "seed-past-depth",
        "second-keystream-run", "drain-at-word-5", "drain-at-word-400"])
def test_simulate_faulting_program_exit2(ops, tmp_path, capsys):
    prog = tmp_path / "prog.hex"
    prog.write_text(format_program([
        encode(Instruction(sl, r, w, wen, Opcode[op]))
        for sl, r, w, wen, op in ops]))
    assert run_cli("simulate", "--program", str(prog), "--seed", SEED_HEX,
                   "--iv", "0001", "--mem-depth", "1023") == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    if ops[-1][1]:  # a non-zero drain address
        assert "READ_RESULT" in captured.err


def test_simulate_missing_level_usage(capsys):
    with pytest.raises(SystemExit) as ei:
        run_cli("simulate", "--seed", SEED_HEX, "--iv", "0001")
    assert ei.value.code == 2
    assert capsys.readouterr().out == ""


def test_simulate_self_check_failure_exit5(monkeypatch, capsys):
    from rejsamp.sampler import FieldVector

    def wrong_golden(seed, iv, p):
        return FieldVector(bytes(p.n_prime), p.q)

    monkeypatch.setattr(cli, "rej_samp_prg", wrong_golden)
    assert run_cli("simulate", "--level", "1", "--seed", SEED_HEX,
                   "--iv", "0001") == 5
    assert "self-check FAILED" in capsys.readouterr().err
    # the wrong golden model is still patched: only skipping it passes
    assert run_cli("simulate", "--level", "1", "--seed", SEED_HEX,
                   "--iv", "0001", "--no-self-check") == 0
    assert "self-check" not in capsys.readouterr().err


def test_kat_generate_verify_roundtrip(tmp_path, capsys):
    path = tmp_path / "cases.kat"
    assert run_cli("kat", "generate", "--level", "1", "--seed", SEED_HEX,
                   "--iv", "0001", "--count", "2", "--out", str(path)) == 0
    assert run_cli("kat", "verify", str(path)) == 0
    assert "verified 4 record(s)" in capsys.readouterr().out


def test_kat_verify_flipped_digit_names_line(tmp_path, capsys):
    path = tmp_path / "cases.kat"
    run_cli("kat", "generate", "--level", "1", "--seed", SEED_HEX,
            "--iv", "0001", "--out", str(path))
    lines = path.read_text().splitlines()
    pos = lines[1].index("out=") + 8
    flip = "1" if lines[1][pos] != "1" else "2"
    lines[1] = lines[1][:pos] + flip + lines[1][pos + 1:]
    bad = tmp_path / "bad.kat"
    bad.write_text("\n".join(lines) + "\n")
    assert run_cli("kat", "verify", str(bad)) == 5
    assert "line 2" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["", "# no records\n\n"],
                         ids=["empty", "comment-only"])
def test_kat_verify_without_records_exit2(text, tmp_path, capsys):
    path = tmp_path / "cases.kat"
    path.write_text(text)
    assert run_cli("kat", "verify", str(path)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_kat_parse_error_reports_position(tmp_path, capsys):
    path = tmp_path / "broken.kat"
    path.write_text("key=00 iv=0001 n=1 out=00\n")
    assert run_cli("kat", "verify", str(path)) == 2
    assert "column" in capsys.readouterr().err


def test_fom_reference_report(capsys):
    assert run_cli("fom") == 0
    captured = capsys.readouterr()
    rep = json.loads(captured.out)
    assert [r["adp_3sf"] for r in rep["rows"]] == \
        ["8.23e-04", "2.30e-05", "1.24e-04"]
    assert "warning" in captured.err


def test_fom_metrics_file_and_csv(tmp_path, capsys):
    doc = {"platforms": [{"kind": "ASIC", "area_um2": 100.0, "cpd_ns": 2.0,
                          "power_mw": 1.0, "tech_nm": 65, "name": "x"}]}
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    assert run_cli("fom", str(path), "--format", "csv") == 0
    out = capsys.readouterr().out
    assert out.startswith("platform,kind,cpd_ns") and "x,ASIC,2.0" in out


def test_fom_empty_platforms_ok(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"platforms": []}))
    assert run_cli("fom", str(path)) == 0
    assert json.loads(capsys.readouterr().out)["rows"] == []


def test_fom_schema_violation_exit2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"platforms": [{"kind": "ASIC", "cpd_ns": 1.0,
                                               "power_mw": 1.0, "tech_nm": 65,
                                               "area_um2": 1.0, "oops": 2}]}))
    assert run_cli("fom", str(path)) == 2
    path.write_text("not json")
    assert run_cli("fom", str(path)) == 2


FPGA = {"kind": "FPGA", "luts": 10, "cpd_ns": 1.0, "power_mw": 1.0,
        "tech_nm": 28}
ASIC = {"kind": "ASIC", "cpd_ns": 1.0, "power_mw": 1.0, "tech_nm": 65}


@pytest.mark.parametrize("doc", [
    {"platforms": [5]},
    {"platforms": [dict(FPGA, cpd_ns="x")]},
    {"platforms": [FPGA], "scale_to_nm": "x"},
    {"platforms": 5},
    {"platforms": [dict(FPGA, name=[1, 2])]},
    {"platforms": [dict(FPGA, name=5)]},
    {"platforms": [FPGA], "scale_to_mn": 65},
    {"platforms": [FPGA], "scale_to_nm": 65, "lut_area_um2": -2},
    {"platforms": [FPGA], "scale_to_nm": 65, "lut_area_um2": None},
    {"platforms": [{"kind": "ASIC", "area_um2": -100, "cpd_ns": 1.0,
                    "power_mw": 1.0, "tech_nm": 65}]},
    {"platforms": [dict(FPGA, luts=-7.5)]},
    {"platforms": [dict(FPGA, luts=2.5)]},
    {"platforms": [dict(FPGA, power_listed_w=-1)]},
    {"platforms": [dict(ASIC, area_um2=10.0)], "scale_to_nm": -5},
    {"platforms": [], "scale_to_nm": 0},
    {"platforms": [FPGA], "scale_to_nm": 1e200},
    {"platforms": [dict(ASIC, area_um2=1e308, cpd_ns=1e308)]},
    {"platforms": [dict(FPGA, cpd_ns=None)]},
    {"platforms": [dict(FPGA, power_mw=None)]},
    {"platforms": [dict(ASIC, area_um2=1.0, tech_nm=None)]},
    {"platforms": [dict(FPGA, luts=10**400)]},
    {"platforms": [dict(FPGA, kind=["FPGA"])]},
], ids=["entry-not-an-object", "non-numeric-field", "non-numeric-scale",
        "platforms-not-a-list", "list-name", "number-name",
        "unknown-top-level-field", "negative-lut-area", "null-lut-area",
        "negative-area", "negative-luts", "fractional-luts",
        "negative-listed-power", "asic-only-negative-scale",
        "empty-platforms-zero-scale", "scaled-area-overflow",
        "asic-adp-overflow", "null-cpd", "null-power", "null-tech",
        "int-past-float-luts", "kind-not-a-string"])
def test_fom_malformed_entry_exit2(doc, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    for fmt in ("json", "csv"):
        assert run_cli("fom", str(path), "--format", fmt) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["kat", "verify", "{missing}"],
    ["kat", "verify", "{dir}"],
    ["fom", "{missing}"],
    ["fom", "{dir}"],
    ["fom", "--out", "{missing}/r.json"],
    ["simulate", "--seed", SEED_HEX, "--iv", "0001", "--program", "{missing}"],
    ["simulate", "--seed", SEED_HEX, "--iv", "0001", "--program", "{dir}"],
    ["simulate", "--seed", SEED_HEX, "--iv", "0001", "--program", ""],
    ["simulate", "--level", "1", "--seed", SEED_HEX, "--iv", "0001",
     "--trace", "{missing}/t.csv"],
    ["simulate", "--level", "1", "--seed", SEED_HEX, "--iv", "0001",
     "--out", "{dir}"],
    ["sample", "--level", "1", "--seed", SEED_HEX, "--iv", "0001",
     "--out", "{missing}/v.bin"],
    ["sample", "--level", "1", "--seed", SEED_HEX, "--iv", "0001",
     "--out", "{dir}"],
], ids=["kat-missing", "kat-dir", "fom-missing", "fom-dir", "fom-out-unwritable",
        "program-missing", "program-dir", "program-empty-path",
        "trace-unwritable", "out-is-dir",
        "sample-out-unwritable", "sample-out-is-dir"])
def test_unusable_file_exit2(argv, tmp_path, capsys):
    paths = {"missing": tmp_path / "absent", "dir": tmp_path}
    assert run_cli(*[a.format(**paths) for a in argv]) == 2
    captured = capsys.readouterr()
    # nothing on stdout: a report there would read as a success
    assert captured.out == ""
    # fom's reference inputs print warnings before the error line
    err = captured.err.splitlines()
    assert err[-1].startswith("error: [Errno ")
    assert not any(line.startswith("error") for line in err[:-1])


def test_fom_deeply_nested_metrics_exit2(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    assert run_cli("fom", str(path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_kat_generate_matches_module(tmp_path):
    path = tmp_path / "k.kat"
    run_cli("kat", "generate", "--level", "1", "--seed", SEED_HEX,
            "--iv", "00ff", "--out", str(path))
    assert path.read_text() == kat.generate_kat(SEED, b"\x00\xff", 1)
