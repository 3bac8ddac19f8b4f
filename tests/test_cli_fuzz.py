"""Property test of the CLI exit-code contract over arbitrary input.

Every run of `rejsamp` must end in one of the documented exit codes
(0 ok, 2 usage/malformed input/unusable file, 3 unsupported level,
4 memory capacity, 5 mismatch), never a traceback, and any JSON it prints
must be strict JSON (no NaN or Infinity). The argv, the program files,
the KAT files and the metrics files are all drawn at random.
"""

import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from rejsamp import cli, kat
from rejsamp.hwsim.isa import Instruction, Opcode, encode
from oracles import format_program

EXIT_CODES = {0, 2, 3, 4, 5}
VALID_KAT = kat.generate_kat(bytes(16), b"\x00\x01", 1).splitlines()


def hex_bytes(n):
    return st.binary(min_size=n, max_size=n).map(bytes.hex)


# mostly well-formed values, so that most runs get past argument parsing
seed_tok = st.one_of(hex_bytes(16), hex_bytes(16), hex_bytes(16),
                     st.sampled_from(["", "zz", "00" * 15]))
iv_tok = st.one_of(hex_bytes(2), hex_bytes(2), hex_bytes(2),
                   st.sampled_from(["", "0", "0g01", "000000"]))
level_tok = st.sampled_from(["1", "1", "1", "3", "5", "0", "2", "x"])
number_tok = st.one_of(
    st.integers(-5, 2000).map(str),
    st.sampled_from(["nan", "inf", "-inf", "1e308", "222e6", "1e-300", "x"]))
# an input file holding the drawn text, an absent path, or a directory
in_path = st.sampled_from(["{file}", "{file}", "{missing}", "{dir}"])
out_path = st.sampled_from(["{tmp}/o", "{tmp}/o", "{missing}/o", "{dir}"])


def _program(lines):
    return format_program([encode(Instruction(*f)) for f in lines])


Op = Opcode
any_instruction = st.tuples(st.integers(0, 3), st.integers(0, 1023),
                            st.integers(0, 1023), st.integers(0, 1),
                            st.sampled_from(list(Op)))
# the default program's shape with its addresses, run ops and level drawn
shaped_program = st.builds(
    lambda sl, base, runs, raddr: _program(
        [(sl, 0, base, 1, Op.LOAD_SEED), (sl, 0, base + 1, 1, Op.LOAD_SEED)]
        + [(sl, 0, 0, 0, op) for op in runs]
        + [(sl, raddr, 0, 0, Op.READ_RESULT)]),
    st.sampled_from([0, 0, 1, 0, 3]), st.integers(0, 1022),
    st.lists(st.sampled_from([Op.RUN_FULL, Op.RUN_PRG, Op.RUN_REJSAMP,
                              Op.NOP]), min_size=1, max_size=3),
    st.one_of(st.just(0), st.integers(0, 1023)))
program_text = st.one_of(
    shaped_program,
    st.lists(st.one_of(any_instruction.map(lambda f: _program([f])),
                       st.sampled_from(["zz\n", "4000000\n", "# c\n", "\n"])),
             max_size=5).map("".join))

kat_line = st.one_of(
    st.sampled_from(VALID_KAT + ["", "# comment", "key=00", "a=b"]),
    st.builds(lambda key, iv, n, out: f"key={key} iv={iv} n={n} out={out}",
              seed_tok, iv_tok, st.integers(-1, 40),
              st.binary(max_size=40).map(bytes.hex)),
    st.builds(lambda line, i, c: line[:i] + c + line[i + 1:],
              st.sampled_from(VALID_KAT), st.integers(0, 200),
              st.sampled_from("0f= x\t\r\x0c\u3000")))
kat_text = st.lists(kat_line, max_size=4).map("\n".join)

json_leaf = st.one_of(st.none(), st.booleans(), st.integers(-10**9, 10**9),
                      st.floats(allow_nan=False, allow_infinity=False),
                      st.text(max_size=4))
json_value = st.recursive(
    json_leaf, lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3), max_leaves=6)
metric = st.one_of(st.floats(min_value=1e-3, max_value=1e6),
                   st.integers(1, 10**6),
                   st.sampled_from([1e308, 1e200, 1e-308, 10**300, 10**400]),
                   json_leaf)
platform = st.fixed_dictionaries(
    {"kind": st.sampled_from(["ASIC", "FPGA", "FPGA", "ASIC", "GPU"]),
     "cpd_ns": metric, "power_mw": metric, "tech_nm": metric},
    optional={"area_um2": metric, "luts": metric, "power_listed_w": metric,
              "name": st.text(max_size=4)})
metrics_doc = st.one_of(
    json_value,
    st.fixed_dictionaries({"platforms": st.lists(platform, max_size=3)},
                          optional={"scale_to_nm": metric,
                                    "lut_area_um2": metric}))
metrics_text = st.one_of(
    metrics_doc.map(json.dumps),
    st.sampled_from(["", "not json", "[[[", '{"platforms": NaN}',
                     '{"platforms": [{"kind": "ASIC", "area_um2": Infinity, '
                     '"cpd_ns": 1, "power_mw": 1, "tech_nm": 65}]}']))


# a metrics document valid in every field but one, which holds an edge
# value: the other fuzzed documents almost never get this close to valid.
# The size field and lut_area_um2 may be huge ints: the exact product of
# luts and lut_area_um2 then passes the float range, and a tech-scaled
# row has to refuse it
positive = st.one_of(st.floats(min_value=1e-3, max_value=1e6),
                     st.integers(1, 10**6))
huge = st.just(10**200)
well_formed_platform = st.sampled_from(["area_um2", "luts"]).flatmap(
    lambda size: st.fixed_dictionaries(
        {"kind": st.just("ASIC" if size == "area_um2" else "FPGA"),
         size: st.integers(1, 10**6) | huge, "cpd_ns": positive,
         "power_mw": positive | st.just(0), "tech_nm": positive},
        optional={"power_listed_w": positive, "name": st.text(max_size=4)}))
edge_value = st.one_of(st.none(), st.booleans(), st.text(max_size=3),
                       st.floats(max_value=-1e-3, allow_infinity=False),
                       st.integers(-10**6, -1), st.just(2.5), st.just(1e308))


@st.composite
def one_bad_field(draw):
    doc = {"platforms": draw(st.lists(well_formed_platform, min_size=1,
                                      max_size=3)),
           "scale_to_nm": draw(positive), "lut_area_um2": draw(positive | huge)}
    target = draw(st.sampled_from(doc["platforms"] + [doc]))
    field = draw(st.sampled_from(sorted(
        set(target) - {"kind", "name", "platforms"})))
    target[field] = draw(edge_value)
    return doc


def _command(head, required, optional, file_text=st.just("")):
    """argv drawn as the head, every required option (its value drawn)
    and each optional one present or not, plus the input file's text."""
    def flag(name, value):
        return st.tuples(st.just(name), value).map(
            lambda fv: [fv[0]] if fv[1] is None else list(fv))
    opts = [flag(*o) for o in required]
    opts += [st.one_of(st.just([]), flag(*o)) for o in optional]
    argv = st.tuples(head, *opts).map(
        lambda parts: parts[0] + sum(parts[1:], []))
    return st.tuples(argv, file_text)


invocation = st.one_of(
    _command(st.just(["simulate"]),
             [("--seed", seed_tok), ("--iv", iv_tok)],
             [("--level", level_tok), ("--program", in_path),
              ("--freq", number_tok), ("--trace", out_path),
              ("--out", out_path),
              ("--format", st.sampled_from(["bin", "csv", "json", "x"])),
              ("--mem-depth", st.one_of(
                  st.sampled_from(["1024", "1378", "365", "364", "x"]),
                  st.integers(-5, 10**30).map(str)))],
             program_text),
    _command(st.just(["sample"]),
             [("--level", level_tok), ("--seed", seed_tok), ("--iv", iv_tok)],
             [("--out", out_path),
              ("--format", st.sampled_from(["bin", "csv", "json"]))]),
    # --count stays small: a large count is legitimately slow
    _command(st.just(["kat", "generate"]),
             [("--level", level_tok), ("--seed", seed_tok), ("--iv", iv_tok)],
             [("--count", st.integers(-1, 3).map(str)), ("--out", out_path)]),
    _command(in_path.map(lambda p: ["kat", "verify", p]), [], [], kat_text),
    _command(st.just(["params"]), [],
             [("--level", level_tok), ("--params-out", out_path)]),
    _command(st.one_of(st.just(["fom"]), in_path.map(lambda p: ["fom", p])),
             [], [("--format", st.sampled_from(["json", "csv", "x"])),
                  ("--out", out_path)],
             metrics_text),
    st.tuples(st.lists(st.sampled_from(["simulate", "kat", "fom", "--level",
                                        "1", "-h", "--bogus", ""]),
                       max_size=3), st.just("")))


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def _run(argv, file_text):
    """cli.main(argv) with {file} standing for a file holding file_text,
    {missing} for an absent path and {dir} and {tmp} for a directory:
    the exit code, stdout and stderr."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input"
        path.write_text(file_text)
        paths = {"file": path, "missing": Path(tmp) / "absent", "dir": tmp,
                 "tmp": tmp}
        argv = [a.format(**paths) for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as e:  # argparse usage errors and --help
                code = e.code
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(invocation)
def test_cli_exit_codes_and_strict_json(case):
    argv, file_text = case
    code, out, err = _run(argv, file_text)
    assert code in EXIT_CODES, (argv, err)
    text = out.strip()
    if text[:1] in ("{", "["):
        json.loads(text, parse_constant=_reject_constant)


@settings(max_examples=120, deadline=None)
@given(one_bad_field(), st.sampled_from(["json", "csv"]))
@example({"platforms": [{"kind": "FPGA", "luts": 10**200, "cpd_ns": 1,
                         "power_mw": 1, "tech_nm": 28}],
          "scale_to_nm": 65, "lut_area_um2": 10**200}, "json")
def test_fom_one_bad_field_exit_codes(doc, fmt):
    code, out, err = _run(["fom", "{file}", "--format", fmt], json.dumps(doc))
    assert code in (0, 2), err
    if code == 2:
        # one error line and no report that could read as a success
        assert out == "" and err.startswith("error: ")
        assert err.count("\n") == 1
    elif fmt == "json":
        json.loads(out, parse_constant=_reject_constant)
