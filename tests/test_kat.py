import tracemalloc

import pytest

from rejsamp import aesprg, kat
from rejsamp.params import SecurityLevel, builtin_params
from oracles import keystream_oracle, rej_samp_naive

SEED = bytes.fromhex("000102030405060708090a0b0c0d0e0f")


def test_generate_then_verify():
    text = kat.generate_kat(SEED, b"\x00\x01", 1, count=3)
    records = kat.parse_kat(text)
    assert len(records) == 6
    assert kat.verify_kat(records) is None


@pytest.fixture
def keystream_calls(monkeypatch):
    """Records (key, iv, n_bytes) for every aesprg.keystream call."""
    calls = []
    real = aesprg.keystream

    def counting(key, iv, n_bytes, *args, **kwargs):
        calls.append((key, iv, n_bytes))
        return real(key, iv, n_bytes, *args, **kwargs)

    monkeypatch.setattr(aesprg, "keystream", counting)
    return calls


def _flip_last_digit(line):
    return line[:-1] + ("0" if line[-1] != "0" else "1")


def _interleaved_lines():
    """Records of two (key, iv) pairs, interleaved, from the oracles only:
    the first pair has n=16, n=tau+5 and level=1 records."""
    p = builtin_params(SecurityLevel.SL1)
    key_a, iv_a = SEED, b"\x00\x07"
    key_b, iv_b = bytes(range(16, 32)), b"\x00\x07"
    ks_a = keystream_oracle(key_a, iv_a, p.tau + 5)
    ks_b = keystream_oracle(key_b, iv_b, p.tau)
    fv_a = bytes(rej_samp_naive(ks_a[:p.tau], p.tau, p.n_prime, p.q))
    fv_b = bytes(rej_samp_naive(ks_b, p.tau, p.n_prime, p.q))
    a = f"key={key_a.hex()} iv={iv_a.hex()}"
    b = f"key={key_b.hex()} iv={iv_b.hex()}"
    return [
        f"{a} n=16 out={ks_a[:16].hex()}",
        f"{b} level=1 out={fv_b.hex()}",
        f"{a} n={p.tau + 5} out={ks_a.hex()}",
        f"{b} n=32 out={ks_b[:32].hex()}",
        f"{a} level=1 out={fv_a.hex()}",
    ]


def test_verify_expands_each_keystream_once(keystream_calls):
    records = kat.parse_kat(kat.generate_kat(SEED, b"\x00\x01", 1, count=3))
    keystream_calls.clear()
    assert kat.verify_kat(records) is None
    tau = builtin_params(SecurityLevel.SL1).tau
    assert [(iv, n) for _, iv, n in keystream_calls] == \
        [(b"\x00\x01", tau), (b"\x00\x02", tau), (b"\x00\x03", tau)]


def test_verify_interleaved_prefix_records(keystream_calls):
    records = kat.parse_kat("\n".join(_interleaved_lines()) + "\n")
    assert kat.verify_kat(records) is None
    tau = builtin_params(SecurityLevel.SL1).tau
    # one expansion per pair, each to the longest length its records need
    assert [n for _, _, n in keystream_calls] == [tau + 5, tau]


def test_verify_interleaved_first_mismatch_in_file_order():
    lines = _interleaved_lines()
    lines[2] = _flip_last_digit(lines[2])
    lines[3] = _flip_last_digit(lines[3])
    result = kat.verify_kat(kat.parse_kat("\n".join(lines) + "\n"))
    assert result is not None and result[0] == 3
    assert result[1].startswith("keystream mismatch at line 3: ")


def test_verify_stops_before_later_keystreams(keystream_calls):
    lines = _interleaved_lines()
    lines[0] = _flip_last_digit(lines[0])
    result = kat.verify_kat(kat.parse_kat("\n".join(lines) + "\n"))
    assert result is not None and result[0] == 1
    assert len(keystream_calls) == 1


def test_verify_holds_one_keystream_at_a_time():
    # 40 records, each with its own iv: one live keystream and the
    # cipher's temporaries peak near 12 x tau, every keystream kept near 50
    lines = kat.generate_kat(SEED, b"\x00\x00", 1, count=40).splitlines()
    records = kat.parse_kat("\n".join(lines[::2]))
    tracemalloc.start()
    try:
        assert kat.verify_kat(records) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * builtin_params(SecurityLevel.SL1).tau


def test_mismatch_reports_line_number():
    text = kat.generate_kat(SEED, b"\x00\x01", 1)
    lines = text.splitlines()
    lines[1] = _flip_last_digit(lines[1])
    result = kat.verify_kat(kat.parse_kat("\n".join(lines)))
    assert result is not None and result[0] == 2


def test_parse_accepts_comments_and_blanks():
    text = "# header\n\n" + kat.generate_kat(SEED, b"\x00\x01", 1)
    assert len(kat.parse_kat(text)) == 2


PARSE_ERRORS = [
    ("key=00 iv=0001 n=1 out=00", "key must be 32"),
    (f"key={'0' * 32} iv=001 n=1 out=00", "iv must be 4"),
    (f"key={'0' * 32} iv=0001 out=00", "exactly one of"),
    (f"key={'0' * 32} iv=0001 n=1 level=1 out=00", "exactly one of"),
    (f"key={'0' * 32} iv=0001 n=2 out=00", "out has 1 bytes"),
    (f"key={'0' * 32} iv=0001 n=0 out=", "n must be positive"),
    (f"key={'0' * 32} iv=0001 level=2 out=00", "level must be"),
    (f"key={'0' * 32} iv=0001 n=1 out=0g", "not valid hex"),
    (f"key={'0' * 32} iv=0001 n=1 out=00 x=1", "unknown field"),
    (f"key={'0' * 32} iv=0001 iv=0002 n=1 out=00", "duplicate field 'iv'"),
    ("garbage", "key=value"),
    (f"iv=0001 n=1 out=00", "missing field 'key'"),
    # numbers are ASCII decimal digits only
    (f"key={'0' * 32} iv=0001 n=1_6 out={'00' * 16}", "n is not a decimal"),
    (f"key={'0' * 32} iv=0001 level=+1 out=00", "level must be"),
    (f"key={'0' * 32} iv=0001 level=0_1 out=00", "level must be"),
    (f"key={'0' * 32} iv=0001 level=\u0663 out=00", "level must be"),
    (f"key={'0' * 32} iv=0001 level=1 out=00", "out has 1 bytes, level=1 "
                                               "needs n'=2808"),
    # past int()'s 4300 digits n is still a number, and quoted as written
    (f"key={'0' * 32} iv=0001 n={'1' * 4301} out=00",
     f"out has 1 bytes, n={'1' * 4301}$"),
    (f"key={'0' * 32} iv=0001 n=0{'1' * 4299} out=00",
     f"out has 1 bytes, n=0{'1' * 4299}$"),
]


# a row's text is its id, cut short for the 4300-digit numbers
@pytest.mark.parametrize("line,err", PARSE_ERRORS,
                         ids=lambda v: f"{v[:60]}..." if len(v) > 99 else None)
def test_parse_errors(line, err):
    with pytest.raises(kat.KatError, match=err):
        kat.parse_kat(line + "\n")


def test_zero_padded_n_past_the_int_digit_limit():
    rec, = kat.parse_kat(f"key={'0' * 32} iv=0001 n={'0' * 4300}1 out=00")
    assert rec.n == 1


def _outcome(text):
    try:
        return kat.parse_kat(text)
    except kat.KatError as e:
        return e.line, e.col, str(e)


KAT_TEXTS = [kat.generate_kat(SEED, b"\x00\x01", 1, count=2),
             kat.generate_kat(SEED, b"\xff\xff", 3)] + [
    line + "\n" for line, _ in PARSE_ERRORS]


@pytest.mark.parametrize("end", ["\n", "\r\n", "\x0c", "\x85"])
def test_any_whitespace_parses_alike(end):
    # fields split on any whitespace and lines at any line boundary, so
    # records, or the error's line, column and message, do not change
    for text in KAT_TEXTS:
        for sep in " \t\x1f\u3000\xa0":
            assert _outcome(text.replace(" ", sep).replace("\n", end)) == \
                _outcome(text), (sep, end)


def test_level_record_carries_its_parameter_set():
    ks, fv = kat.parse_kat(kat.generate_kat(SEED, b"\x00\x01", 3))
    p = builtin_params(SecurityLevel.SL3)
    assert (ks.n, ks.params) == (p.tau, None)
    assert (fv.n, fv.params) == (p.tau, p)
    assert len(fv.out) == p.n_prime


def test_parse_error_carries_position():
    with pytest.raises(kat.KatError) as ei:
        kat.parse_kat(f"key={'0' * 32} iv=xyz1 n=1 out=00\n")
    assert ei.value.line == 1 and ei.value.col == 38
    # a bad number, an out of the wrong length or a duplicate field, at
    # that field's own column
    head = f"key={'0' * 32} iv=0001"
    for line, field in [(f"{head} n=1_6 out={'00' * 16}", "n="),
                        (f"{head} level=\u0663 out=00", "level="),
                        (f"{head} level=5 out=00", "out="),
                        (f"{head} iv=0002 n=1 out=00", "iv=0002")]:
        with pytest.raises(kat.KatError) as ei:
            kat.parse_kat(line + "\n")
        assert ei.value.col == line.index(f" {field}") + 2


def test_iv_wraps_mod_2_16():
    text = kat.generate_kat(SEED, b"\xff\xff", 1, count=2)
    records = kat.parse_kat(text)
    assert records[0].iv == b"\xff\xff" and records[2].iv == b"\x00\x00"
