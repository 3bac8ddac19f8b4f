import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rejsamp import aesprg
from rejsamp.hwsim.core import RejSampUnit, TimingConfig
from rejsamp.packing import bytes_from_words, words_from_bytes
from rejsamp.params import ParameterSet, SecurityLevel, builtin_params
from rejsamp.sampler import (FieldVector, rej_samp, rej_samp_prg,
                             rejection_stats)
from oracles import rej_samp_naive, zero_fill_weight

SEED = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
MERSENNE_BELOW_256 = (1, 3, 7, 15, 31, 63, 127, 255)


@st.composite
def dense_in_rejects(draw, size, q=127):
    """size bytes in which a drawn share, 0 to 8 eighths, is set to a byte
    that masks to q (for q = 127, 0x7F or 0xFF)."""
    raw = draw(st.binary(min_size=size, max_size=size))
    density = draw(st.integers(0, 8))
    return bytes(b | q if b % 8 < density else b for b in raw)


def _unit_sampled(raw, n_prime, q):
    """The n' values the sampler unit makes of raw, read back as a list."""
    p = _toy(q, len(raw), n_prime)
    words = RejSampUnit(TimingConfig()).run(p, words_from_bytes(raw))
    return list(bytes_from_words(words, n_prime))


def test_mask_rejects_non_mersenne():
    with pytest.raises(ValueError, match="Mersenne"):
        rej_samp(b"\x01", 1, 1, 100)


@pytest.mark.parametrize("raw,tau,np_,want", [
    # hand-trace: v1 replaced from the tail, tail exhausts, v3 zero-filled
    (bytes([0x7F, 0x05, 0xFF, 0x10, 0x20, 0xFF]), 6, 4, (32, 5, 0, 16)),
    (bytes([0x01, 0x02, 0x03, 0x04]), 4, 4, (1, 2, 3, 4)),
    (bytes([0x7F] * 5), 5, 4, (0, 0, 0, 0)),
    # n' = tau: no tail, so every head reject is zero-filled
    (bytes([0x7F, 0x05, 0xFF]), 3, 3, (0, 5, 0)),
    # rejects at head positions 0 and n' - 1
    (bytes([0xFF, 0x01, 0x02, 0x7F, 0x10, 0x20]), 6, 4, (16, 1, 2, 32)),
    # a run of head rejects patched in order, then zero-filled
    (bytes([0x01, 0x7F, 0xFF, 0x7F, 0x02, 0x7F, 0x11, 0xFF, 0x12]), 9, 5,
     (1, 17, 18, 0, 2)),
    # a run of tail rejects is skipped
    (bytes([0x7F, 0x03, 0xFF, 0x7F, 0x09]), 5, 2, (9, 3)),
    # no byte masks to q: the vector is the masked head, tail unread
    (bytes([0x80]), 1, 1, (0,)),
    (bytes([0xFE, 0x05, 0x7E, 0x90]), 4, 4, (126, 5, 126, 16)),
    (bytes([0x81, 0xFE, 0x00, 0x90]), 4, 3, (1, 126, 0)),
])
def test_rej_samp_examples(raw, tau, np_, want):
    assert rej_samp(raw, tau, np_, 127).elems == bytes(want)
    assert tuple(rej_samp_naive(raw, tau, np_, 127)) == want
    assert tuple(_unit_sampled(raw, np_, 127)) == want


def test_rej_samp_input_validation():
    with pytest.raises(ValueError, match="insufficient"):
        rej_samp(b"\x01\x02", 2, 3, 127)
    with pytest.raises(ValueError, match="expected tau"):
        rej_samp(b"\x01\x02", 3, 2, 127)
    with pytest.raises(ValueError, match="Mersenne"):
        rej_samp(b"\x01\x02", 2, 1, 100)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_matches_naive_transcription(data):
    # the golden model and the sampler unit, at every Mersenne q of a byte
    tau = data.draw(st.integers(min_value=1, max_value=64))
    n_prime = data.draw(st.integers(min_value=1, max_value=tau))
    for q in MERSENNE_BELOW_256:
        raw = data.draw(dense_in_rejects(tau, q))
        want = rej_samp_naive(raw, tau, n_prime, q)
        assert list(rej_samp(raw, tau, n_prime, q).elems) == want
        assert _unit_sampled(raw, n_prime, q) == want


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_positional_stability(data):
    # positions already below q are never touched by replacement
    tau = data.draw(st.integers(min_value=1, max_value=48))
    n_prime = data.draw(st.integers(min_value=1, max_value=tau))
    raw = data.draw(st.binary(min_size=tau, max_size=tau))
    out = rej_samp(raw, tau, n_prime, 127)
    for j in range(n_prime):
        if raw[j] & 127 != 127:
            assert out.elems[j] == raw[j] & 127


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_zero_fill_exactly_when_rejects_exceed_spares(data):
    # the event the tau rule bounds: more q-bytes than the tau - n' spares
    tau = data.draw(st.integers(min_value=1, max_value=64))
    n_prime = data.draw(st.integers(min_value=1, max_value=tau))
    raw = data.draw(dense_in_rejects(tau))
    s = rejection_stats(raw, tau, n_prime, 127)
    assert (s.zero_filled > 0) == (s.masked_to_q > tau - n_prime)


def test_output_range_random():
    rng = random.Random(3)
    for _ in range(2000):
        tau = rng.randint(1, 64)
        n_prime = rng.randint(1, tau)
        out = rej_samp(rng.randbytes(tau), tau, n_prime, 127)
        assert len(out) == n_prime
        assert all(0 <= v < 127 for v in out.elems)


def test_prg_sl1_shape_and_determinism():
    p = builtin_params(SecurityLevel.SL1)
    a = rej_samp_prg(SEED, b"\x00\x01", p)
    b = rej_samp_prg(SEED, b"\x00\x01", p)
    assert len(a) == 2808
    assert a.elems == b.elems
    assert all(v < 127 for v in a.elems)


def test_prg_is_keystream_plus_rej_samp():
    p = builtin_params(SecurityLevel.SL1)
    raw = aesprg.keystream(SEED, b"\x12\x34", p.tau)
    assert rej_samp_prg(SEED, b"\x12\x34", p).elems == \
        rej_samp(raw, p.tau, p.n_prime, p.q).elems


def test_field_vector_validates_range():
    with pytest.raises(ValueError):
        FieldVector(bytes((0, 127)), 127)
    # a vector is its bytes: no other sequence is taken, even in range
    for elems, m in [((-1,), 127), ((300,), 301), ((1.0, 126.5), 127),
                     ([5], 127), (bytearray(b"\x05"), 127), ((0,), 127)]:
        with pytest.raises(TypeError, match="elems must be bytes"):
            FieldVector(elems, m)


def test_field_vector_error_counts_bad_elements():
    for elems, m, bad in [((5, 127, 200, 0), 127, 2), ((1, 2), 0, 2)]:
        with pytest.raises(ValueError) as ei:
            FieldVector(bytes(elems), m)
        assert str(ei.value) == f"{bad} element(s) outside [0, {m})"


@pytest.mark.parametrize("elems,m", [
    ((255,), 301), ((255, 0), 256), ((0, 200), 1000), ((1, 126), 127),
    ((), 127)])
def test_field_vector_accepts_in_range(elems, m):
    fv = FieldVector(bytes(elems), m)
    assert list(fv.elems) == list(elems)
    # both artifacts read back to the same vector
    packed = fv.to_packed_bytes()
    assert packed == bytes(elems) + bytes(-len(elems) % 8)
    assert FieldVector(bytes(map(int, fv.to_csv().split())), m) == fv


def test_mersenne_q_above_a_byte_rejects_nothing():
    # 511 masks every byte to itself and no byte equals it
    raw = bytes(range(256))
    assert rej_samp(raw, 256, 200, 511).elems == bytes(range(200))
    s = rejection_stats(raw, 256, 200, 511)
    assert (s.masked_to_q, s.replaced, s.zero_filled) == (0, 0, 0)


@given(data=st.binary(max_size=64))
def test_packing_matches_chunk_oracle(data):
    words = words_from_bytes(data)
    assert words == [int.from_bytes(data[i:i + 8].ljust(8, b"\0"), "big")
                     for i in range(0, len(data), 8)]
    assert bytes_from_words(words, len(data)) == data
    with pytest.raises(ValueError, match="hold"):
        bytes_from_words(words, 8 * len(words) + 1)


def test_field_vector_packed_words_msb_first():
    fv = FieldVector(bytes((1, 2, 3, 4, 5, 6, 7, 8, 9)), 127)
    words = words_from_bytes(fv.to_packed_bytes())
    assert words[0] == 0x0102030405060708
    assert words[1] == 0x0900000000000000


def test_field_vector_csv():
    assert FieldVector(bytes((5, 0, 126)), 127).to_csv() == "5\n0\n126\n"


def test_rejection_stats_input_validation():
    # the same checks, with the same messages, as rej_samp
    with pytest.raises(ValueError, match="expected tau"):
        rejection_stats(b"\x7f" * 10, 5, 3, 127)
    with pytest.raises(ValueError, match="insufficient"):
        rejection_stats(b"\x7f" * 10, 10, 12, 127)


def test_rejection_stats():
    raw = bytes([0x7F, 0x05, 0xFF, 0x10, 0x20, 0xFF])
    s = rejection_stats(raw, 6, 4, 127)
    assert s.masked_to_q == 3
    assert s.replaced == 1      # one tail valid (0x20) available
    assert s.zero_filled == 1   # second head reject runs out of tail
    assert s.rejection_rate == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# The exact output distribution, on toy parameter sets small enough to
# enumerate every masked stream.  Byte b masks to b & q, so each of the
# symbols 0..q stands for 256/(q+1) bytes and every stream of tau symbols
# carries the same weight: counting streams counts probability exactly.


def _toy(q, tau, n_prime):
    return ParameterSet(sec_level=SecurityLevel.SL1, q=q, l=1, V=1,
                        M=n_prime, tau=tau, lambda_bits=0)


@pytest.mark.parametrize("q,tau,n_prime", [
    (3, 6, 2), (3, 7, 2), (3, 8, 2), (7, 5, 2), (1, 8, 2)])
def test_output_is_uniform_unless_zero_filled(q, tau, n_prime):
    # zero-fill happens exactly when the q-symbols outnumber the tau - n'
    # spares (test_zero_fill_exactly_when_rejects_exceed_spares)
    p = _toy(q, tau, n_prime)
    vectors, zero_filled = Counter(), 0
    for stream in itertools.product(range(q + 1), repeat=tau):
        raw = bytes(stream)
        if raw.count(q) > tau - n_prime:
            zero_filled += 1
        else:
            vectors[rej_samp(raw, p.tau, p.n_prime, p.q).elems] += 1
    # every vector of F_q^n' occurs, each with the same weight
    assert len(vectors) == q ** n_prime
    assert len(set(vectors.values())) == 1
    assert zero_filled == zero_fill_weight(tau, n_prime, q)


def test_rejsamp_unit_matches_golden_on_every_toy_stream():
    # tau = 6 fills less than one 16-byte group and one memory word
    p = _toy(3, 6, 2)
    unit = RejSampUnit(TimingConfig())
    rows, _ = unit.schedule(p)
    assert [r[2:4] for r in rows if r[2] != "done"] == [("read", 0),
                                                        ("write", 0)]
    for stream in itertools.product(range(p.q + 1), repeat=p.tau):
        raw = bytes(stream)
        out = bytes_from_words(unit.run(p, words_from_bytes(raw)), p.n_prime)
        assert out == rej_samp(raw, p.tau, p.n_prime, p.q).elems
        assert list(out) == rej_samp_naive(raw, p.tau, p.n_prime, p.q)
