import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rejsamp import aesprg
from rejsamp.params import SecurityLevel, builtin_params
from oracles import _SBOX as oracle_SBOX
from oracles import aes128_encrypt_oracle, keystream_oracle

KEY = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
PT = bytes.fromhex("00112233445566778899aabbccddeeff")
CT = bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a")

# frozen from the independent oracle (OpenSSL cross-checked)
ZEROS_CT = bytes.fromhex("66e94bd4ef8a2c3b884cfa59ca342b2e")


def test_fips_known_answer():
    assert aesprg.encrypt_block_expanded(aesprg.expand_key(KEY), PT) == CT
    # any bytes-like data
    assert aesprg.encrypt_block_expanded(aesprg.expand_key(KEY), memoryview(PT)) == CT


def test_all_zero_known_answer():
    w = aesprg.expand_key(bytes(16))
    assert aesprg.encrypt_block_expanded(w, bytes(16)) == ZEROS_CT


def test_final_round_key_frozen():
    # last round key of the FIPS key schedule: words w[40..43]
    w = aesprg.expand_key(KEY)
    assert b"".join(x.to_bytes(4, "big") for x in w[40:44]).hex() == \
        "13111d7fe3944a17f307a78b4d2b30c5"


def test_bad_lengths_rejected():
    with pytest.raises(ValueError, match="key must be 16 bytes"):
        aesprg.expand_key(KEY[:-1])
    with pytest.raises(ValueError, match="multiple of 16"):
        aesprg.encrypt_block_expanded(aesprg.expand_key(KEY), PT[:-1])
    with pytest.raises(ValueError, match="iv must be 2 bytes"):
        aesprg.keystream(KEY, b"\x00", 8)
    with pytest.raises(ValueError, match="empty keystream request"):
        aesprg.keystream(KEY, b"\x00\x00", 0)
    # precedence: the key, then the empty request, then the iv
    for iv, n_bytes in ((b"\x00\x00", 0), (b"\x00", 8), (b"\x00", 0)):
        with pytest.raises(ValueError, match="key must be 16 bytes"):
            aesprg.keystream(KEY[:-1], iv, n_bytes)
    with pytest.raises(ValueError, match="empty keystream request"):
        aesprg.keystream(KEY, b"\x00", 0)
    # a schedule that is not 44 32-bit words; the data length is checked
    # first, then the schedule
    for w in ([1, 2], [1 << 32] * 44):
        with pytest.raises(ValueError, match="key schedule must be 44 32-bit words"):
            aesprg.encrypt_block_expanded(w, PT)
        with pytest.raises(ValueError, match="multiple of 16"):
            aesprg.encrypt_block_expanded(w, PT[:-1])


def test_keyed_sboxes_match_oracle_exhaustively():
    # every (k, x): the table of key byte k maps x to S(x ^ k)
    assert [list(t) for t in aesprg._KEYED_SBOX] == \
        [[oracle_SBOX[x ^ k] for x in range(256)] for k in range(256)]


def test_against_openssl():
    cryptography = pytest.importorskip("cryptography")
    from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

    rng = random.Random(2)
    for _ in range(100):
        k = rng.randbytes(16)
        b = rng.randbytes(16)
        enc = Cipher(algorithms.AES(k), modes.ECB()).encryptor()
        assert aesprg.encrypt_block_expanded(aesprg.expand_key(k), b) == \
            enc.update(b) + enc.finalize()


def _counter_blocks(iv, n):
    """Counter blocks 0..n-1: 8 zero bytes, the iv, the 6-byte big-endian
    block index."""
    return b"".join(bytes(8) + iv + i.to_bytes(6, "big") for i in range(n))


# 257 blocks carry the index from byte 15 into byte 14, 513 carry it twice,
# and 65537 carry it into byte 13, the next span of 65536 blocks
@pytest.mark.parametrize("n", [0, 1, 2, 255, 256, 257, 383, 511, 512, 513, 689,
                               65535, 65536, 65537])
def test_ctr_blocks_match_ctr_block(n):
    # the keystream is the cipher over the counter blocks, built here
    iv = b"\xab\xcd"
    w = aesprg.expand_key(KEY)
    if not n:  # no counter blocks: refused by both
        with pytest.raises(ValueError, match="empty keystream request"):
            aesprg.keystream(KEY, iv, 0)
        with pytest.raises(ValueError, match="multiple of 16"):
            aesprg.encrypt_block_expanded(w, _counter_blocks(iv, 0))
        return
    assert aesprg.keystream(KEY, iv, 16 * n) == \
        aesprg.encrypt_block_expanded(w, _counter_blocks(iv, n))


@settings(max_examples=40, deadline=None)
@given(key=st.binary(min_size=16, max_size=16),
       iv=st.binary(min_size=2, max_size=2),
       n_bytes=st.integers(min_value=1, max_value=16 * 1024))
def test_keystream_matches_the_cipher_over_counter_blocks(key, iv, n_bytes):
    assert aesprg.keystream(key, iv, n_bytes) == aesprg.encrypt_block_expanded(
        aesprg.expand_key(key), _counter_blocks(iv, -(-n_bytes // 16)))[:n_bytes]


def test_ctr_blocks_check_the_last_index(monkeypatch):
    iv = b"\x00\x01"
    too_many = 16 * (1 << 48) + 1  # one byte into block 2**48
    # checked at the call, before 2**48 blocks could be allocated: the
    # key, then the iv, then the counter range
    with pytest.raises(ValueError, match="key must be 16 bytes"):
        aesprg.keystream(KEY[:-1], b"\x00", too_many)
    with pytest.raises(ValueError, match="iv must be 2 bytes"):
        aesprg.keystream(KEY, b"\x00", too_many)
    with pytest.raises(ValueError, match="48-bit"):
        aesprg.keystream(KEY, iv, too_many)
    # the limit itself is accepted, one byte past it is not
    monkeypatch.setattr(aesprg, "_MAX_BLOCKS", 3)
    assert aesprg.keystream(KEY, iv, 48) == keystream_oracle(KEY, iv, 48)
    with pytest.raises(ValueError, match="48-bit"):
        aesprg.keystream(KEY, iv, 49)


def test_block_consumption_count(monkeypatch):
    calls = []
    real = aesprg._rounds

    def counting(rk, lanes, n, first):
        calls.append((n, first, [len(lane) for lane in lanes]))
        return real(rk, lanes, n, first)

    monkeypatch.setattr(aesprg, "_rounds", counting)
    out = aesprg.keystream(KEY, b"\x00\x01", 2916)
    # one pass of rounds 3-10 over 16 lanes of 183 blocks
    assert calls == [(183, 3, [183] * 16)]
    monkeypatch.undo()
    # those blocks are the cipher of 183 distinct counter blocks
    counters = _counter_blocks(b"\x00\x01", 183)
    assert len({counters[i:i + 16] for i in range(0, len(counters), 16)}) == 183
    assert out == aesprg.encrypt_block_expanded(aesprg.expand_key(KEY), counters)[:2916]


def test_interleaved_keys_and_ivs_keep_no_state():
    # each call is its own CTR run: no table of one (key, iv) reaches the next
    rng = random.Random(7)
    keys = [KEY, rng.randbytes(16), bytes(16)]
    ivs = [b"\xbe\xef", b"\x00\x00", b"\xff\xff"]
    for i, n_bytes in enumerate([333, 2916, 17, 4097, 1, 512, 100, 300, 16]):
        key, iv = keys[i % 3], ivs[i // 3]
        assert aesprg.keystream(key, iv, n_bytes) == keystream_oracle(key, iv, n_bytes)


def test_matches_independent_ctr_oracle():
    assert aesprg.keystream(KEY, b"\xbe\xef", 333) == keystream_oracle(KEY, b"\xbe\xef", 333)


def test_sl5_keystream_matches_independent_ctr_oracle():
    # 689 blocks: the counter's low byte carries from 255 into 256
    tau = builtin_params(SecurityLevel.SL5).tau
    assert -(-tau // 16) == 689
    assert aesprg.keystream(KEY, b"\x5a\xa5", tau) == keystream_oracle(KEY, b"\x5a\xa5", tau)


@settings(max_examples=200, deadline=None)
@given(key=st.binary(min_size=16, max_size=16),
       block=st.binary(min_size=16, max_size=16))
def test_cipher_matches_independent_oracle(key, block):
    w = aesprg.expand_key(key)
    assert aesprg.encrypt_block_expanded(w, block) == aes128_encrypt_oracle(key, block)


def _cycled(blocks):
    """blocks 16-byte blocks cycling through 16 distinct ones"""
    return (bytes(range(256)) * (blocks // 16 + 1))[:16 * blocks]


@settings(max_examples=12, deadline=None)
@given(key=st.binary(min_size=16, max_size=16),
       data=st.integers(min_value=1, max_value=300).flatmap(
           lambda n: st.binary(min_size=16 * n, max_size=16 * n)))
# lane widths either side of 256 bytes, and SL5's 689 blocks
@example(key=KEY, data=_cycled(255))
@example(key=KEY, data=_cycled(256))
@example(key=KEY, data=_cycled(257))
@example(key=KEY, data=_cycled(689))
# plaintext with bit 7 set in every byte of every lane
@example(key=KEY, data=b"\x80" * 16 * 3)
@example(key=KEY, data=b"\xff" * 16 * 3)
def test_batched_cipher_matches_oracle_per_block(key, data):
    w = aesprg.expand_key(key)
    blocks = [data[i:i + 16] for i in range(0, len(data), 16)]
    oracle = {b: aes128_encrypt_oracle(key, b) for b in set(blocks)}
    assert aesprg.encrypt_block_expanded(w, data) == \
        b"".join(oracle[b] for b in blocks)


@pytest.mark.parametrize("n", [0, 1, 15, 17, 31, 33])
def test_batched_cipher_rejects_partial_blocks(n):
    with pytest.raises(ValueError, match="multiple of 16"):
        aesprg.encrypt_block_expanded(aesprg.expand_key(KEY), bytes(n))


@settings(max_examples=60, deadline=None)
@given(key=st.binary(min_size=16, max_size=16),
       iv=st.binary(min_size=2, max_size=2),
       n=st.integers(min_value=1, max_value=120),
       extra=st.integers(min_value=0, max_value=120))
def test_prefix_property(key, iv, n, extra):
    assert aesprg.keystream(key, iv, n + extra)[:n] == aesprg.keystream(key, iv, n)
