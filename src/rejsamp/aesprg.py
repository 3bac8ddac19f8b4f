"""AES-128 block cipher and the CTR keystream used as the sampler's PRG.

The cipher is functional only and has no notion of cycles. It encrypts
every block of one CTR run in a single call, byte-sliced across the
blocks (Kasper & Schwabe, "Faster and Timing-Attack Resistant AES-GCM",
CHES 2009): lane j holds state byte j of every block. Each table lookup
is one bytes.translate over a whole lane, the one-lookup-per-lane idea of
Hamburg ("Accelerating AES with Vector Permute Instructions", CHES 2009).
The lanes stay bytes between rounds, and AddRoundKey is folded into the
next lookup: one of 256 keyed S-boxes, S(x ^ k) for each key byte k,
takes lane j through the previous round's key byte j and SubBytes at
once. ShiftRows is the choice of lanes each output column reads, and
MixColumns runs on the lanes as ints, doubling each byte with xtime's
shift and conditional 0x1B reduction in every block at once. So a lane
makes one translate, one from_bytes and one to_bytes per round; the
final round translates through the keyed S-box, then through the table
of x ^ k that adds the last round key. keystream, which the hwsim wrapper
also calls, runs expand_key once and encrypt_block_expanded once over all
of a run's counter blocks.
No hardcoded lookup tables: the S-box, the keyed tables and the round
constants are derived from the field arithmetic at import.

Counter block layout (16 bytes), fixed as in the coprocessor, which can
load only the seed: 8 zero bytes, the 2-byte iv, then the 6-byte
big-endian running block index. ctr_blocks is the one place that builds
it. It checks the iv and the last index at the call, then writes a run's
blocks one byte position at a time: the zero prefix is the fill of a new
bytearray, each iv byte is one strided write, and each index byte is a
lane of runs of equal bytes, so its Python-level work is O(count / 256).
"""

import struct

KEY_BYTES = 16
IV_BYTES = 2
_BLOCK_BYTES = 16

_BLOCK_INDEX_BYTES = 6
_MAX_BLOCKS = 1 << (8 * _BLOCK_INDEX_BYTES)
_BYTE_VALUES = bytes(range(256))
_WORDS = struct.Struct(">4I")
_SCHEDULE = struct.Struct(">44I")


def _build_tables():
    xtime = [(b << 1) ^ 0x1B if b & 0x80 else b << 1 for b in range(128)]
    xtime += [((b << 1) ^ 0x1B) & 0xFF for b in range(128, 256)]
    # exp/log over the generator 3 give the multiplicative inverse
    exp, log = [0] * 256, [0] * 256
    x = 1
    for i in range(255):
        exp[i] = x
        log[x] = i
        x ^= xtime[x]
    sbox = [0] * 256
    for a in range(256):
        b = exp[(255 - log[a]) % 255] if a else 0
        s = 0x63
        for k in range(5):
            s ^= ((b << k) | (b >> (8 - k))) & 0xFF
        sbox[a] = s
    rcon = [1]
    for _ in range(9):
        rcon.append(xtime[rcon[-1]])
    # x ^ k for every key byte k: the identity XOR k broadcast to each byte
    ident = int.from_bytes(bytes(range(256)), "little")
    ones = int.from_bytes(b"\x01" * 256, "little")
    add_key = tuple((ident ^ k * ones).to_bytes(256, "little")
                    for k in range(256))
    sbox = bytes(sbox)
    return sbox, add_key, tuple(t.translate(sbox) for t in add_key), rcon


# _KEYED_SBOX[k][x] == _SBOX[x ^ k]: AddRoundKey folded into SubBytes
_SBOX, _ADD_KEY, _KEYED_SBOX, _RCON = _build_tables()
# ShiftRows: byte j (row j % 4) reads that row of column (j // 4 + j % 4) % 4
_SHIFT_ROWS = tuple((j + 4 * (j % 4)) % 16 for j in range(16))
_COLUMNS = tuple(_SHIFT_ROWS[c:c + 4] for c in range(0, 16, 4))


def expand_key(key: bytes) -> list[int]:
    """AES-128 key schedule: the 44 FIPS-197 words w[0..43], big-endian
    32-bit ints; round r uses w[4r:4r+4]."""
    check_key(key)
    w = list(_WORDS.unpack(key))
    for i in range(4, 44):
        t = w[i - 1]
        if i % 4 == 0:
            # SubWord(RotWord(t)) xor Rcon
            t = (_SBOX[t >> 16 & 255] << 24 ^ _SBOX[t >> 8 & 255] << 16
                 ^ _SBOX[t & 255] << 8 ^ _SBOX[t >> 24]
                 ^ _RCON[i // 4 - 1] << 24)
        w.append(w[i - 4] ^ t)
    return w


def encrypt_block_expanded(w: list[int], data: bytes) -> bytes:
    """AES-128 encryption of every 16-byte block of data with a
    precomputed key schedule, all blocks at once. The data length is
    checked first, then the schedule."""
    n, rest = divmod(len(data), _BLOCK_BYTES)
    if not n or rest:
        raise ValueError(f"data must be a positive multiple of {_BLOCK_BYTES} "
                         f"bytes, got {len(data)}")
    try:
        rk = _SCHEDULE.pack(*w)  # round r's key bytes are rk[16r:16r + 16]
    except struct.error:
        raise ValueError("key schedule must be 44 32-bit words, as "
                         "expand_key returns") from None
    ones = int.from_bytes(b"\x01" * n, "little")
    low7 = 0x7F * ones
    to = int.to_bytes
    # lane j: state byte j (row j % 4, column j // 4) of every block
    lanes = [bytes(data[j::_BLOCK_BYTES]) for j in range(_BLOCK_BYTES)]
    for r in range(1, 10):
        # AddRoundKey of round r - 1, then SubBytes: one keyed S-box a lane
        keys = rk[_BLOCK_BYTES * (r - 1):_BLOCK_BYTES * r]
        a = [int.from_bytes(lane.translate(_KEYED_SBOX[k]), "little")
             for lane, k in zip(lanes, keys)]
        lanes = []
        for j0, j1, j2, j3 in _COLUMNS:
            # MixColumns of the shifted column: a_r ^ t ^ xtime(a_r ^ a_(r+1)),
            # xtime doubling every byte of u with no carry between bytes
            a0, a1, a2, a3 = a[j0], a[j1], a[j2], a[j3]
            t = a0 ^ a1 ^ a2 ^ a3
            u0, u1, u2, u3 = a0 ^ a1, a1 ^ a2, a2 ^ a3, a3 ^ a0
            lanes += (
                to(a0 ^ t ^ (u0 & low7) << 1 ^ (u0 >> 7 & ones) * 0x1B, n, "little"),
                to(a1 ^ t ^ (u1 & low7) << 1 ^ (u1 >> 7 & ones) * 0x1B, n, "little"),
                to(a2 ^ t ^ (u2 & low7) << 1 ^ (u2 >> 7 & ones) * 0x1B, n, "little"),
                to(a3 ^ t ^ (u3 & low7) << 1 ^ (u3 >> 7 & ones) * 0x1B, n, "little"))
    out = bytearray(len(data))
    for j, i in enumerate(_SHIFT_ROWS):  # final round: no MixColumns
        out[j::_BLOCK_BYTES] = lanes[i].translate(
            _KEYED_SBOX[rk[9 * _BLOCK_BYTES + i]]).translate(
            _ADD_KEY[rk[10 * _BLOCK_BYTES + j]])
    return bytes(out)


def check_key(key: bytes) -> None:
    if len(key) != KEY_BYTES:
        raise ValueError(f"key must be {KEY_BYTES} bytes, got {len(key)}")


def ctr_blocks(iv: bytes, count: int) -> bytes:
    """Counter blocks 0..count-1 for iv, concatenated. The iv and the last
    index are checked here, before anything is allocated. The blocks are
    built one byte position at a time: the zero prefix is the fill, each
    iv byte is one lane, and index byte k (from the low end) of block i is
    i // 256**k % 256, a lane of runs of 256**k equal bytes."""
    if len(iv) != IV_BYTES:
        raise ValueError(f"iv must be {IV_BYTES} bytes, got {len(iv)}")
    if count > _MAX_BLOCKS:
        raise ValueError("block index exceeds the 48-bit counter range")
    blocks = bytearray(_BLOCK_BYTES * count)
    blocks[8::_BLOCK_BYTES] = iv[:1] * count
    blocks[9::_BLOCK_BYTES] = iv[1:] * count
    lane = _BYTE_VALUES * (count // 256 + 1)  # the low byte counts and wraps
    for k in range(_BLOCK_INDEX_BYTES):
        run = 256 ** k
        if run >= count:  # this lane and every higher one stay zero
            break
        if k:
            lane = b"".join(bytes((v & 255,)) * run
                            for v in range(-(-count // run)))
        blocks[_BLOCK_BYTES - 1 - k::_BLOCK_BYTES] = lane[:count]
    return bytes(blocks)


def keystream(key: bytes, iv: bytes, n_bytes: int) -> bytes:
    """First n_bytes of the AES-128-CTR keystream for (key, iv).

    Consumes exactly ceil(n_bytes/16) block encryptions; trailing bytes of
    the final block are discarded.
    """
    round_keys = expand_key(key)  # checks the key
    if n_bytes <= 0:
        raise ValueError("empty keystream request")
    counters = ctr_blocks(iv, -(-n_bytes // _BLOCK_BYTES))
    return encrypt_block_expanded(round_keys, counters)[:n_bytes]
