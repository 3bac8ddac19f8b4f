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
of x ^ k that adds the last round key. encrypt_block_expanded runs all
ten rounds this way, and keystream, which the hwsim wrapper also calls,
runs rounds 3-10 (_rounds, which both share).
No hardcoded lookup tables: the S-box, the keyed tables and the round
constants are derived from the field arithmetic at import.

Counter block layout (16 bytes), fixed as in the coprocessor, which can
load only the seed: 8 zero bytes, the 2-byte iv, then the 6-byte
big-endian running block index. keystream never builds these blocks. In
a span of 65536 blocks, bytes 0-13 are the same (zeros, iv, span number)
and only hi = i >> 8 (byte 14) and lo = i & 255 (byte 15) change, so
rounds 1 and 2 come from per-call tables, the counter-mode
precomputation of Bernstein & Schwabe ("New AES software speed records",
INDOCRYPT 2008). After round 1, lanes 0-3 hold tables over lo, lanes 4-7
tables over hi and lanes 8-15 scalars; after round 2, lane j of block i
is f_j[lo] ^ g_j[hi]: f_j has at most 256 entries, and g_j is one scalar
for each hi the call reaches. The scalar parts are one 16-byte state,
mixed with xtime on all of its bytes at once. Nothing is kept between
calls. keystream checks the iv and the 48-bit counter range before it
allocates anything.
"""

import struct
from itertools import repeat
from operator import itemgetter

KEY_BYTES = 16
IV_BYTES = 2
_BLOCK_BYTES = 16

_MAX_BLOCKS = 1 << 48  # the 6-byte block index
_SPAN = 1 << 16  # blocks whose counters differ only in bytes 14 and 15
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
    return (sbox, add_key, tuple(t.translate(sbox) for t in add_key), rcon,
            (bytes(xtime), bytes(x ^ b for b, x in enumerate(xtime))))


# _KEYED_SBOX[k][x] == _SBOX[x ^ k]: AddRoundKey folded into SubBytes;
# _TIMES[0][x] and _TIMES[1][x] are 2x and 3x in GF(2^8)
_SBOX, _ADD_KEY, _KEYED_SBOX, _RCON, _TIMES = _build_tables()
# ShiftRows: byte j (row j % 4) reads that row of column (j // 4 + j % 4) % 4
_SHIFT_ROWS = tuple((j + 4 * (j % 4)) % 16 for j in range(16))
_COLUMNS = tuple(_SHIFT_ROWS[c:c + 4] for c in range(0, 16, 4))
_SHIFT = itemgetter(*_SHIFT_ROWS)
# One state as a 128-bit int of four big-endian column words (_mix): the
# byte one row down in a column, row 0 below row 3, is 8 bits lower
_WRAP = int.from_bytes(b"\0\0\0\xff" * 4, "big")
_UP = _WRAP * 0x01010100
_ONES = int.from_bytes(b"\x01" * _BLOCK_BYTES, "big")
# The table each of a span's table lanes takes (_span_lanes), as its place
# in _multiples: input row p enters output row r times (2, 3, 1, 1)[(p - r)
# % 4]. Round 1 puts lo (byte 15, row 3) into column 0, lanes 0-3, and hi
# (byte 14, row 2) into column 1, lanes 4-7; round 2's column c reads lo's
# tables from lane -c % 4, a lane's row being its index mod 4
_ROUND1 = itemgetter(*(2 * ((3 - j // 4 - j) % 4) + j // 4 for j in range(8)))
_ROUND2 = itemgetter(*(4 * ((-c - r) % 4) + -c % 4 for c in range(4) for r in range(4)))


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
    # lane j: state byte j (row j % 4, column j // 4) of every block
    return _rounds(rk, [bytes(data[j::_BLOCK_BYTES]) for j in range(_BLOCK_BYTES)],
                   n, 1)


def _rounds(rk: bytes, lanes: list[bytes], n: int, first: int) -> bytes:
    """The n blocks whose state entering round first (1-9) lane j holds,
    through the rest of AES-128 with the key bytes rk."""
    ones = int.from_bytes(b"\x01" * n, "little")
    low7 = 0x7F * ones
    to = int.to_bytes
    for r in range(first, 10):
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
    out = bytearray(_BLOCK_BYTES * n)
    for j, i in enumerate(_SHIFT_ROWS):  # final round: no MixColumns
        out[j::_BLOCK_BYTES] = lanes[i].translate(
            _KEYED_SBOX[rk[9 * _BLOCK_BYTES + i]]).translate(
            _ADD_KEY[rk[10 * _BLOCK_BYTES + j]])
    return bytes(out)


def _mix(state: bytes, key: int = 0) -> bytes:
    """ShiftRows, MixColumns and AddRoundKey of one 16-byte state, xtime
    doubling all of its bytes at once; key is the round key's bytes as a
    big-endian int."""
    a = int.from_bytes(bytes(_SHIFT(state)), "big")
    r1 = a << 8 & _UP | a >> 24 & _WRAP  # row r + 1 of each column in row r
    r2 = r1 << 8 & _UP | r1 >> 24 & _WRAP
    u = a ^ r1
    return ((u & 0x7F * _ONES) << 1 ^ (u >> 7 & _ONES) * 0x1B ^ r1 ^ r2
            ^ (r2 << 8 & _UP | r2 >> 24 & _WRAP)
            ^ key).to_bytes(_BLOCK_BYTES, "big")


def _multiples(tables: list[bytes]) -> tuple[bytes, ...]:
    """Each table times MixColumns' coefficients (2, 3, 1, 1): entry
    k * len(tables) + i is table i times coefficient k."""
    return (*map(bytes.translate, tables, repeat(_TIMES[0])),
            *map(bytes.translate, tables, repeat(_TIMES[1])), *tables, *tables)


def _span_lanes(rk: bytes, start: bytes, m: int) -> list[list[bytes]]:
    """The state after round 2 of the first m <= 65536 blocks of a span,
    lane by lane for each hi: its block i is its first counter block,
    start, with bytes 14 and 15 set to hi = i >> 8 and lo = i & 255."""
    k0, k1 = rk[:_BLOCK_BYTES], int.from_bytes(rk[_BLOCK_BYTES:32], "big")
    # round 1 with bytes 14 and 15 at 0, then round 1's key ...
    a = (int.from_bytes(start, "big") ^ int.from_bytes(k0, "big")).to_bytes(
        _BLOCK_BYTES, "big").translate(_SBOX)
    y = _mix(a[:14] + b"\0\0", k1)
    # ... plus SubBytes of lo and hi as tables over the values the span
    # takes, each times its coefficient in lanes 0-7; then round 2's
    # SubBytes of every lane
    b = list(map(bytes.translate, _ROUND1(_multiples(
        [_KEYED_SBOX[k0[15]][:min(m, 256)], _KEYED_SBOX[k0[14]][:-(-m // 256)]])),
        map(_KEYED_SBOX.__getitem__, y)))
    fixed = y[8:].translate(_SBOX)
    # round 2: lane 4c + r is f[lo] ^ g[hi], f from lo's tables and g from
    # the scalar lanes 4-15 for each hi, lanes 0-3 at 0
    f = _ROUND2(_multiples(b[:4]))
    return [list(map(bytes.translate, f, map(_ADD_KEY.__getitem__, _mix(
        bytes(4) + bytes(h) + fixed)))) for h in zip(*b[4:])]


def check_key(key: bytes) -> None:
    if len(key) != KEY_BYTES:
        raise ValueError(f"key must be {KEY_BYTES} bytes, got {len(key)}")


def keystream(key: bytes, iv: bytes, n_bytes: int) -> bytes:
    """First n_bytes of the AES-128-CTR keystream for (key, iv).

    Consumes exactly ceil(n_bytes/16) block encryptions; trailing bytes of
    the final block are discarded. The key, the request, the iv and the
    48-bit counter range are checked in that order, before any allocation.
    """
    rk = _SCHEDULE.pack(*expand_key(key))  # checks the key
    if n_bytes <= 0:
        raise ValueError("empty keystream request")
    if len(iv) != IV_BYTES:
        raise ValueError(f"iv must be {IV_BYTES} bytes, got {len(iv)}")
    n = -(-n_bytes // _BLOCK_BYTES)
    if n > _MAX_BLOCKS:
        raise ValueError("block index exceeds the 48-bit counter range")
    # span s: blocks 65536s onward, whose counter blocks share bytes 0-13;
    # its runs of 256 blocks that share hi come out one after another
    runs = [run for s in range(-(-n // _SPAN)) for run in _span_lanes(
        rk, bytes(8) + iv + (s * _SPAN).to_bytes(6, "big"), min(_SPAN, n - s * _SPAN))]
    return _rounds(rk, [b"".join(lane)[:n] for lane in zip(*runs)], n, 3)[:n_bytes]
