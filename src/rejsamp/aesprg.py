"""AES-128 block cipher and the CTR keystream used as the sampler's PRG.

The cipher is functional only and has no notion of cycles. It is the
32-bit T-table formulation of FIPS-197 (Daemen & Rijmen, The Design of
Rijndael, 4.2). The state is held as 16 bytes; rounds 1..9 compute each
output column as four table lookups XORed with the round-key word, and
ShiftRows is just the choice of state bytes fed to those lookups. The
final round applies the S-box alone. The hwsim wrapper calls expand_key
once per run and encrypt_block_expanded once per block.
No hardcoded lookup tables: the S-box, the T-tables and the round
constants are derived from the field arithmetic at import.

Counter block layout (16 bytes), fixed as in the coprocessor, which can
load only the seed: 8 zero bytes, the 2-byte iv, then the 6-byte
big-endian running block index. ctr_blocks is the one place that builds it.
"""

import struct
from collections.abc import Iterator

KEY_BYTES = 16
IV_BYTES = 2
BLOCK_BYTES = 16

_ZERO_PREFIX = bytes(8)
_BLOCK_INDEX_BYTES = 6
_MAX_BLOCKS = 1 << (8 * _BLOCK_INDEX_BYTES)
_WORDS = struct.Struct(">4I")


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
    # Te0[a]: MixColumns of the column (S[a], 0, 0, 0), i.e. (2s, s, s, 3s);
    # Te1..Te3 are its byte rotations, the images of S[a] in rows 1..3
    te = [[xtime[s] << 24 | s << 16 | s << 8 | xtime[s] ^ s for s in sbox]]
    for _ in range(3):
        te.append([t >> 8 | (t & 0xFF) << 24 for t in te[-1]])
    rcon = [1]
    for _ in range(9):
        rcon.append(xtime[rcon[-1]])
    return sbox, te, rcon


SBOX, _TE, _RCON = _build_tables()


def expand_key(key: bytes) -> list[int]:
    """AES-128 key schedule: the 44 FIPS-197 words w[0..43], big-endian
    32-bit ints; round r uses w[4r:4r+4]."""
    check_key(key)
    w = list(_WORDS.unpack(key))
    for i in range(4, 44):
        t = w[i - 1]
        if i % 4 == 0:
            # SubWord(RotWord(t)) xor Rcon
            t = (SBOX[t >> 16 & 255] << 24 ^ SBOX[t >> 8 & 255] << 16
                 ^ SBOX[t & 255] << 8 ^ SBOX[t >> 24] ^ _RCON[i // 4 - 1] << 24)
        w.append(w[i - 4] ^ t)
    return w


def encrypt_block_expanded(w: list[int], block: bytes) -> bytes:
    """One AES-128 encryption with a precomputed key schedule."""
    te0, te1, te2, te3 = _TE
    a, b, c, d = _WORDS.unpack(block)
    # the state as 16 bytes, s[4c + r] = row r of column c
    (s0, s1, s2, s3, s4, s5, s6, s7, s8, s9, s10, s11, s12, s13, s14,
     s15) = _WORDS.pack(a ^ w[0], b ^ w[1], c ^ w[2], d ^ w[3])
    for r in range(4, 40, 4):
        (s0, s1, s2, s3, s4, s5, s6, s7, s8, s9, s10, s11, s12, s13, s14,
         s15) = _WORDS.pack(
            te0[s0] ^ te1[s5] ^ te2[s10] ^ te3[s15] ^ w[r],
            te0[s4] ^ te1[s9] ^ te2[s14] ^ te3[s3] ^ w[r + 1],
            te0[s8] ^ te1[s13] ^ te2[s2] ^ te3[s7] ^ w[r + 2],
            te0[s12] ^ te1[s1] ^ te2[s6] ^ te3[s11] ^ w[r + 3])
    sb = SBOX
    # final round: S-box and ShiftRows only; the bytes are disjoint
    return _WORDS.pack(
        sb[s0] << 24 ^ sb[s5] << 16 ^ sb[s10] << 8 ^ sb[s15] ^ w[40],
        sb[s4] << 24 ^ sb[s9] << 16 ^ sb[s14] << 8 ^ sb[s3] ^ w[41],
        sb[s8] << 24 ^ sb[s13] << 16 ^ sb[s2] << 8 ^ sb[s7] ^ w[42],
        sb[s12] << 24 ^ sb[s1] << 16 ^ sb[s6] << 8 ^ sb[s11] ^ w[43])


def aes128_encrypt_block(key: bytes, block: bytes) -> bytes:
    """AES-128 ciphertext of one 16-byte block. Deterministic, unkeyed state."""
    if len(block) != BLOCK_BYTES:
        raise ValueError(f"block must be {BLOCK_BYTES} bytes, got {len(block)}")
    return encrypt_block_expanded(expand_key(key), block)


def check_key(key: bytes) -> bytes:
    if len(key) != KEY_BYTES:
        raise ValueError(f"key must be {KEY_BYTES} bytes, got {len(key)}")
    return key


def ctr_blocks(iv: bytes, count: int) -> Iterator[bytes]:
    """Counter blocks 0..count-1 for iv; the iv and the last index are
    checked once, before the first block."""
    if len(iv) != IV_BYTES:
        raise ValueError(f"iv must be {IV_BYTES} bytes, got {len(iv)}")
    if count > _MAX_BLOCKS:
        raise ValueError("block index exceeds the 48-bit counter range")
    prefix = _ZERO_PREFIX + iv
    for index in range(count):
        yield prefix + index.to_bytes(_BLOCK_INDEX_BYTES, "big")


def keystream(key: bytes, iv: bytes, n_bytes: int) -> bytes:
    """First n_bytes of the AES-128-CTR keystream for (key, iv).

    Consumes exactly ceil(n_bytes/16) block encryptions; trailing bytes of
    the final block are discarded.
    """
    check_key(key)
    if n_bytes <= 0:
        raise ValueError("empty keystream request")
    w = expand_key(key)
    out = bytearray()
    for block in ctr_blocks(iv, -(-n_bytes // BLOCK_BYTES)):
        out += encrypt_block_expanded(w, block)
    return bytes(out[:n_bytes])
