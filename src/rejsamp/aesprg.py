"""AES-128 block cipher and the CTR keystream used as the sampler's PRG.

The cipher is functional only: it is built from the four named round
transformations and has no notion of cycles. The hwsim wrapper calls
expand_key and encrypt_block_expanded once per block and adds the timing
around them. No hardcoded lookup tables: the S-box, xtime table and round
constants are derived from the field arithmetic at import.

Counter block layout (16 bytes): 8-byte fixed nonce, then a 64-bit counter
formed as 2-byte iv followed by a 6-byte big-endian running block index.
The nonce defaults to zero and both nonce and iv are parameters, which is
the compatibility point if another layout convention is ever needed.
"""

KEY_BYTES = 16
IV_BYTES = 2
BLOCK_BYTES = 16
NONCE_BYTES = 8
DEFAULT_NONCE = b"\x00" * NONCE_BYTES

_BLOCK_INDEX_BYTES = 6
_MAX_BLOCKS = 1 << (8 * _BLOCK_INDEX_BYTES)


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
    return xtime, sbox, rcon


_XTIME, SBOX, _RCON = _build_tables()

# out[i] = state[_SHIFT[i]] with the state held column-major (index r + 4c)
_SHIFT = tuple((i % 4) + 4 * ((i // 4 + i % 4) % 4) for i in range(16))


def sub_bytes(state):
    sb = SBOX
    return [sb[b] for b in state]


def shift_rows(state):
    return [state[i] for i in _SHIFT]


def mix_columns(state):
    xt = _XTIME
    out = []
    for c in (0, 4, 8, 12):
        a0, a1, a2, a3 = state[c], state[c + 1], state[c + 2], state[c + 3]
        t = a0 ^ a1 ^ a2 ^ a3
        out += (
            a0 ^ t ^ xt[a0 ^ a1],
            a1 ^ t ^ xt[a1 ^ a2],
            a2 ^ t ^ xt[a2 ^ a3],
            a3 ^ t ^ xt[a3 ^ a0],
        )
    return out


def add_round_key(state, round_key):
    return [a ^ b for a, b in zip(state, round_key)]


def expand_key(key: bytes) -> list[list[int]]:
    """AES-128 key schedule: 11 round keys of 16 bytes each."""
    check_key(key)
    w = [list(key[4 * i:4 * i + 4]) for i in range(4)]
    for i in range(4, 44):
        t = w[i - 1]
        if i % 4 == 0:
            t = [SBOX[t[1]] ^ _RCON[i // 4 - 1], SBOX[t[2]], SBOX[t[3]], SBOX[t[0]]]
        w.append([a ^ b for a, b in zip(w[i - 4], t)])
    return [w[4 * r] + w[4 * r + 1] + w[4 * r + 2] + w[4 * r + 3] for r in range(11)]


def encrypt_block_expanded(round_keys: list[list[int]], block: bytes) -> bytes:
    """One AES-128 encryption with a precomputed key schedule."""
    s = add_round_key(block, round_keys[0])
    for rnd in range(1, 10):
        s = add_round_key(mix_columns(shift_rows(sub_bytes(s))), round_keys[rnd])
    s = add_round_key(shift_rows(sub_bytes(s)), round_keys[10])
    return bytes(s)


def aes128_encrypt_block(key: bytes, block: bytes) -> bytes:
    """AES-128 ciphertext of one 16-byte block. Deterministic, unkeyed state."""
    if len(block) != BLOCK_BYTES:
        raise ValueError(f"block must be {BLOCK_BYTES} bytes, got {len(block)}")
    return encrypt_block_expanded(expand_key(key), block)


def check_key(key: bytes) -> bytes:
    if len(key) != KEY_BYTES:
        raise ValueError(f"key must be {KEY_BYTES} bytes, got {len(key)}")
    return key


def check_iv(iv: bytes) -> bytes:
    if len(iv) != IV_BYTES:
        raise ValueError(f"iv must be {IV_BYTES} bytes, got {len(iv)}")
    return iv


def ctr_block(nonce: bytes, iv: bytes, index: int) -> bytes:
    """Counter block for one keystream position: nonce || iv || index."""
    if len(nonce) != NONCE_BYTES:
        raise ValueError(f"nonce must be {NONCE_BYTES} bytes, got {len(nonce)}")
    check_iv(iv)
    if not 0 <= index < _MAX_BLOCKS:
        raise ValueError("block index exceeds the 48-bit counter range")
    return nonce + iv + index.to_bytes(_BLOCK_INDEX_BYTES, "big")


def keystream(key: bytes, iv: bytes, n_bytes: int, nonce: bytes = DEFAULT_NONCE) -> bytes:
    """First n_bytes of the AES-128-CTR keystream for (key, iv).

    Consumes exactly ceil(n_bytes/16) block encryptions; trailing bytes of
    the final block are discarded.
    """
    check_key(key)
    check_iv(iv)
    if n_bytes <= 0:
        raise ValueError("empty keystream request")
    rks = expand_key(key)
    out = bytearray()
    for index in range(-(-n_bytes // BLOCK_BYTES)):
        out += encrypt_block_expanded(rks, ctr_block(nonce, iv, index))
    return bytes(out[:n_bytes])
