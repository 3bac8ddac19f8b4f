"""Independent oracles the production code is tested against.

Everything here is written from the underlying definitions on purpose and
must stay decoupled from the package: a literal 1-based transcription of
the rejection-sampling pseudocode, a self-contained AES-128 with both
cipher directions for round-trip checks, closed-form cycle counts, a
program-file writer and a scoreboard that replays a run's trace.
"""

import collections
import functools


def rej_samp_naive(raw, tau, n_prime, q):
    """Line-by-line 1-based transcription of the rejection sampler.

    v[0] is an unused sentinel so indices match the pseudocode exactly.
    """
    assert len(raw) == tau and tau >= n_prime >= 1
    v = [None] + [b & q for b in raw]          # lines 1-2: mask all tau bytes
    k = n_prime + 1                            # line 3
    while k < tau + 1 and v[k] == q:           # lines 4-5
        k = k + 1
    for j in range(1, n_prime + 1):            # lines 6-14
        if v[j] == q:
            if k < tau + 1:
                v[j] = v[k]
                k = k + 1
                while k < tau + 1 and v[k] == q:
                    k = k + 1
            else:
                v[j] = 0
    return v[1:n_prime + 1]


# ---------------------------------------------------------------------------
# Independent AES-128 (encrypt + decrypt), table-driven.

_SBOX = bytes.fromhex(
    "637c777bf26b6fc53001672bfed7ab76ca82c97dfa5947f0add4a2af9ca472c0"
    "b7fd9326363ff7cc34a5e5f171d8311504c723c31896059a071280e2eb27b275"
    "09832c1a1b6e5aa0523bd6b329e32f8453d100ed20fcb15b6acbbe394a4c58cf"
    "d0efaafb434d338545f9027f503c9fa851a3408f929d38f5bcb6da2110fff3d2"
    "cd0c13ec5f974417c4a77e3d645d197360814fdc222a908846eeb814de5e0bdb"
    "e0323a0a4906245cc2d3ac629195e479e7c8376d8dd54ea96c56f4ea657aae08"
    "ba78252e1ca6b4c6e8dd741f4bbd8b8a703eb5664803f60e613557b986c11d9e"
    "e1f8981169d98e949b1e87e9ce5528df8ca1890dbfe6426841992d0fb054bb16"
)
_INV_SBOX = bytearray(256)
for _i, _s in enumerate(_SBOX):
    _INV_SBOX[_s] = _i
_INV_SBOX = bytes(_INV_SBOX)

_RCON = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36]


def _gmul(a, b):
    p = 0
    for _ in range(8):
        if b & 1:
            p ^= a
        hi = a & 0x80
        a = (a << 1) & 0xFF
        if hi:
            a ^= 0x1B
        b >>= 1
    return p


def _key_schedule(key):
    w = [list(key[4 * i:4 * i + 4]) for i in range(4)]
    for i in range(4, 44):
        t = list(w[i - 1])
        if i % 4 == 0:
            t = t[1:] + t[:1]
            t = [_SBOX[x] for x in t]
            t[0] ^= _RCON[i // 4 - 1]
        w.append([a ^ b for a, b in zip(w[i - 4], t)])
    return [sum((w[4 * r + c] for c in range(4)), []) for r in range(11)]


def _add_round_key(state, rk):
    return [s ^ k for s, k in zip(state, rk)]


def _shift_rows(state, inv=False):
    out = [0] * 16
    for c in range(4):
        for r in range(4):
            src = (c + r) % 4 if not inv else (c - r) % 4
            out[4 * c + r] = state[4 * src + r]
    return out


def _mix_single(col, mat):
    return [
        _gmul(mat[0], col[0]) ^ _gmul(mat[1], col[1]) ^ _gmul(mat[2], col[2]) ^ _gmul(mat[3], col[3]),
        _gmul(mat[3], col[0]) ^ _gmul(mat[0], col[1]) ^ _gmul(mat[1], col[2]) ^ _gmul(mat[2], col[3]),
        _gmul(mat[2], col[0]) ^ _gmul(mat[3], col[1]) ^ _gmul(mat[0], col[2]) ^ _gmul(mat[1], col[3]),
        _gmul(mat[1], col[0]) ^ _gmul(mat[2], col[1]) ^ _gmul(mat[3], col[2]) ^ _gmul(mat[0], col[3]),
    ]


def _mix_columns(state, inv=False):
    mat = [14, 11, 13, 9] if inv else [2, 3, 1, 1]
    out = []
    for c in range(4):
        out += _mix_single(state[4 * c:4 * c + 4], mat)
    return out


def aes128_encrypt_oracle(key, block):
    rks = _key_schedule(key)
    s = _add_round_key(list(block), rks[0])
    for rnd in range(1, 10):
        s = [_SBOX[b] for b in s]
        s = _shift_rows(s)
        s = _mix_columns(s)
        s = _add_round_key(s, rks[rnd])
    s = [_SBOX[b] for b in s]
    s = _shift_rows(s)
    s = _add_round_key(s, rks[10])
    return bytes(s)


def aes128_decrypt_oracle(key, block):
    rks = _key_schedule(key)
    s = _add_round_key(list(block), rks[10])
    s = _shift_rows(s, inv=True)
    s = [_INV_SBOX[b] for b in s]
    for rnd in range(9, 0, -1):
        s = _add_round_key(s, rks[rnd])
        s = _mix_columns(s, inv=True)
        s = _shift_rows(s, inv=True)
        s = [_INV_SBOX[b] for b in s]
    s = _add_round_key(s, rks[0])
    return bytes(s)


# the scoreboard replays many runs of one (seed, iv): encrypt each counter
# block once
_ctr_block_oracle = functools.lru_cache(maxsize=2048)(aes128_encrypt_oracle)


def keystream_oracle(key, iv, n_bytes, nonce=b"\x00" * 8):
    """CTR keystream: nonce || iv || 6-byte big-endian block index."""
    out = bytearray()
    idx = 0
    while len(out) < n_bytes:
        out += _ctr_block_oracle(key, nonce + iv + idx.to_bytes(6, "big"))
        idx += 1
    return bytes(out[:n_bytes])


# ---------------------------------------------------------------------------
# Closed-form cycle counts of the two timed units, written from the timing
# model's definition: AES latency 21, a 2-cycle block overhead, and the
# setups 57 and 77 that make SL-I 4632 + 3893 = 8525.


def wrapper_cycles_oracle(tau):
    """setup + blocks * (latency + 2 + overhead), blocks = ceil(tau/16): the
    two cipher-output words drain through the one write port in 2 cycles."""
    blocks = -(-tau // 16)
    return 57 + blocks * (21 + 2 + 2)


def rejsamp_cycles_oracle(tau, n_prime):
    """setup + 3 cycles per 16-byte group + tau collects + ceil(n'/8) writes."""
    blocks = -(-tau // 16)
    return 77 + 3 * blocks + tau + -(-n_prime // 8)


# ---------------------------------------------------------------------------
# The rule that fixes tau, from the sampler's definition.  The output is
# zero-filled exactly when the R stream bytes that mask to q outnumber the
# tau - n' spare bytes, and for a Mersenne q a byte masks to q with
# probability 1/(q+1), so R ~ Bin(tau, 1/(q+1)); 1/128 for q = 127.


def zero_fill_weight(tau, n_prime, q=127):
    """(q+1)^tau * P[R > tau - n'] in exact integers: the sum over r of
    C(tau, r) * q^(tau - r).  The lower tail r <= tau - n' is summed
    with the term ratio t(r+1) = t(r) * (tau - r) / ((r + 1) * q), which
    divides exactly, and taken from the whole (q+1)^tau."""
    term, lower = q ** tau, 0
    for r in range(tau - n_prime + 1):
        lower += term
        term = term * (tau - r) // ((r + 1) * q)
    return (q + 1) ** tau - lower


# ---------------------------------------------------------------------------
# Program files, from the format's definition: one instruction word per
# line as 7 hex digits.


def format_program(words):
    return "".join(f"{w:07x}\n" for w in words)


# ---------------------------------------------------------------------------
# A scoreboard for a run's trace: the (cycle, unit, event, addr, data) rows
# of ProgramResult.trace_rows(), replayed against the dual-port memory's
# rules and the oracles above.  The wrapper writes the keystream from word
# 0, the rejsamp unit reads it back, and the host drains the output from
# word 0.  The only cycle cost the shape checks name is a 16-byte group's
# fixed 3 + 16 cycles.


def _unpacked(accesses):
    """The data of (cycle, addr, data) word accesses to addresses 0, 1, ...
    in order, as big-endian bytes."""
    assert [a for _, a, _ in accesses] == list(range(len(accesses))), \
        "accesses do not cover words 0, 1, ... in order"
    return b"".join(d.to_bytes(8, "big") for _, _, d in accesses)


def _steps(cycles):
    """The set of gaps between consecutive cycles."""
    return {b - a for a, b in zip(cycles, cycles[1:])}


def _pairs_adjacent(cycles):
    """Whether words 2i and 2i + 1 fall on consecutive cycles."""
    return all(b == a + 1 for a, b in zip(cycles[::2], cycles[1::2]))


def replay_trace(rows, seed, iv, tau, n_prime, q):
    """Raise AssertionError unless the rows come in cycle order, each port
    takes at most one access per cycle, every read returns the latest write
    to its address at an earlier cycle (or 0), the wrapper's writes and the
    rejsamp unit's reads both hold the keystream, and the host drains the
    sampled vector, each zero-padded to whole 64-bit words.

    Then check the schedule's shape: a block's two writes and a group's two
    refill reads fall on consecutive cycles, blocks issue evenly spaced and
    one constant latency before their first write, groups start 3 + 16
    cycles apart, the host drains on consecutive cycles, and the done row
    shares the cycle of the sampler's last write."""
    stream = keystream_oracle(seed, iv, tau)
    last = {}  # addr -> (cycle, data, the data before it) of its last write
    port_cycle = {"read": -1, "write": -1}
    # (unit, event) -> its (cycle, addr, data) rows
    rows_of = collections.defaultdict(list)
    now = -1
    for cycle, unit, event, addr, data in rows:
        assert cycle >= now, f"row at cycle {cycle} after cycle {now}"
        now = cycle
        rows_of[unit, event].append((cycle, addr, data))
        if event not in port_cycle:
            continue  # issue and done rows touch no port
        assert cycle > port_cycle[event], \
            f"second {event} in cycle {cycle} or out of cycle order"
        port_cycle[event] = cycle
        w_cycle, w_data, before = last.get(addr, (-1, 0, 0))
        visible = w_data if w_cycle < cycle else before
        if event == "write":
            last[addr] = (cycle, data, visible)
        else:
            assert data == visible, (f"read of word {addr} in cycle {cycle} "
                                     f"returned {data:#x}, not {visible:#x}")
    padded = stream + bytes(-tau % 8)
    assert _unpacked(rows_of["wrapper", "write"]) == padded, \
        "wrapper wrote another stream"
    assert _unpacked(rows_of["rejsamp", "read"]) == padded, \
        "rejsamp read another stream"
    out = bytes(rej_samp_naive(stream, tau, n_prime, q)) + bytes(-n_prime % 8)
    assert _unpacked(rows_of["host", "read"]) == out, \
        "host drained another vector"

    def cycles(unit, event):
        return [c for c, _, _ in rows_of[unit, event]]

    writes, issues = cycles("wrapper", "write"), cycles("wrapper", "issue")
    refills, drain = cycles("rejsamp", "read"), cycles("host", "read")
    blocks = -(-tau // 16)
    assert [a for _, a, _ in rows_of["wrapper", "issue"]] == \
        list(range(blocks)), "issue rows do not name blocks 0, 1, ... in order"
    assert _pairs_adjacent(writes), \
        "a block's two keystream writes are not on consecutive cycles"
    assert len(_steps(issues)) <= 1, "issue rows are not evenly spaced"
    assert len({w - i for i, w in zip(issues, writes[::2])}) == 1, \
        "issue rows are not one constant latency before their first write"
    assert _pairs_adjacent(refills), \
        "a refill group's reads are not on consecutive cycles"
    assert _steps(refills[::2]) <= {3 + 16}, \
        "refill groups do not start 3 + 16 cycles apart"
    assert _steps(drain) <= {1}, "host drain reads are not on consecutive cycles"
    assert cycles("rejsamp", "done") == cycles("rejsamp", "write")[-1:], \
        "the done row is not in the cycle of the sampler's last write"
