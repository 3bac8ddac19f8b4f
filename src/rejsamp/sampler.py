"""Golden functional model of the rejection sampler.

rej_samp turns a tau-byte pseudorandom string into n_prime field elements
by one rule on bytes, _sample, which the simulator's sampler unit also
runs: one translate masks every byte down to [0, q] with a bitwise AND
(valid only because q is Mersenne), the valid values of the spare tail
(the bytes after the first n_prime) queue up in order, and each of the
first n_prime values equal to q is replaced by the next queued spare, or
by 0 once the spares run out.  rej_samp_prg feeds it from the AES-CTR
keystream.  The line-by-line transcription of the paper's pseudocode is
tests/oracles.py::rej_samp_naive.
"""

import functools
from typing import NamedTuple

from . import aesprg
from .params import BYTES_PER_WORD, ParameterSet, is_mersenne

_BYTES = bytes(range(256))


class FieldVector:
    """Validated vector over F_q: one byte per element, each in
    [0, modulus). Every artifact writes these bytes: bin pads them to whole
    64-bit words, a KAT out= field hexes them, and csv and json give each
    byte's decimal value. Two vectors are equal when their elements and
    moduli are."""
    __slots__ = ("elems", "modulus")

    def __init__(self, elems: bytes, modulus: int):
        self.elems = elems
        self.modulus = modulus
        if not isinstance(self.elems, bytes):
            raise TypeError(f"elems must be bytes, got "
                            f"{type(self.elems).__name__}")
        # drop each byte below the modulus; what is left is out of range
        bad = len(self.elems.translate(None, _BYTES[:max(self.modulus, 0)]))
        if bad:
            raise ValueError(f"{bad} element(s) outside [0, {self.modulus})")

    def __eq__(self, other):
        if not isinstance(other, FieldVector):
            return NotImplemented
        return self.elems == other.elems and self.modulus == other.modulus

    def __len__(self):
        return len(self.elems)

    def to_bytes(self) -> bytes:
        """The field itself; bench/run.py reads the vector by this name."""
        return self.elems

    def to_packed_bytes(self) -> bytes:
        """Packed binary artifact: the elements zero-padded to whole 64-bit
        words, which is the packed words (element 0 in the MSB of word 0)
        serialized big-endian."""
        return self.elems + bytes(-len(self.elems) % BYTES_PER_WORD)

    def to_csv(self) -> str:
        """Decimal CSV for inspection, one element per line."""
        return "\n".join(map(str, self.elems)) + "\n"


@functools.lru_cache(maxsize=8)  # one per Mersenne q below 256
def _mask_table(q: int) -> bytes:
    """Translation table: each byte AND q.

    Only sound for Mersenne q, where AND with q keeps the low log2(q+1)
    bits; anything else would need a real modular reduction.
    """
    if not is_mersenne(q):
        raise ValueError(f"unsupported modulus {q}: masking requires Mersenne q")
    return bytes(b & q for b in _BYTES)


def _check_shape(raw: bytes, tau: int, n_prime: int) -> None:
    """Raise ValueError unless raw holds tau bytes and 1 <= n_prime <= tau."""
    if len(raw) != tau:
        raise ValueError(f"raw has {len(raw)} bytes, expected tau={tau}")
    if not 1 <= n_prime <= tau:
        raise ValueError(f"insufficient input: need 1 <= n_prime <= tau, got "
                         f"n_prime={n_prime}, tau={tau}")


def _sample(raw: bytes, n_prime: int, q: int) -> bytes:
    """The sampling rule: mask raw, then patch each head byte equal to q
    with the tail's next valid spare, or 0 once they run out."""
    masked = raw.translate(_mask_table(q))
    out = bytearray(masked[:n_prime])
    if q > 0xFF:  # a byte never masks to a Mersenne q above 0xFF
        return bytes(out)
    spares = masked[n_prime:].replace(bytes([q]), b"")
    used = 0
    j = out.find(q)
    while j >= 0:
        out[j] = spares[used] if used < len(spares) else 0
        used += 1
        j = out.find(q, j + 1)
    return bytes(out)


def rej_samp(raw: bytes, tau: int, n_prime: int, q: int) -> FieldVector:
    """Rejection-sample n_prime field elements from a tau-byte string."""
    _check_shape(raw, tau, n_prime)
    return FieldVector(_sample(raw, n_prime, q), q)


def rej_samp_prg(seed: bytes, iv: bytes, p: ParameterSet) -> FieldVector:
    """Expand (seed, iv) with AES-CTR and rejection-sample the stream."""
    raw = aesprg.keystream(seed, iv, p.tau)
    return rej_samp(raw, p.tau, p.n_prime, p.q)


class RejectionStats(NamedTuple):
    """Bookkeeping for one sampling run, for reporting only."""
    tau: int
    masked_to_q: int      # bytes that masked to q anywhere in the stream
    replaced: int         # rejected head positions patched from the tail
    zero_filled: int      # rejected head positions left over after the tail

    @property
    def rejection_rate(self) -> float:
        return self.masked_to_q / self.tau


def rejection_stats(raw: bytes, tau: int, n_prime: int, q: int) -> RejectionStats:
    """The counts behind rej_samp(raw, tau, n_prime, q), which checks the
    same arguments."""
    _check_shape(raw, tau, n_prime)
    masked = raw.translate(_mask_table(q))
    head_rejects, tail_rejects = ((masked.count(q, 0, n_prime),
                                   masked.count(q, n_prime))
                                  if q <= 0xFF else (0, 0))  # as in _sample
    replaced = min(head_rejects, tau - n_prime - tail_rejects)  # the spares
    return RejectionStats(tau=tau, masked_to_q=head_rejects + tail_rejects,
                          replaced=replaced, zero_filled=head_rejects - replaced)
