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
from dataclasses import dataclass

from . import aesprg
from .params import BYTES_PER_WORD, ParameterSet, is_mersenne

_BYTES = bytes(range(256))


@dataclass(frozen=True)
class FieldVector:
    """Validated vector over F_q: every element in [0, modulus)."""
    elems: tuple
    modulus: int

    def __post_init__(self):
        object.__setattr__(self, "elems", tuple(self.elems))
        elems, m = self.elems, self.modulus
        try:  # elements that are all ints in 0..255: drop each below m
            bad = len(bytes(elems).translate(None, _BYTES[:max(m, 0)]))
        except (ValueError, TypeError):  # a float, or a value beyond a byte
            bad = sum(1 for e in elems if not 0 <= e < m)
        if bad:
            raise ValueError(f"{bad} element(s) outside [0, {m})")

    def __len__(self):
        return len(self.elems)

    def to_bytes(self) -> bytes:
        """One byte per element, in order."""
        return bytes(self.elems)

    def to_packed_bytes(self) -> bytes:
        """Packed binary artifact: the elements zero-padded to whole 64-bit
        words, which is the packed words (element 0 in the MSB of word 0)
        serialized big-endian."""
        data = self.to_bytes()
        return data + bytes(-len(data) % BYTES_PER_WORD)

    def to_csv(self) -> str:
        """Decimal CSV for inspection, one element per line."""
        return "\n".join(str(e) for e in self.elems) + "\n"


@functools.lru_cache(maxsize=8)  # one per Mersenne q below 256
def _mask_table(q: int) -> bytes:
    """Translation table: each byte AND q.

    Only sound for Mersenne q, where AND with q keeps the low log2(q+1)
    bits; anything else would need a real modular reduction.
    """
    if not is_mersenne(q):
        raise ValueError(f"unsupported modulus {q}: masking requires Mersenne q")
    return bytes(b & q for b in _BYTES)


def mask_bytes(raw: bytes, q: int) -> list[int]:
    """Mask every byte into [0, q] with a bitwise AND (Mersenne q only)."""
    return list(raw.translate(_mask_table(q)))


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
    return FieldVector(tuple(_sample(raw, n_prime, q)), q)


def rej_samp_prg(seed: bytes, iv: bytes, p: ParameterSet) -> FieldVector:
    """Expand (seed, iv) with AES-CTR and rejection-sample the stream."""
    raw = aesprg.keystream(seed, iv, p.tau)
    return rej_samp(raw, p.tau, p.n_prime, p.q)


@dataclass(frozen=True)
class RejectionStats:
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
