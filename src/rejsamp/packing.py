"""64-bit word packing shared by the memory model and binary artifacts.

Convention (applied identically everywhere): stream byte 0 occupies the
most significant byte of word 0, so serializing words big-endian yields
the original byte stream zero-padded to a multiple of 8.
"""

from .params import BYTES_PER_WORD


def words_from_bytes(data: bytes) -> list[int]:
    """Pack a byte stream into 64-bit words; the last word is zero-padded."""
    words = []
    for i in range(0, len(data), BYTES_PER_WORD):
        chunk = data[i:i + BYTES_PER_WORD]
        words.append(int.from_bytes(chunk.ljust(BYTES_PER_WORD, b"\x00"), "big"))
    return words


def bytes_from_words(words, n_bytes: int) -> bytes:
    """Recover the first n_bytes of the stream held in packed words."""
    out = b"".join(w.to_bytes(BYTES_PER_WORD, "big") for w in words)
    if n_bytes > len(out):
        raise ValueError(f"{len(words)} words hold {len(out)} bytes, need {n_bytes}")
    return out[:n_bytes]
