"""64-bit word packing: the one converter between byte streams and words.

Stream byte 0 occupies the most significant byte of word 0, so serializing
words big-endian yields the byte stream zero-padded to a multiple of 8;
`FieldVector.to_packed_bytes` writes that serialization by padding itself.
"""

import struct

from .params import BYTES_PER_WORD


def words_from_bytes(data: bytes) -> list[int]:
    """Pack a byte stream into 64-bit words; the last word is zero-padded."""
    padded = data + bytes(-len(data) % BYTES_PER_WORD)
    return list(struct.unpack(f">{len(padded) // BYTES_PER_WORD}Q", padded))


def bytes_from_words(words, n_bytes: int) -> bytes:
    """Recover the first n_bytes of the stream held in packed words."""
    held = len(words) * BYTES_PER_WORD
    if n_bytes > held:
        raise ValueError(f"{len(words)} words hold {held} bytes, need {n_bytes}")
    return struct.pack(f">{len(words)}Q", *words)[:n_bytes]
