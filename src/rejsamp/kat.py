"""Known-answer-test files for the keystream and the sampled vectors.

Line formats (whitespace-separated key=value fields, '#' comments allowed):

    key=<32 hex> iv=<4 hex> n=<dec> out=<2n hex>        keystream bytes
    key=<32 hex> iv=<4 hex> level=<1|3|5> out=<hex>     sampled vector,
                                                        one byte per element

The presence of n= versus level= selects the record kind. Verification
recomputes every record and reports the first mismatching line. It expands
each (key, iv) keystream once, to the longest length the records of that
pair need, and recomputes each of those records from a prefix of it.
"""

import re
from dataclasses import dataclass

from . import aesprg
from .params import builtin_params, level_from_number
from .sampler import rej_samp


class KatError(ValueError):
    """Malformed KAT file; carries the offending line and column."""

    def __init__(self, line: int, col: int, message: str):
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col


@dataclass(frozen=True)
class KatRecord:
    lineno: int
    key: bytes
    iv: bytes
    out_hex: str
    n: int | None = None       # keystream record
    level: int | None = None   # field-vector record


def _hex_field(value: str, want_len: int | None, line: int, col: int,
               name: str) -> bytes:
    if want_len is not None and len(value) != want_len:
        raise KatError(line, col, f"{name} must be {want_len} hex digits")
    try:
        return bytes.fromhex(value)
    except ValueError:
        raise KatError(line, col, f"{name} is not valid hex") from None


def parse_kat(text: str) -> list[KatRecord]:
    records = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0]
        if not body.strip():
            continue
        fields = {}
        cols = {}
        for tok in re.finditer(r"\S+", body):
            col = tok.start() + 1
            if "=" not in tok.group():
                raise KatError(lineno, col, f"expected key=value, got "
                                            f"{tok.group()!r}")
            name, value = tok.group().split("=", 1)
            if name in fields:
                raise KatError(lineno, col, f"duplicate field {name!r}")
            fields[name] = value
            cols[name] = col
        unknown = set(fields) - {"key", "iv", "n", "level", "out"}
        if unknown:
            raise KatError(lineno, cols[sorted(unknown)[0]],
                           f"unknown field {sorted(unknown)[0]!r}")
        for required in ("key", "iv", "out"):
            if required not in fields:
                raise KatError(lineno, 1, f"missing field {required!r}")
        if ("n" in fields) == ("level" in fields):
            raise KatError(lineno, 1, "need exactly one of n= or level=")
        key = _hex_field(fields["key"], 32, lineno, cols["key"], "key")
        iv = _hex_field(fields["iv"], 4, lineno, cols["iv"], "iv")
        out_hex = _hex_field(fields["out"], None, lineno, cols["out"],
                             "out").hex()
        if "n" in fields:
            try:
                n = int(fields["n"], 10)
            except ValueError:
                raise KatError(lineno, cols["n"], "n is not a decimal "
                                                  "integer") from None
            if n <= 0:
                raise KatError(lineno, cols["n"], "n must be positive")
            if len(out_hex) != 2 * n:
                raise KatError(lineno, cols["out"],
                               f"out has {len(out_hex) // 2} bytes, n={n}")
            records.append(KatRecord(lineno, key, iv, out_hex, n=n))
        else:
            try:
                level = int(fields["level"], 10)
                level_from_number(level)
            except ValueError:
                raise KatError(lineno, cols["level"],
                               "level must be 1, 3 or 5") from None
            records.append(KatRecord(lineno, key, iv, out_hex, level=level))
    return records


def _stream_bytes(rec: KatRecord) -> int:
    """Keystream bytes the record is recomputed from."""
    if rec.n is not None:
        return rec.n
    return builtin_params(level_from_number(rec.level)).tau


def verify_kat(records: list[KatRecord]) -> tuple[int, str] | None:
    """Recompute every record; returns (lineno, message) for the first
    mismatch, or None when everything matches.

    Each (key, iv) keystream is expanded at its first record, to the
    longest length its records need (a shorter CTR keystream is a prefix
    of it), and dropped after its last record.
    """
    need: dict[tuple[bytes, bytes], int] = {}
    last: dict[tuple[bytes, bytes], int] = {}
    for i, rec in enumerate(records):
        group = (rec.key, rec.iv)
        need[group] = max(need.get(group, 0), _stream_bytes(rec))
        last[group] = i
    streams: dict[tuple[bytes, bytes], bytes] = {}
    for i, rec in enumerate(records):
        group = (rec.key, rec.iv)
        if group not in streams:
            streams[group] = aesprg.keystream(rec.key, rec.iv, need[group])
        ks = streams[group] if last[group] > i else streams.pop(group)
        if rec.n is not None:
            got = ks[:rec.n].hex()
        else:
            p = builtin_params(level_from_number(rec.level))
            got = rej_samp(ks[:p.tau], p.tau, p.n_prime,
                           p.q).to_bytes().hex()
        if got != rec.out_hex:
            kind = "keystream" if rec.n is not None else "field vector"
            return rec.lineno, (f"{kind} mismatch at line {rec.lineno}: "
                                f"expected {rec.out_hex[:32]}..., "
                                f"recomputed {got[:32]}...")
    return None


def generate_kat(key: bytes, iv: bytes, level: int, count: int = 1) -> str:
    """KAT text for `count` cases: the iv steps by one per case (mod 2^16),
    each case contributing one keystream and one field-vector line."""
    if count < 1:
        raise ValueError("count must be at least 1")
    p = builtin_params(level_from_number(level))
    iv0 = int.from_bytes(iv, "big")
    lines = []
    for i in range(count):
        case_iv = ((iv0 + i) % (1 << 16)).to_bytes(2, "big")
        ks = aesprg.keystream(key, case_iv, p.tau)
        fv = rej_samp(ks, p.tau, p.n_prime, p.q)
        lines.append(f"key={key.hex()} iv={case_iv.hex()} n={p.tau} "
                     f"out={ks.hex()}")
        lines.append(f"key={key.hex()} iv={case_iv.hex()} level={level} "
                     f"out={fv.to_bytes().hex()}")
    return "\n".join(lines) + "\n"
