"""Known-answer-test files for the keystream and the sampled vectors.

Line formats (whitespace-separated key=value fields, '#' comments allowed):

    key=<32 hex> iv=<4 hex> n=<dec> out=<2n hex>        keystream bytes
    key=<32 hex> iv=<4 hex> level=<1|3|5> out=<2n' hex> sampled vector,
                                                        one byte per element

Lines end at any str.splitlines() boundary, and fields are separated by
any run of Unicode whitespace (str.split()). The presence of n= versus
level= selects the record kind. Numbers are ASCII decimal digits, and out
must hold n (or n') bytes. Verification recomputes every record and reports
the first mismatching line. It expands each (key, iv) keystream once, to
the longest length the records of that pair need, and recomputes each of
those records from a prefix of it.
"""

from typing import NamedTuple

from . import aesprg
from .params import (_LEVEL_CHOICES, LEVEL_NUMBERS, ParameterSet,
                     builtin_params, level_from_number)
from .sampler import rej_samp


class KatError(ValueError):
    """Malformed KAT file; carries the offending line and column."""

    def __init__(self, line: int, col: int, message: str):
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col


class KatRecord(NamedTuple):
    lineno: int
    key: bytes
    iv: bytes
    out: bytes
    n: int    # keystream bytes the record is recomputed from
    params: ParameterSet | None = None  # set on a field-vector record


def _hex_field(fields: dict, cols: dict, name: str, n_bytes: int | None,
               line: int) -> bytes:
    """Field name's bytes; it must hold 2*n_bytes hex digits if given."""
    value, col = fields[name], cols[name]
    if n_bytes is not None and len(value) != 2 * n_bytes:
        raise KatError(line, col, f"{name} must be {2 * n_bytes} hex digits")
    try:
        return bytes.fromhex(value)
    except ValueError:
        raise KatError(line, col, f"{name} is not valid hex") from None


def _decimal(value: str, limit: int) -> int:
    """value's number, or limit + 1 when it has more digits than limit:
    int() refuses more than sys.get_int_max_str_digits() digits, leading
    zeros included."""
    # int(_, 10) alone also takes a sign, '_' and non-ASCII digits
    if not (value.isascii() and value.isdigit()):
        raise ValueError(f"{value!r} is not ASCII decimal")
    digits = value.lstrip("0") or "0"
    return int(digits) if len(digits) <= len(str(limit)) else limit + 1


def parse_kat(text: str) -> list[KatRecord]:
    records = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0]
        if not body.strip():
            continue
        fields = {}
        cols = {}
        start = 0
        for tok in body.split():
            # only whitespace comes before tok: its first character finds it
            start = body.find(tok[0], start)
            col = start + 1
            start += len(tok)
            if "=" not in tok:
                raise KatError(lineno, col, f"expected key=value, got "
                                            f"{tok!r}")
            name, value = tok.split("=", 1)
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
        key = _hex_field(fields, cols, "key", aesprg.KEY_BYTES, lineno)
        iv = _hex_field(fields, cols, "iv", aesprg.IV_BYTES, lineno)
        out = _hex_field(fields, cols, "out", None, lineno)
        if "n" in fields:
            try:
                n = _decimal(fields["n"], len(out))
            except ValueError:
                raise KatError(lineno, cols["n"], "n is not a decimal "
                                                  "integer") from None
            if n <= 0:
                raise KatError(lineno, cols["n"], "n must be positive")
            p, out_len, rule = None, n, f"n={fields['n']}"
        else:
            try:
                p = builtin_params(level_from_number(
                    _decimal(fields["level"], LEVEL_NUMBERS[-1])))
            except ValueError:
                raise KatError(lineno, cols["level"], "level must be "
                               f"{_LEVEL_CHOICES}") from None
            n, out_len = p.tau, p.n_prime
            rule = f"level={fields['level']} needs n'={out_len}"
        if len(out) != out_len:
            raise KatError(lineno, cols["out"],
                           f"out has {len(out)} bytes, {rule}")
        records.append(KatRecord(lineno, key, iv, out, n, p))
    return records


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
        need[group] = max(need.get(group, 0), rec.n)
        last[group] = i
    streams: dict[tuple[bytes, bytes], bytes] = {}
    for i, rec in enumerate(records):
        group = (rec.key, rec.iv)
        if group not in streams:
            streams[group] = aesprg.keystream(rec.key, rec.iv, need[group])
        ks = streams[group] if last[group] > i else streams.pop(group)
        p, got = rec.params, ks[:rec.n]
        if p is not None:
            got = rej_samp(got, p.tau, p.n_prime, p.q).elems
        if got != rec.out:
            kind = "keystream" if p is None else "field vector"
            return rec.lineno, (f"{kind} mismatch at line {rec.lineno}: "
                                f"expected {rec.out[:16].hex()}..., "
                                f"recomputed {got[:16].hex()}...")
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
        case_iv = ((iv0 + i) % (1 << 8 * aesprg.IV_BYTES)).to_bytes(
            aesprg.IV_BYTES, "big")
        ks = aesprg.keystream(key, case_iv, p.tau)
        fv = rej_samp(ks, p.tau, p.n_prime, p.q)
        lines.append(f"key={key.hex()} iv={case_iv.hex()} n={p.tau} "
                     f"out={ks.hex()}")
        lines.append(f"key={key.hex()} iv={case_iv.hex()} level={level} "
                     f"out={fv.elems.hex()}")
    return "\n".join(lines) + "\n"
