"""26-bit instruction word: encoding, decoding and program files.

Field layout, decoded LSB first (bit 0 is the least significant bit):

    bits  1:0   sec_level  2-bit security-level selector, in SecurityLevel
                           order (0=SL1, 1=SL3, 2=SL5); 3 is reserved,
                           rejected at execution, not decode
    bits 11:2   raddr      10-bit read address; READ_RESULT requires 0 (the
                           result is drained from word 0)
    bits 21:12  waddr      10-bit write address (seed preload target)
    bit  22     wen        write enable for seed preloads
    bits 25:23  op         3-bit opcode

Opcodes: 0 NOP, 1 LOAD_SEED, 2 RUN_PRG, 3 RUN_REJSAMP, 4 RUN_FULL,
5 READ_RESULT; 6 and 7 do not decode.

Program files hold one instruction per line as a word of at most 7 hex
digits (the 26 bits zero-extended to 28); blank lines and '#' comments are
ignored.
"""

from enum import IntEnum
from typing import NamedTuple

from ..params import SecurityLevel
from .errors import InvalidInstructionError, UnsupportedLevelError

_LEVELS = tuple(SecurityLevel)  # a level's code is its place here

_INSTRUCTION_BITS = 26
_ADDR_BITS = 10
_HEX_DIGITS = frozenset("0123456789abcdefABCDEF")


class Opcode(IntEnum):
    NOP = 0
    LOAD_SEED = 1
    RUN_PRG = 2
    RUN_REJSAMP = 3
    RUN_FULL = 4
    READ_RESULT = 5


class _InstructionFields(NamedTuple):
    sec_level: int  # raw 2-bit field; 3 is reserved
    raddr: int
    waddr: int
    wen: int
    op: Opcode


class Instruction(_InstructionFields):
    """One decoded instruction word; each field is checked against its
    width."""
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not 0 <= self.sec_level < 4:
            raise InvalidInstructionError("sec_level field is 2 bits")
        if not 0 <= self.raddr < (1 << _ADDR_BITS):
            raise InvalidInstructionError("raddr field is 10 bits")
        if not 0 <= self.waddr < (1 << _ADDR_BITS):
            raise InvalidInstructionError("waddr field is 10 bits")
        if self.wen not in (0, 1):
            raise InvalidInstructionError("wen field is 1 bit")
        return self

    def security_level(self) -> SecurityLevel:
        if self.sec_level >= len(_LEVELS):
            raise UnsupportedLevelError(
                f"sec_level field {self.sec_level} is reserved")
        return _LEVELS[self.sec_level]


def encode(ins: Instruction) -> int:
    return (ins.sec_level
            | ins.raddr << 2
            | ins.waddr << 12
            | ins.wen << 22
            | int(ins.op) << 23)


def decode(word: int) -> Instruction:
    if not 0 <= word < (1 << _INSTRUCTION_BITS):
        raise InvalidInstructionError(f"word {word:#x} does not fit in 26 bits")
    opval = word >> 23 & 0b111
    try:
        op = Opcode(opval)
    except ValueError:
        raise InvalidInstructionError(f"unknown opcode {opval}") from None
    return Instruction(
        sec_level=word & 0b11,
        raddr=word >> 2 & 0x3FF,
        waddr=word >> 12 & 0x3FF,
        wen=word >> 22 & 1,
        op=op,
    )


def assemble(op: Opcode, level: SecurityLevel, raddr: int = 0,
             waddr: int = 0, wen: int = 0) -> int:
    code = _LEVELS.index(level)
    return encode(Instruction(code, raddr, waddr, wen, op))


def default_program(level: SecurityLevel) -> list[int]:
    """Seed preload at words 0-1, one full run, result drain from word 0."""
    return [
        assemble(Opcode.LOAD_SEED, level, waddr=0, wen=1),
        assemble(Opcode.LOAD_SEED, level, waddr=1, wen=1),
        assemble(Opcode.RUN_FULL, level),
        assemble(Opcode.READ_RESULT, level, raddr=0),
    ]


def parse_program(text: str) -> list[int]:
    words = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        # hex digits only: int(_, 16) alone also takes a sign, '_' and '0x'
        if not set(stripped) <= _HEX_DIGITS:
            raise InvalidInstructionError(
                f"line {lineno}: {stripped!r} is not a hex instruction word")
        if len(stripped) > 7:
            raise InvalidInstructionError(
                f"line {lineno}: {stripped!r} has more than 7 hex digits")
        word = int(stripped, 16)
        if word >= 1 << _INSTRUCTION_BITS:
            raise InvalidInstructionError(
                f"line {lineno}: {stripped!r} exceeds 26 bits")
        words.append(word)
    return words
