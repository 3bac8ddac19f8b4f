"""Cycle-level simulator of the sampling coprocessor."""

from .core import CycleReport, ProgramResult, TimingConfig, run_program
from .errors import (CapacityError, HwSimError, InvalidInstructionError,
                     ProgramError, SimulationFault, UnsupportedLevelError)
from .isa import (Instruction, Opcode, assemble, decode, default_program,
                  encode, format_program, parse_program)
from .memory import MemoryModel

__all__ = [
    "CycleReport", "ProgramResult", "TimingConfig", "run_program",
    "CapacityError", "HwSimError", "InvalidInstructionError",
    "ProgramError", "SimulationFault", "UnsupportedLevelError",
    "Instruction", "Opcode", "assemble", "decode", "default_program",
    "encode", "format_program", "parse_program",
    "MemoryModel",
]
