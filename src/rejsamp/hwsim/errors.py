"""Simulator error types, kept distinct so the CLI can map exit codes."""


class HwSimError(Exception):
    """Base for all simulator errors."""


class InvalidInstructionError(HwSimError, ValueError):
    """Instruction word outside the encoding (unknown opcode, overwide word)."""


class ProgramError(HwSimError, ValueError):
    """Instruction sequence is not an accepted program shape, or breaks a
    LOAD_SEED, wen or READ_RESULT raddr rule."""


class UnsupportedLevelError(HwSimError, ValueError):
    """Security-level field value with no modeled parameter set."""


class AddressError(HwSimError, IndexError):
    """Memory access outside the configured depth."""


class CapacityError(HwSimError, RuntimeError):
    """Memory too small for the selected parameter set."""


class SimulationFault(HwSimError, RuntimeError):
    """Memory access that breaks a port rule or the in-place memory map."""
