"""Dual-port 64-bit word memory.

Port A writes and port B reads, each at most once per cycle and in cycle
order, so one read and one write may share a cycle. A write or read not
after its port's last cycle is a simulation fault, and so is a write to a
cycle before the latest cycle already read. A written word becomes visible
to reads from the following cycle onward. Words are held sparsely, so a
deep memory costs nothing until it is written. It only checks and
stores, and keeps no log: `core` builds the trace rows.
"""

from collections import deque

from .errors import AddressError, SimulationFault

DEFAULT_DEPTH = 1024
_WORD_BITS = 64
_WORD_LIMIT = 1 << _WORD_BITS


class MemoryModel:
    def __init__(self, depth: int = DEFAULT_DEPTH):
        if depth <= 0:
            raise ValueError("memory depth must be positive")
        self.depth = depth
        self.words: dict[int, int] = {}  # sparse: a word never written reads 0
        self._pending = deque()  # (cycle, addr, word), in cycle order
        self._write_cycle = float("-inf")  # latest cycle written so far
        self._read_cycle = float("-inf")  # latest cycle read so far

    def _range_error(self, addr: int) -> AddressError:
        return AddressError(f"address {addr} out of range for depth {self.depth}")

    def write(self, addr: int, word: int, cycle: int) -> None:
        if not 0 <= addr < self.depth:
            raise self._range_error(addr)
        if not 0 <= word < _WORD_LIMIT:
            raise ValueError(
                f"word {word:#x} does not fit in {_WORD_BITS} bits")
        if cycle < self._read_cycle:
            raise SimulationFault(f"write to cycle {cycle} after cycle "
                                  f"{self._read_cycle} was read")
        if cycle <= self._write_cycle:
            raise SimulationFault(f"port A: write to cycle {cycle} after a "
                                  f"write to cycle {self._write_cycle}")
        self._write_cycle = cycle
        self._pending.append((cycle, addr, word))

    def read(self, addr: int, cycle: int) -> int:
        if not 0 <= addr < self.depth:
            raise self._range_error(addr)
        if cycle <= self._read_cycle:
            raise SimulationFault(f"port B: read in cycle {cycle} after a "
                                  f"read in cycle {self._read_cycle}")
        self._read_cycle = cycle
        while self._pending and self._pending[0][0] < cycle:  # in cycle order
            _, a, w = self._pending.popleft()
            self.words[a] = w
        return self.words.get(addr, 0)
