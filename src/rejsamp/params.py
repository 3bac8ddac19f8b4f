"""QR-UOV sampling parameters and derived size quantities.

Every other module pulls its symbols from here: the field modulus q, the
block structure (l, V, M), the raw-stream length tau and the target output
length n_prime = l*V*M, plus the 8-bytes-per-word address counts used by
the memory model.
"""

from dataclasses import dataclass, asdict
from enum import Enum

# Bytes packed into one 64-bit memory word.
BYTES_PER_WORD = 8


class SecurityLevel(Enum):
    """A built-in security level.  The digit in its name is its number on
    the command line and in KAT files; its place in this order is its
    2-bit sec_level code in an instruction word."""
    SL1 = "SL1"
    SL3 = "SL3"
    SL5 = "SL5"


_BY_NUMBER = {int(level.value[2:]): level for level in SecurityLevel}
LEVEL_NUMBERS = tuple(_BY_NUMBER)  # in member order
_LEVEL_CHOICES = (", ".join(map(str, LEVEL_NUMBERS[:-1]))  # for messages
                  + f" or {LEVEL_NUMBERS[-1]}")


@dataclass(frozen=True)
class ParameterSet:
    """Parameter set for one security level.

    q is a Mersenne prime so that reduction of a byte into [0, q] is a
    bitwise AND; tau >= n_prime so the rejection sampler has spare bytes
    to draw replacements from.
    """
    sec_level: SecurityLevel
    q: int            # prime modulus (127 for all built-in levels)
    l: int            # extension degree
    V: int            # vinegar block count
    M: int            # oil block count
    v: int            # vinegar variables, l*V
    m: int            # oil variables, l*M
    tau: int          # pseudorandom stream length in bytes
    n_prime: int      # target output length in field elements, l*V*M
    lambda_bits: int  # security level; tau keeps P[zero-fill] < 2^-lambda

    def __post_init__(self):
        if self.v != self.l * self.V or self.m != self.l * self.M:
            raise ValueError("v and m must equal l*V and l*M")
        if self.n_prime != self.l * self.V * self.M:
            raise ValueError("n_prime must equal l*V*M")
        if not is_mersenne(self.q):
            raise ValueError(f"q={self.q} is not a Mersenne prime of form 2^k-1")
        if self.tau < self.n_prime:
            raise ValueError("tau must be >= n_prime (no spare bytes otherwise)")

    @property
    def tau_addrs(self) -> int:
        """64-bit words needed to hold the tau-byte keystream, and so the
        minimum memory depth for a run: the keystream overwrites the seed
        and the packed output is written over its consumed head, so it is
        the largest region ever live."""
        return -(-self.tau // BYTES_PER_WORD)

    @property
    def out_addrs(self) -> int:
        """64-bit words needed to hold the n_prime packed output bytes."""
        return -(-self.n_prime // BYTES_PER_WORD)

    def to_dict(self) -> dict:
        """Fields, then word counts; required_mem_words is tau_addrs."""
        return {**asdict(self), "sec_level": self.sec_level.value,
                "tau_addrs": self.tau_addrs, "out_addrs": self.out_addrs,
                "required_mem_words": self.tau_addrs}


_BUILTIN = {
    SecurityLevel.SL1: dict(q=127, l=3, V=52, M=18, tau=2916, lambda_bits=128),
    SecurityLevel.SL3: dict(q=127, l=3, V=76, M=26, tau=6123, lambda_bits=192),
    SecurityLevel.SL5: dict(q=127, l=3, V=102, M=35, tau=11018, lambda_bits=256),
}


def is_mersenne(q: int) -> bool:
    """True when q = 2^k - 1 for some k >= 1 (primality is not re-checked)."""
    return q >= 1 and (q & (q + 1)) == 0


def builtin_params(level: SecurityLevel) -> ParameterSet:
    """Fixed parameter set for one of the three built-in security levels."""
    base = _BUILTIN[SecurityLevel(level)]
    return ParameterSet(
        sec_level=SecurityLevel(level),
        v=base["l"] * base["V"],
        m=base["l"] * base["M"],
        n_prime=base["l"] * base["V"] * base["M"],
        **base,
    )


def level_from_number(n: int) -> SecurityLevel:
    """Map the CLI's 1/3/5 spelling onto SecurityLevel."""
    if n not in _BY_NUMBER:
        raise ValueError(f"no security level {n}; choose {_LEVEL_CHOICES}")
    return _BY_NUMBER[n]
