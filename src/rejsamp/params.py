"""QR-UOV sampling parameters and derived size quantities.

A ParameterSet stores only the paper's inputs: the field modulus q, the
block structure (l, V, M), the raw-stream length tau and lambda. The rest
is derived when read: n_prime = l*V*M, v = l*V, m = l*M and the
8-bytes-per-word address counts of the memory model. The three built-in
sets are built once, at import.
"""

from enum import Enum
from typing import NamedTuple

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


class _ParameterFields(NamedTuple):
    sec_level: SecurityLevel
    q: int            # prime modulus (127 for all built-in levels)
    l: int            # extension degree
    V: int            # vinegar block count
    M: int            # oil block count
    tau: int          # pseudorandom stream length in bytes
    lambda_bits: int  # security level; tau keeps P[zero-fill] < 2^-lambda


class ParameterSet(_ParameterFields):
    """Parameter set for one security level.

    q is a Mersenne prime so that reduction of a byte into [0, q] is a
    bitwise AND; tau >= n_prime so the rejection sampler has spare bytes
    to draw replacements from.
    """
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not is_mersenne(self.q):
            raise ValueError(f"q={self.q} is not a Mersenne prime of form 2^k-1")
        if self.tau < self.n_prime:
            raise ValueError("tau must be >= n_prime (no spare bytes otherwise)")
        return self

    @property
    def n_prime(self) -> int:
        """Target output length in field elements, l*V*M."""
        return self.l * self.V * self.M

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
        """The inputs with v = l*V and m = l*M after M and n_prime after
        tau, then the word counts; required_mem_words is tau_addrs."""
        return {"sec_level": self.sec_level.value, "q": self.q, "l": self.l,
                "V": self.V, "M": self.M, "v": self.l * self.V,
                "m": self.l * self.M, "tau": self.tau, "n_prime": self.n_prime,
                "lambda_bits": self.lambda_bits, "tau_addrs": self.tau_addrs,
                "out_addrs": self.out_addrs,
                "required_mem_words": self.tau_addrs}


def is_mersenne(q: int) -> bool:
    """True when q = 2^k - 1 for some k >= 1 (primality is not re-checked)."""
    return q >= 1 and (q & (q + 1)) == 0


_BUILTIN = {level: ParameterSet(level, q=127, l=3, V=V, M=M, tau=tau,
                                lambda_bits=lam)
            for level, V, M, tau, lam in (
                (SecurityLevel.SL1, 52, 18, 2916, 128),
                (SecurityLevel.SL3, 76, 26, 6123, 192),
                (SecurityLevel.SL5, 102, 35, 11018, 256))}


def builtin_params(level: SecurityLevel) -> ParameterSet:
    """Fixed parameter set for one of the three built-in security levels."""
    return _BUILTIN[SecurityLevel(level)]


def level_from_number(n: int) -> SecurityLevel:
    """Map the CLI's 1/3/5 spelling onto SecurityLevel."""
    if n not in _BY_NUMBER:
        raise ValueError(f"no security level {n}; choose {_LEVEL_CHOICES}")
    return _BY_NUMBER[n]
