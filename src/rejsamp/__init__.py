"""Bit-exact model of an AES-CTR rejection-sampling coprocessor for QR-UOV."""

__version__ = "0.1.0"

from .params import SecurityLevel, ParameterSet, builtin_params
from .sampler import FieldVector, mask_bytes, rej_samp, rej_samp_prg

__all__ = [
    "SecurityLevel",
    "ParameterSet",
    "builtin_params",
    "FieldVector",
    "mask_bytes",
    "rej_samp",
    "rej_samp_prg",
]
