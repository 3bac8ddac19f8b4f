"""Bit-exact model of an AES-CTR rejection-sampling coprocessor for QR-UOV."""

__version__ = "0.1.0"
