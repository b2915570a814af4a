"""Bitcoin proof-of-work kernel.

Functional substrate behind the BTC benchmark accelerator (Table 1:
"Bitcoin Miner", ported from the Open-Source-FPGA-Bitcoin-Miner project).
Implements real Bitcoin-style mining over an 80-byte block header: grind
the 4-byte nonce until SHA-256 applied twice to the header, interpreted
little-endian, falls below the target.  The hash is :mod:`hashlib`'s: a
nonce attempt hashes one 80-byte header in one call, so no hash state
outlives it for a preempted job to save.  Tests use an easy target so
solutions are found in a few hundred attempts.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from typing import Optional

from repro.errors import ConfigurationError

HEADER_BYTES = 80
NONCE_OFFSET = 76


@dataclass(frozen=True)
class BlockHeader:
    """A Bitcoin block header with a mutable-nonce serialization."""

    version: int
    prev_hash: bytes  # 32 bytes
    merkle_root: bytes  # 32 bytes
    timestamp: int
    bits: int

    def __post_init__(self) -> None:
        if len(self.prev_hash) != 32 or len(self.merkle_root) != 32:
            raise ConfigurationError("hashes must be 32 bytes")

    def serialize(self, nonce: int) -> bytes:
        return (
            struct.pack("<I", self.version)
            + self.prev_hash
            + self.merkle_root
            + struct.pack("<II", self.timestamp, self.bits)
            + struct.pack("<I", nonce & 0xFFFFFFFF)
        )


def hash_value(header_bytes: bytes) -> int:
    """The PoW hash as an integer (little-endian, per Bitcoin convention)."""
    if len(header_bytes) != HEADER_BYTES:
        raise ConfigurationError("header must be 80 bytes")
    digest = hashlib.sha256(hashlib.sha256(header_bytes).digest()).digest()
    return int.from_bytes(digest, "little")


def meets_target(header_bytes: bytes, target: int) -> bool:
    return hash_value(header_bytes) < target


def mine(
    header: BlockHeader,
    target: int,
    *,
    start_nonce: int = 0,
    max_attempts: int = 1 << 20,
) -> Optional[int]:
    """Grind nonces; returns the winning nonce or None."""
    nonce = start_nonce
    for _ in range(max_attempts):
        if meets_target(header.serialize(nonce), target):
            return nonce
        nonce = (nonce + 1) & 0xFFFFFFFF
    return None


def easy_target(leading_zero_bits: int = 12) -> int:
    """A target requiring ~2^leading_zero_bits attempts — test-friendly."""
    if not 1 <= leading_zero_bits <= 64:
        raise ConfigurationError("leading_zero_bits out of range")
    return 1 << (256 - leading_zero_bits)
