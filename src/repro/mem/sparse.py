"""Sparse byte-addressable memory.

The paper's experiments touch up to 8 GB working sets on a 188 GB server.
We cannot (and need not) allocate that: for address-pattern experiments
only the *addresses* matter, and for functional benchmarks the live data is
small.  :class:`SparseMemory` therefore backs memory with 4 KB frames
materialized on first write; reads of never-written memory return zeros
without materializing anything, like freshly faulted anonymous pages.
"""

from __future__ import annotations

from typing import Dict

from repro.errors import ConfigurationError

_FRAME_SHIFT = 12
_FRAME_SIZE = 1 << _FRAME_SHIFT
_FRAME_MASK = _FRAME_SIZE - 1

_ZERO_FRAME = bytes(_FRAME_SIZE)


class SparseMemory:
    """A flat physical address space backed by on-demand 4 KB frames."""

    def __init__(self, size_bytes: int) -> None:
        if size_bytes <= 0:
            raise ConfigurationError("memory size must be positive")
        self.size_bytes = size_bytes
        self._frames: Dict[int, bytearray] = {}

    def _check_range(self, address: int, length: int) -> None:
        if address < 0 or length < 0 or address + length > self.size_bytes:
            raise ConfigurationError(
                f"access [{address:#x}, {address + length:#x}) outside "
                f"{self.size_bytes:#x}-byte memory"
            )

    def read(self, address: int, length: int) -> bytes:
        """Read ``length`` bytes; unwritten memory reads as zeros."""
        # Fast path: the overwhelmingly common case is a cache-line read
        # that stays inside one 4 KB frame.
        offset = address & _FRAME_MASK
        if 0 < length and offset + length <= _FRAME_SIZE and 0 <= address <= self.size_bytes - length:
            frame = self._frames.get(address >> _FRAME_SHIFT)
            if frame is None:
                return _ZERO_FRAME[:length]
            return bytes(frame[offset : offset + length])
        self._check_range(address, length)
        parts = []
        remaining = length
        current = address
        while remaining > 0:
            frame_no = current >> _FRAME_SHIFT
            offset = current & _FRAME_MASK
            chunk = min(remaining, _FRAME_SIZE - offset)
            frame = self._frames.get(frame_no)
            if frame is None:
                parts.append(_ZERO_FRAME[:chunk])
            else:
                parts.append(bytes(frame[offset : offset + chunk]))
            current += chunk
            remaining -= chunk
        return b"".join(parts)

    def write(self, address: int, data: bytes) -> None:
        """Write ``data`` at ``address``, materializing frames as needed."""
        self._check_range(address, len(data))
        view = memoryview(data)
        current = address
        consumed = 0
        while consumed < len(data):
            frame_no = current >> _FRAME_SHIFT
            offset = current & _FRAME_MASK
            chunk = min(len(data) - consumed, _FRAME_SIZE - offset)
            frame = self._frames.get(frame_no)
            if frame is None:
                frame = bytearray(_FRAME_SIZE)
                self._frames[frame_no] = frame
            frame[offset : offset + chunk] = view[consumed : consumed + chunk]
            current += chunk
            consumed += chunk

    def read_u64(self, address: int) -> int:
        return int.from_bytes(self.read(address, 8), "little")

    def write_u64(self, address: int, value: int) -> None:
        self.write(address, (value & (2**64 - 1)).to_bytes(8, "little"))

    @property
    def resident_bytes(self) -> int:
        """How much memory is actually materialized (for tests/diagnostics)."""
        return len(self._frames) * _FRAME_SIZE
