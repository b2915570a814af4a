"""AES-128 (ECB) implemented from scratch.

This is the functional kernel behind the AES benchmark accelerator
(Table 1: "AES128 Encryption Algorithm", 1,965 lines of Verilog): FIPS-197
AES with S-box substitution, ShiftRows, MixColumns over GF(2^8), and the
key schedule.

Every round runs once over the whole buffer rather than once per block.
The state is kept as 16 byte strings, one per state byte position, each
holding that byte of every block (``data[p::16]``).  SubBytes,
AddRoundKey and MixColumns' multiply-by-x are ``bytes.translate`` through
256-byte lookup tables, MixColumns' XORs are XORs of ``int.from_bytes``
values, and ShiftRows is a permutation of the 16 strings.  The tables are
built on first use, so importing the kernel costs nothing.  Correctness is
asserted in tests against the FIPS-197 appendix vectors and a per-block
textbook implementation.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List

from repro.errors import ConfigurationError

BLOCK_BYTES = 16
KEY_BYTES = 16
ROUNDS = 10


def _build_sbox() -> bytes:
    """Construct the AES S-box from GF(2^8) inverses + affine transform."""
    # Multiplicative inverse table via exp/log over the AES polynomial.
    exp = [0] * 512
    log = [0] * 256
    x = 1
    for i in range(255):
        exp[i] = x
        log[x] = i
        # multiply x by generator 3 (0x03) in GF(2^8)
        x ^= (x << 1) ^ (0x11B if x & 0x80 else 0)
        x &= 0xFF
    for i in range(255, 512):
        exp[i] = exp[i - 255]

    sbox = bytearray(256)
    for value in range(256):
        inv = 0 if value == 0 else exp[255 - log[value]]
        # Affine transformation.
        result = 0
        for bit in range(8):
            result |= (
                (
                    (inv >> bit)
                    ^ (inv >> ((bit + 4) % 8))
                    ^ (inv >> ((bit + 5) % 8))
                    ^ (inv >> ((bit + 6) % 8))
                    ^ (inv >> ((bit + 7) % 8))
                    ^ (0x63 >> bit)
                )
                & 1
            ) << bit
        sbox[value] = result
    return bytes(sbox)


RCON = (0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36)


def _xtime(value: int) -> int:
    """Multiply by x (0x02) in GF(2^8)."""
    value <<= 1
    if value & 0x100:
        value ^= 0x11B
    return value & 0xFF


@lru_cache(maxsize=None)
def tables() -> tuple:
    """``(sbox, xtime, xor)``: the translate tables, built on first use.

    ``sbox`` is the S-box, ``xtime`` maps a byte to its product with x, and
    ``xor[k]`` maps a byte to itself XOR ``k``.
    """
    identity = int.from_bytes(bytes(range(256)), "little")
    ones = int.from_bytes(bytes([1]) * 256, "little")
    xor = tuple((identity ^ k * ones).to_bytes(256, "little") for k in range(256))
    return _build_sbox(), bytes(_xtime(value) for value in range(256)), xor


@lru_cache(maxsize=16)
def expand_key(key: bytes) -> tuple:
    """FIPS-197 key schedule: 11 round keys of 16 bytes each."""
    if len(key) != KEY_BYTES:
        raise ConfigurationError("AES-128 needs a 16-byte key")
    sbox = tables()[0]
    words: List[List[int]] = [list(key[i : i + 4]) for i in range(0, 16, 4)]
    for i in range(4, 4 * (ROUNDS + 1)):
        word = list(words[i - 1])
        if i % 4 == 0:
            word = word[1:] + word[:1]  # RotWord
            word = [sbox[b] for b in word]  # SubWord
            word[0] ^= RCON[i // 4 - 1]
        words.append([a ^ b for a, b in zip(words[i - 4], word)])
    round_keys = []
    for r in range(ROUNDS + 1):
        round_keys.append(bytes(sum(words[4 * r : 4 * r + 4], [])))
    return tuple(round_keys)


#: ShiftRows as a permutation of state positions.  The state is
#: column-major, byte (row, col) at ``col * 4 + row``, and row ``r`` rotates
#: left by ``r``: position ``p`` takes the byte at ``_SHIFT_ROWS[p]``.
_SHIFT_ROWS = tuple(((p // 4 + p % 4) % 4) * 4 + p % 4 for p in range(16))


def _mix_columns(state: List[bytes], n_blocks: int, xtime: bytes) -> List[bytes]:
    out = []
    for col in range(0, 16, 4):
        a = [int.from_bytes(lane, "little") for lane in state[col : col + 4]]
        t = a[0] ^ a[1] ^ a[2] ^ a[3]
        for row in range(4):
            pair = (a[row] ^ a[(row + 1) % 4]).to_bytes(n_blocks, "little")
            doubled = int.from_bytes(pair.translate(xtime), "little")
            out.append((a[row] ^ t ^ doubled).to_bytes(n_blocks, "little"))
    return out


def encrypt_ecb(key: bytes, data: bytes) -> bytes:
    """ECB-encrypt a multiple-of-16-bytes buffer (the accelerator's mode)."""
    if len(data) % BLOCK_BYTES:
        raise ConfigurationError("data length must be a multiple of 16")
    n_blocks = len(data) // BLOCK_BYTES
    if not n_blocks:
        return b""
    round_keys = expand_key(key)
    sbox, xtime, xor = tables()
    key0 = round_keys[0]
    state = [data[p::16].translate(xor[key0[p]]) for p in range(16)]
    for r in range(1, ROUNDS + 1):
        # SubBytes is bytewise, so it commutes with the ShiftRows permutation.
        state = [state[source].translate(sbox) for source in _SHIFT_ROWS]
        if r < ROUNDS:
            state = _mix_columns(state, n_blocks, xtime)
        round_key = round_keys[r]
        state = [lane.translate(xor[round_key[p]]) for p, lane in enumerate(state)]
    out = bytearray(len(data))
    for p, lane in enumerate(state):
        out[p::16] = lane
    return bytes(out)


def encrypt_block(key: bytes, block: bytes) -> bytes:
    """Encrypt one 16-byte block with AES-128."""
    if len(block) != BLOCK_BYTES:
        raise ConfigurationError("AES block must be 16 bytes")
    return encrypt_ecb(key, block)
