"""Binary framing + accounting for the coordinator -> shard op stream.

The conservative protocol shipped every op batch as a pickled list of
``(node, epoch, op, payload)`` tuples.  Pickle is general but expensive
for what is, in practice, a tiny closed vocabulary of hot ops whose
payloads are a couple of short strings and small ints.  This module
packs a batch into one compact binary frame:

* frame header: varint op count;
* per op: op code (u8), varint global node index, zigzag-varint epoch
  delta against the previous op's epoch (ops on one stream cluster
  tightly in simulated time, so the common delta is 1–5 bytes against 8
  for a raw u64; the delta chain persists **across** frames, so only
  the first op of a run pays for a full picosecond timestamp), then a
  code-specific payload;
* every string — tenant names, accelerator types, auditor counter keys
  — goes through a per-stream intern table that also persists across
  frames: first use ships varint-length-prefixed UTF-8 and enters the
  table, every repeat is one small varint.  A tenant name therefore
  ships exactly once (at placement); its eviction is a 1–2 byte ref;
* ``place`` ships its oversubscription flag in the op code
  (``OP_PLACE`` vs ``OP_PLACE_OVERSUB``) and the predicted slot as a
  varint;
* the cold tail (``restore_tenant`` carries a full
  :class:`~repro.hv.checkpoint.GuestCheckpoint`; future ops default the
  same way) falls back to an embedded pickle blob under ``OP_PICKLE``,
  so the codec never constrains what the protocol can say — it only
  makes the common case cheap.

Because the codec is stateful per stream, each coordinator-side shard
handle owns a :class:`FrameEncoder` and each worker owns the matching
:class:`FrameDecoder`; frames must be decoded in ship order, which the
shard's one-way op pipe (one writer, one reader) guarantees.  A frame
goes down that pipe as is, with no second pickle: its first byte is its
op count, never 0, which is what tells it from a control message
(``b"\x00"`` + pickle; see :func:`repro.parallel.shard.shard_worker_main`).
Both ends take a one-byte fast path for varints below 0x80, and the
encoder keeps each interned string's reference bytes, so a repeat costs
one ``bytearray`` extend.  A malformed frame raises :class:`FrameError`,
whatever is wrong with it.  The layout is an IPC detail between one
coordinator and the workers it forked; it is never persisted, so there
is no versioning story beyond "both ends run the same build".

:class:`OpStreamStats` is the coordinator-side ledger the new bench
columns and the CI proxy gate read: messages/frames/bytes shipped,
speculation outcomes (grants, commits, rollbacks by conflict class),
gather round-trips vs cache hits, and barrier-stall accounting.
"""

from __future__ import annotations

import pickle
import struct
from typing import Dict, List, Tuple

#: One buffered op: (global node index, epoch_ps, op name, payload).
BufferedOp = Tuple[int, int, str, tuple]

_F64 = struct.Struct("!d")

OP_PLACE = 1
OP_EVICT = 2
OP_CORDON = 3
OP_UNCORDON = 4
OP_CRASH = 5
OP_RECOVER = 6
OP_RESTORE = 7
OP_DEGRADE = 8
OP_BUMP_AUDITOR = 9
OP_SPEC_EVICT = 10
OP_SPEC_ROLLBACK = 11
OP_PLACE_OVERSUB = 12
OP_PICKLE = 0xFF

_NULLARY_BY_NAME = {
    "cordon": OP_CORDON,
    "uncordon": OP_UNCORDON,
    "crash": OP_CRASH,
    "recover": OP_RECOVER,
    "restore": OP_RESTORE,
}
_NULLARY_BY_CODE = {code: name for name, code in _NULLARY_BY_NAME.items()}
#: Op name -> code; ``place`` becomes ``OP_PLACE_OVERSUB`` by its flag, and
#: any name missing here ships under ``OP_PICKLE``.
_CODE_BY_NAME = {
    "place": OP_PLACE,
    "evict": OP_EVICT,
    "spec_evict": OP_SPEC_EVICT,
    "spec_rollback": OP_SPEC_ROLLBACK,
    "degrade": OP_DEGRADE,
    "bump_auditor": OP_BUMP_AUDITOR,
    **_NULLARY_BY_NAME,
}


def _unzigzag(value: int) -> int:
    return (value >> 1) ^ -(value & 1)


def _put_varint(out: bytearray, value: int) -> None:
    """Append ``value`` (non-negative) as a little-endian base-128 varint."""
    while value > 0x7F:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)


def _varint_bytes(value: int) -> bytes:
    out = bytearray()
    _put_varint(out, value)
    return bytes(out)


class FrameEncoder:
    """Stateful encoder for one coordinator->worker op stream."""

    __slots__ = ("_epoch", "_names")

    def __init__(self) -> None:
        self._epoch = 0
        #: Interned string -> its reference bytes (varint ``index + 1``).
        self._names: Dict[str, bytes] = {}

    # -- primitives ----------------------------------------------------------

    def _string(self, out: bytearray, text: str) -> None:
        """Interned: tag 0 + bytes on first use, ``index + 1`` after."""
        ref = self._names.get(text)
        if ref is None:
            raw = text.encode("utf-8")
            out.append(0)
            _put_varint(out, len(raw))
            out += raw
            self._names[text] = _varint_bytes(len(self._names) + 1)
        else:
            out += ref

    # -- frames --------------------------------------------------------------

    def encode(self, ops: List[BufferedOp]) -> bytes:
        """Pack one op batch into a binary frame."""
        out = bytearray()
        _put_varint(out, len(ops))
        epoch = self._epoch
        for node_index, epoch_ps, op, payload in ops:
            code = _CODE_BY_NAME.get(op, OP_PICKLE)
            if code == OP_PLACE and payload[3]:
                code = OP_PLACE_OVERSUB
            out.append(code)
            # The op head, varints inlined: most values fit one byte.
            while node_index > 0x7F:
                out.append((node_index & 0x7F) | 0x80)
                node_index >>= 7
            out.append(node_index)
            delta = epoch_ps - epoch
            delta = -(delta << 1) - 1 if delta < 0 else delta << 1
            while delta > 0x7F:
                out.append((delta & 0x7F) | 0x80)
                delta >>= 7
            out.append(delta)
            epoch = epoch_ps
            if code == OP_PLACE or code == OP_PLACE_OVERSUB:
                tenant_name, accel_type, physical_index, _oversub = payload
                self._string(out, tenant_name)
                self._string(out, accel_type)
                _put_varint(out, physical_index)
            elif code == OP_EVICT or code == OP_SPEC_EVICT:
                self._string(out, payload[0])
            elif code == OP_SPEC_ROLLBACK:
                tenants = payload[0]
                _put_varint(out, len(tenants))
                for tenant_name in tenants:
                    self._string(out, tenant_name)
            elif code == OP_DEGRADE:
                out += _F64.pack(payload[0])
            elif code == OP_BUMP_AUDITOR:
                physical_index, key, count = payload
                _put_varint(out, physical_index)
                self._string(out, key)
                _put_varint(out, count)
            elif code == OP_PICKLE:  # cold tail: restore_tenant, future ops
                blob = pickle.dumps(
                    (op, payload), protocol=pickle.HIGHEST_PROTOCOL
                )
                _put_varint(out, len(blob))
                out += blob
            # nullary codes carry nothing beyond the op head
        self._epoch = epoch
        return bytes(out)


class FrameError(ValueError):
    """A frame that is not what a :class:`FrameEncoder` wrote: truncated,
    with trailing bytes, an unknown op code, an unknown string reference,
    bad UTF-8 or a bad ``OP_PICKLE`` tail."""


class FrameDecoder:
    """Stateful decoder mirroring :class:`FrameEncoder`, frame-ordered.

    Any malformed frame raises :class:`FrameError`, and nothing else.
    """

    __slots__ = ("_epoch", "_names", "_data", "_offset")

    def __init__(self) -> None:
        self._epoch = 0
        self._names: List[str] = []
        self._data = b""
        self._offset = 0

    # -- primitives ----------------------------------------------------------

    def _varint(self) -> int:
        data = self._data
        offset = self._offset
        byte = data[offset]
        if byte < 0x80:
            self._offset = offset + 1
            return byte
        value = byte & 0x7F
        shift = 7
        while True:
            offset += 1
            byte = data[offset]
            value |= (byte & 0x7F) << shift
            if not byte & 0x80:
                self._offset = offset + 1
                return value
            shift += 7

    def _bytes(self, length: int) -> bytes:
        start = self._offset
        end = start + length
        if end > len(self._data):
            raise FrameError(
                f"frame truncated: {length} bytes at offset {start}, "
                f"{len(self._data) - start} left"
            )
        self._offset = end
        return self._data[start:end]

    def _string(self) -> str:
        tag = self._varint()
        if tag:
            return self._names[tag - 1]
        text = self._bytes(self._varint()).decode("utf-8")
        self._names.append(text)
        return text

    def _f64(self) -> float:
        (value,) = _F64.unpack(self._bytes(_F64.size))
        return value

    # -- frames --------------------------------------------------------------

    def decode(self, data: bytes) -> List[BufferedOp]:
        """Unpack one binary frame back into the op-batch list."""
        self._data = data
        self._offset = 0
        try:
            ops = self._ops(self._varint())
            if self._offset != len(data):
                raise FrameError(
                    f"{len(data) - self._offset} trailing bytes after the "
                    f"frame's last op"
                )
        except IndexError:  # a varint, op code or string ref past the end
            raise FrameError(
                "frame truncated or refers to a string never interned"
            ) from None
        except UnicodeDecodeError as error:
            raise FrameError(f"interned string is not UTF-8: {error}") from None
        finally:
            self._data = b""
        return ops

    def _ops(self, count: int) -> List[BufferedOp]:
        data = self._data
        ops: List[BufferedOp] = []
        for _ in range(count):
            code = data[self._offset]
            self._offset += 1
            node_index = self._varint()
            epoch_ps = self._epoch + _unzigzag(self._varint())
            self._epoch = epoch_ps
            if code == OP_PLACE or code == OP_PLACE_OVERSUB:
                tenant_name = self._string()
                accel_type = self._string()
                physical_index = self._varint()
                payload: tuple = (
                    tenant_name,
                    accel_type,
                    physical_index,
                    code == OP_PLACE_OVERSUB,
                )
                op = "place"
            elif code == OP_EVICT:
                payload = (self._string(),)
                op = "evict"
            elif code == OP_SPEC_EVICT:
                payload = (self._string(),)
                op = "spec_evict"
            elif code == OP_SPEC_ROLLBACK:
                n_tenants = self._varint()
                payload = (tuple([self._string() for _ in range(n_tenants)]),)
                op = "spec_rollback"
            elif code == OP_DEGRADE:
                payload = (self._f64(),)
                op = "degrade"
            elif code == OP_BUMP_AUDITOR:
                physical_index = self._varint()
                key = self._string()
                bump_count = self._varint()
                payload = (physical_index, key, bump_count)
                op = "bump_auditor"
            elif code in _NULLARY_BY_CODE:
                payload = ()
                op = _NULLARY_BY_CODE[code]
            elif code == OP_PICKLE:
                op, payload = _unpickle_op(self._bytes(self._varint()))
            else:
                raise FrameError(f"unknown op code {code}")
            ops.append((node_index, epoch_ps, op, payload))
        return ops


def _unpickle_op(blob: bytes) -> Tuple[str, tuple]:
    """An ``OP_PICKLE`` tail back to its ``(op, payload)`` pair."""
    try:
        op, payload = pickle.loads(blob)
    except Exception as error:  # pickle raises a dozen types on bad bytes
        raise FrameError(
            f"bad OP_PICKLE tail: {type(error).__name__}: {error}"
        ) from None
    if not isinstance(op, str) or not isinstance(payload, tuple):
        raise FrameError(f"OP_PICKLE tail is not an (op, payload) pair: {op!r}")
    return op, payload


def encode_frame(ops: List[BufferedOp]) -> bytes:
    """One-shot convenience over :class:`FrameEncoder` (tests, tools)."""
    return FrameEncoder().encode(ops)


def decode_frame(data: bytes) -> List[BufferedOp]:
    """One-shot convenience over :class:`FrameDecoder` (tests, tools)."""
    return FrameDecoder().decode(data)


class OpStreamStats:
    """Coordinator-side accounting for one sharded run.

    Everything except the wall-clock stall timers is deterministic for a
    fixed (trace, shards, lookahead) triple, which is what lets CI gate
    on these numbers instead of on noisy 1-CPU timings.
    """

    def __init__(self) -> None:
        self.lookahead = 0
        #: Every message down an op pipe (op frames + control messages).
        self.messages = 0
        #: "ops" messages only.
        self.frames = 0
        #: Encoded op-frame payload bytes.
        self.frame_bytes = 0
        self.ops = 0
        self.flushes = 0
        #: Speculation ledger.
        self.grants = 0
        self.commits = 0
        self.rollbacks = 0
        self.rollbacks_by_class: Dict[str, int] = {}
        #: Grants cancelled while their spec_evict was still buffered
        #: (scrubbed before ever reaching a worker; no rollback op needed).
        self.scrubbed = 0
        #: Observation-point accounting.
        self.gathers = 0
        self.gather_cache_hits = 0
        self.barrier_stall_s = 0.0
        #: Deterministic companion to the wall-clock stall timer: how many
        #: synchronous acks the coordinator waited on.
        self.stall_waits = 0

    def record_rollback(self, conflict_class: str, grants: int) -> None:
        self.rollbacks += grants
        self.rollbacks_by_class[conflict_class] = (
            self.rollbacks_by_class.get(conflict_class, 0) + grants
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "lookahead": self.lookahead,
            "messages": self.messages,
            "frames": self.frames,
            "frame_bytes": self.frame_bytes,
            "ops": self.ops,
            "flushes": self.flushes,
            "grants": self.grants,
            "commits": self.commits,
            "rollbacks": self.rollbacks,
            "rollbacks_by_class": dict(sorted(self.rollbacks_by_class.items())),
            "scrubbed": self.scrubbed,
            "gathers": self.gathers,
            "gather_cache_hits": self.gather_cache_hits,
            "barrier_stall_s": self.barrier_stall_s,
            "stall_waits": self.stall_waits,
        }
