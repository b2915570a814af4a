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
SimpleQueue FIFO already guarantees.  The layout is an IPC detail
between one coordinator and the workers it forked; it is never
persisted, so there is no versioning story beyond "both ends run the
same build".

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


def _zigzag(value: int) -> int:
    return -(value << 1) - 1 if value < 0 else value << 1


def _unzigzag(value: int) -> int:
    return (value >> 1) ^ -(value & 1)


def _put_varint(out: bytearray, value: int) -> None:
    """Append ``value`` (non-negative) as a little-endian base-128 varint."""
    while value > 0x7F:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)


class FrameEncoder:
    """Stateful encoder for one coordinator->worker op stream."""

    __slots__ = ("_epoch", "_names")

    def __init__(self) -> None:
        self._epoch = 0
        self._names: Dict[str, int] = {}

    # -- primitives ----------------------------------------------------------

    def _string(self, out: bytearray, text: str) -> None:
        """Interned: tag 0 + bytes on first use, ``index + 1`` after."""
        index = self._names.get(text)
        if index is None:
            raw = text.encode("utf-8")
            out.append(0)
            _put_varint(out, len(raw))
            out += raw
            self._names[text] = len(self._names)
        else:
            _put_varint(out, index + 1)

    # -- frames --------------------------------------------------------------

    def encode(self, ops: List[BufferedOp]) -> bytes:
        """Pack one op batch into a binary frame."""
        out = bytearray()
        _put_varint(out, len(ops))
        for node_index, epoch_ps, op, payload in ops:
            if op == "place":
                code = OP_PLACE_OVERSUB if payload[3] else OP_PLACE
            elif op == "evict":
                code = OP_EVICT
            elif op == "spec_evict":
                code = OP_SPEC_EVICT
            elif op == "spec_rollback":
                code = OP_SPEC_ROLLBACK
            elif op == "degrade":
                code = OP_DEGRADE
            elif op == "bump_auditor":
                code = OP_BUMP_AUDITOR
            else:
                code = _NULLARY_BY_NAME.get(op, OP_PICKLE)
            out.append(code)
            _put_varint(out, node_index)
            _put_varint(out, _zigzag(epoch_ps - self._epoch))
            self._epoch = epoch_ps
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
        return bytes(out)


class FrameDecoder:
    """Stateful decoder mirroring :class:`FrameEncoder`, frame-ordered."""

    __slots__ = ("_epoch", "_names", "_data", "_offset")

    def __init__(self) -> None:
        self._epoch = 0
        self._names: List[str] = []
        self._data = b""
        self._offset = 0

    # -- primitives ----------------------------------------------------------

    def _varint(self) -> int:
        value = 0
        shift = 0
        while True:
            byte = self._data[self._offset]
            self._offset += 1
            value |= (byte & 0x7F) << shift
            if not byte & 0x80:
                return value
            shift += 7

    def _string(self) -> str:
        tag = self._varint()
        if tag == 0:
            length = self._varint()
            raw = self._data[self._offset : self._offset + length]
            self._offset += length
            text = raw.decode("utf-8")
            self._names.append(text)
            return text
        return self._names[tag - 1]

    def _f64(self) -> float:
        (value,) = _F64.unpack_from(self._data, self._offset)
        self._offset += _F64.size
        return value

    # -- frames --------------------------------------------------------------

    def decode(self, data: bytes) -> List[BufferedOp]:
        """Unpack one binary frame back into the op-batch list."""
        self._data = data
        self._offset = 0
        count = self._varint()
        ops: List[BufferedOp] = []
        for _ in range(count):
            code = data[self._offset]
            self._offset += 1
            node_index = self._varint()
            epoch_ps = self._epoch + _unzigzag(self._varint())
            self._epoch = epoch_ps
            if code in (OP_PLACE, OP_PLACE_OVERSUB):
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
                payload = (tuple(self._string() for _ in range(n_tenants)),)
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
                length = self._varint()
                raw = self._data[self._offset : self._offset + length]
                self._offset += length
                op, payload = pickle.loads(raw)
            else:  # pragma: no cover - protocol bug
                raise ValueError(f"unknown op code {code}")
            ops.append((node_index, epoch_ps, op, payload))
        self._data = b""
        return ops


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
        #: Every queue put (op frames + control messages).
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
