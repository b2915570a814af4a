"""Replayable arrival traces for the serving gateway.

A trace is the unit of reproducibility at the serving altitude: the
gateway replays the *same* sessions, in the same simulated-time order,
no matter how the run is executed (serial, ``--shards N``, cached).  The
format is deliberately small — one flat record per session:

=================  =====================================================
field              meaning
=================  =====================================================
``session_id``     unique integer, dense from 0, file order
``tenant``         tenant name (shared by every session in one chain)
``tenant_class``   SLO class (``gold``/``silver``/``bronze``/...)
``accel_type``     accelerator requested (``AES``, ``SHA``, ...)
``arrival_ps``     roots: absolute arrival in simulated picoseconds;
                   chained records (``after`` set): *think time* after
                   the parent session completes
``session_ps``     session service length in simulated picoseconds
``working_set``    bytes the session streams through its accelerator
``after``          parent ``session_id`` for closed-loop chains, or
                   null/empty for an open-loop root
=================  =====================================================

Both JSON (one object, ``records`` array) and CSV (header + one row per
record) serializations round-trip losslessly; :meth:`ArrivalTrace.digest`
hashes the canonical JSON so tests and the CLI can assert replay
identity without comparing files byte-by-byte.

Synthesis layers diurnal and burst modulation on the same seeded
open-loop process as :mod:`repro.fleet.traffic`: one
:class:`~repro.sim.rng.LegacyRandomState` ``(seed)`` (numpy's legacy
``RandomState`` stream), one pass, draw order fixed per record — a seed
fully determines the trace, and the trace fully determines the serving
run.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from dataclasses import MISSING, dataclass, fields
from pathlib import Path
from typing import ClassVar, Dict, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.fleet.traffic import DEFAULT_MIX, TenantRequest
from repro.sim.clock import ms
from repro.sim.rng import LegacyRandomState, choice_cdf

FORMAT = "repro-serve-trace/v1"

#: Default tenant-class mix: a thin latency-critical head over a long
#: throughput-oriented tail, the shape SYNERGY assumes for FPGA services.
DEFAULT_CLASS_MIX: Dict[str, float] = {
    "gold": 0.2,
    "silver": 0.3,
    "bronze": 0.5,
}


@dataclass(frozen=True)
class SessionRecord:
    """One session in a trace (see module docstring for field semantics)."""

    session_id: int
    tenant: str
    tenant_class: str
    accel_type: str
    arrival_ps: int
    session_ps: int
    working_set: int = 0
    after: Optional[int] = None

    def __post_init__(self) -> None:
        if self.session_id < 0:
            raise ConfigurationError("session_id must be >= 0")
        if self.arrival_ps < 0 or self.session_ps <= 0:
            raise ConfigurationError(
                f"session {self.session_id}: arrival must be >= 0 "
                "and session length positive"
            )
        if self.working_set < 0:
            raise ConfigurationError("working_set must be >= 0")

    def to_request(self, arrival_ps: int) -> TenantRequest:
        """The fleet-level request for this session arriving at ``arrival_ps``."""
        return TenantRequest(
            request_id=self.session_id,
            tenant=self.tenant,
            accel_type=self.accel_type,
            arrival_ps=arrival_ps,
            session_ps=self.session_ps,
            tenant_class=self.tenant_class,
        )


#: CSV column order (also the canonical JSON key order per record).
_FIELDS = tuple(spec.name for spec in fields(SessionRecord))
_TEXT_FIELDS = ("tenant", "tenant_class", "accel_type")

#: The encoder of :func:`repro.envelope.canonical_json`, and how many
#: records :meth:`ArrivalTrace.digest` hands it at a time.
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
_DIGEST_BATCH = 1024


def _int(cell: object, where: str, name: str) -> int:
    try:
        return int(cell)
    except (TypeError, ValueError, OverflowError):
        raise ConfigurationError(
            f"{where}: field {name!r} must be an integer, got {cell!r}"
        ) from None


def _record_from(raw: object, where: str) -> SessionRecord:
    """One record from a JSON object or CSV row; errors name ``where``."""
    if not isinstance(raw, dict):
        raise ConfigurationError(
            f"{where}: expected an object, got {type(raw).__name__}"
        )
    values: Dict[str, object] = {}
    for spec in fields(SessionRecord):
        name, cell = spec.name, raw.get(spec.name)
        if cell is None or cell == "":  # JSON null/missing key, empty CSV cell
            if spec.default is MISSING:
                raise ConfigurationError(f"{where}: missing field {name!r}")
            values[name] = spec.default
        else:
            values[name] = str(cell) if name in _TEXT_FIELDS else _int(cell, where, name)
    return SessionRecord(**values)


class ArrivalTrace:
    """An ordered, validated collection of :class:`SessionRecord`."""

    def __init__(
        self,
        records: List[SessionRecord],
        *,
        name: str = "trace",
        seed: Optional[int] = None,
    ) -> None:
        self.records = list(records)
        self.name = name
        self.seed = seed
        self._validate()

    def _validate(self) -> None:
        if not self.records:
            raise ConfigurationError("a trace needs at least one session")
        seen: set = set()
        for record in self.records:
            if record.session_id in seen:
                raise ConfigurationError(
                    f"duplicate session_id {record.session_id}"
                )
            if record.after is not None and record.after not in seen:
                raise ConfigurationError(
                    f"session {record.session_id} chains after "
                    f"{record.after}, which does not precede it"
                )
            seen.add(record.session_id)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    # -- structure ---------------------------------------------------------

    def chains(self) -> List[List[SessionRecord]]:
        """Sessions grouped into closed-loop chains, roots in file order."""
        children: Dict[int, List[SessionRecord]] = {}
        roots: List[SessionRecord] = []
        for record in self.records:
            if record.after is None:
                roots.append(record)
            else:
                children.setdefault(record.after, []).append(record)
        chains: List[List[SessionRecord]] = []
        for root in roots:
            chain = [root]
            cursor = root
            while cursor.session_id in children:
                followers = children[cursor.session_id]
                if len(followers) != 1:
                    raise ConfigurationError(
                        f"session {cursor.session_id} has {len(followers)} "
                        "followers; chains must be linear"
                    )
                cursor = followers[0]
                chain.append(cursor)
            chains.append(chain)
        covered = sum(len(c) for c in chains)
        if covered != len(self.records):
            raise ConfigurationError(
                f"{len(self.records) - covered} chained sessions are "
                "unreachable from any root"
            )
        return chains

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        return {
            "format": FORMAT,
            "name": self.name,
            "seed": self.seed,
            "records": [
                {f: getattr(r, f) for f in _FIELDS} for r in self.records
            ],
        }

    def digest(self) -> str:
        """sha256 of the canonical JSON of :meth:`to_dict` (sorted keys, no
        whitespace), streamed: the records go through the C encoder
        ``_DIGEST_BATCH`` at a time, so the bytes are the same and memory
        stays O(batch) instead of a copy of the whole trace."""
        encode = _CANONICAL.encode
        sha = hashlib.sha256()
        sha.update(
            f'{{"format":{encode(FORMAT)},"name":{encode(self.name)},'
            '"records":['.encode()
        )
        records = self.records
        for start in range(0, len(records), _DIGEST_BATCH):
            # A record's ``__dict__`` is exactly its fields; the encoder sorts them.
            batch = encode(list(map(vars, records[start:start + _DIGEST_BATCH])))
            if start:
                sha.update(b",")
            sha.update(batch[1:-1].encode())
        sha.update(f'],"seed":{encode(self.seed)}}}'.encode())
        return sha.hexdigest()[:16]

    def write_json(self, path) -> Path:
        path = Path(path)
        path.write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n")
        return path

    def write_csv(self, path) -> Path:
        path = Path(path)
        with path.open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(_FIELDS)
            for record in self.records:  # csv writes ``after=None`` as ""
                writer.writerow([getattr(record, f) for f in _FIELDS])
        return path

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "ArrivalTrace":
        fmt = payload.get("format") if isinstance(payload, dict) else None
        if fmt != FORMAT:
            raise ConfigurationError(
                f"not a serve trace (format={fmt!r}, expected {FORMAT!r})"
            )
        raws = payload.get("records")
        if not isinstance(raws, list):
            raise ConfigurationError("serve trace has no 'records' list")
        records = [_record_from(raw, f"record {i}") for i, raw in enumerate(raws)]
        seed = payload.get("seed")
        return cls(
            records,
            name=str(payload.get("name", "trace")),
            seed=None if seed is None else _int(seed, "trace", "seed"),
        )

    @classmethod
    def load(cls, path) -> "ArrivalTrace":
        """Load a trace from a ``.json`` or ``.csv`` file (by extension)."""
        path = Path(path)
        try:
            text = path.read_text()
        except (OSError, UnicodeDecodeError) as error:
            raise ConfigurationError(f"cannot read trace {path}: {error}") from None
        if path.suffix.lower() == ".csv":
            return cls._from_csv_text(text, name=path.stem)
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as error:
            raise ConfigurationError(f"unreadable trace {path}: {error}") from None
        return cls.from_dict(payload)

    @classmethod
    def _from_csv_text(cls, text: str, *, name: str) -> "ArrivalTrace":
        reader = csv.DictReader(io.StringIO(text))
        try:
            rows = list(reader)
        except csv.Error as error:
            raise ConfigurationError(f"unreadable CSV trace: {error}") from None
        missing = set(_FIELDS) - set(reader.fieldnames or ())
        if missing:
            raise ConfigurationError(
                f"CSV trace is missing columns: {sorted(missing)}"
            )
        records = [_record_from(row, f"record {i}") for i, row in enumerate(rows)]
        return cls(records, name=name)


# -- synthesis -------------------------------------------------------------


@dataclass(frozen=True)
class ServeProfile:
    """Shape of synthesized serving traffic.

    Extends the open-loop :class:`~repro.fleet.traffic.TrafficProfile`
    shape with the three things a *service* sees and a batch sweep does
    not: tenant classes, time-of-day rate modulation, and closed-loop
    session chains (a user comes back after their session finishes).
    The four fields are what the ``serve`` command and the fuzzer vary;
    the rest of the shape is class constants.
    """

    #: Offered load, as a fraction of the fleet's sustainable placement rate.
    load: float = 0.9
    #: Closed loop: after a session, the same tenant returns with this
    #: probability (geometric chain length, at most ``max_chain``), after
    #: an exponential think time of mean ``mean_think_ps``.
    followup_prob: float = 0.0
    #: Diurnal cycle: offered rate swings by ``±diurnal_amplitude`` over
    #: one ``diurnal_period_ps`` (0.0 disables the modulation).
    diurnal_amplitude: float = 0.0
    #: Bursts: each arrival starts a burst with probability ``burst_prob``;
    #: for the next ``burst_length`` arrivals the rate is multiplied by
    #: ``burst_factor`` (compressed inter-arrival gaps).
    burst_prob: float = 0.0

    mix: ClassVar[Dict[str, float]] = DEFAULT_MIX
    class_mix: ClassVar[Dict[str, float]] = DEFAULT_CLASS_MIX
    mean_session_ps: ClassVar[int] = ms(20)
    min_session_ps: ClassVar[int] = ms(1)
    mean_working_set: ClassVar[int] = 1 << 20
    diurnal_period_ps: ClassVar[int] = ms(400)
    burst_factor: ClassVar[float] = 4.0
    burst_length: ClassVar[int] = 32
    mean_think_ps: ClassVar[int] = ms(5)
    max_chain: ClassVar[int] = 8

    def __post_init__(self) -> None:
        if self.load <= 0:
            raise ConfigurationError("offered load must be positive")
        if not 0.0 <= self.diurnal_amplitude < 1.0:
            raise ConfigurationError("diurnal amplitude must be in [0, 1)")
        if not 0.0 <= self.burst_prob < 1.0:
            raise ConfigurationError("invalid burst parameters")
        if not 0.0 <= self.followup_prob < 1.0:
            raise ConfigurationError("invalid closed-loop parameters")


def synthesize(
    profile: ServeProfile,
    *,
    sessions: int,
    fleet_slots: int,
    seed: int = 0,
    name: str = "synthetic",
) -> ArrivalTrace:
    """A seeded synthetic trace of exactly ``sessions`` session records.

    Root arrivals follow the fleet's open-loop Poisson process at
    ``profile.load`` of the sustainable placement rate, with the
    instantaneous rate scaled by the diurnal sinusoid and by any active
    burst; closed-loop follow-ups are chained per root.  Single RNG,
    single pass, fixed draw order per record: byte-stable per seed.
    """
    if sessions < 1:
        raise ConfigurationError("session count must be positive")
    if fleet_slots < 1:
        raise ConfigurationError("fleet must have at least one slot")
    rng = LegacyRandomState(seed)
    accel_types = sorted(profile.mix)
    accel_cdf = choice_cdf([profile.mix[t] for t in accel_types])
    class_names = sorted(profile.class_mix)
    class_cdf = choice_cdf([profile.class_mix[c] for c in class_names])

    sustainable_rate = fleet_slots / profile.mean_session_ps
    mean_gap = 1.0 / (sustainable_rate * profile.load)

    records: List[SessionRecord] = []
    now = 0.0
    burst_remaining = 0
    session_id = 0
    root_index = 0
    while session_id < sessions:
        # Per-root draw order: gap, burst trigger, class, accel, then one
        # (session, working set, continue?, think) tuple per chain link.
        gap = rng.exponential(mean_gap)
        rate = 1.0
        if profile.diurnal_amplitude:
            rate += profile.diurnal_amplitude * math.sin(
                2.0 * math.pi * (now / profile.diurnal_period_ps)
            )
        if burst_remaining > 0:
            burst_remaining -= 1
            rate *= profile.burst_factor
        if profile.burst_prob and rng.random_sample() < profile.burst_prob:
            burst_remaining = profile.burst_length
        now += max(1.0, gap / rate)
        tenant_class = class_names[rng.pick(class_cdf)]
        accel_type = accel_types[rng.pick(accel_cdf)]
        tenant = f"{tenant_class[0]}{root_index:06d}"
        root_index += 1
        parent: Optional[int] = None
        for depth in range(profile.max_chain):
            if session_id >= sessions:
                break
            session_ps = max(
                profile.min_session_ps,
                int(round(rng.exponential(profile.mean_session_ps))),
            )
            working_set = max(
                1, int(round(rng.exponential(profile.mean_working_set)))
            )
            if parent is None:
                arrival = int(now)
            else:
                arrival = max(
                    1, int(round(rng.exponential(profile.mean_think_ps)))
                )
            records.append(
                SessionRecord(
                    session_id=session_id,
                    tenant=tenant,
                    tenant_class=tenant_class,
                    accel_type=accel_type,
                    arrival_ps=arrival,
                    session_ps=session_ps,
                    working_set=working_set,
                    after=parent,
                )
            )
            parent = session_id
            session_id += 1
            if (
                not profile.followup_prob
                or depth == profile.max_chain - 1
                or rng.random_sample() >= profile.followup_prob
            ):
                break
    return ArrivalTrace(records, name=name, seed=seed)
