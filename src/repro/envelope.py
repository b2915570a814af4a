"""The one JSON result envelope every CLI speaks.

Every ``--json`` mode of ``python -m repro`` — ``run``, ``fleet``,
``chaos``, ``serve``, ``capacity``, ``fuzz`` — prints exactly one object
to stdout::

    {"experiment": <name>, "params": {...}, "results": {...}}

rendered as canonical JSON (``indent=2, sort_keys=True``), with all human
narration diverted to stderr.  That byte shape is load-bearing: CI jobs
``cmp`` envelopes across runs, shard counts, and simulator modes, and the
experiment cache keys on the canonical form.  This module is the single
place the shape lives; ``tests/test_cli.py`` pins the legacy envelopes
byte-identical through it.
"""

from __future__ import annotations

import json
import math
from typing import Dict, Mapping


def to_jsonable(value):
    """Strict-JSON form of experiment results (tables, dicts, scalars).

    ``to_dict()``-bearing objects (e.g. :class:`~repro.experiments
    .harness.ResultTable`) are expanded, mapping keys are stringified,
    and non-finite floats become ``null`` (NaN/inf cells such as
    infeasible grid points have no strict-JSON spelling).
    """
    if hasattr(value, "to_dict"):
        return to_jsonable(value.to_dict())
    if isinstance(value, dict):
        return {str(k): to_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [to_jsonable(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def build_envelope(
    experiment: str, params: Mapping[str, object], results: object
) -> Dict[str, object]:
    """The canonical three-key envelope, fully JSON-able."""
    return {
        "experiment": experiment,
        "params": to_jsonable(dict(params)),
        "results": to_jsonable(results),
    }


def render_envelope(envelope: Mapping[str, object]) -> str:
    """Canonical text form — the exact bytes CI byte-compares."""
    return json.dumps(envelope, indent=2, sort_keys=True)


def emit_envelope(
    experiment: str, params: Mapping[str, object], results: object
) -> Dict[str, object]:
    """Build, print to stdout, and return the envelope."""
    envelope = build_envelope(experiment, params, results)
    print(render_envelope(envelope))
    return envelope


def canonical_json(value: object) -> str:
    """Compact canonical JSON (sorted keys, no whitespace drift) — the
    form digests, cache keys and differential comparisons are computed
    over.  Non-finite floats become ``null`` (:func:`to_jsonable`); a
    value JSON has no spelling for (a plain ``Enum`` in a sweep cell)
    is written as its ``repr``."""
    return json.dumps(
        to_jsonable(value), sort_keys=True, separators=(",", ":"), default=repr
    )
