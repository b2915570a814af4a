"""Property checks the oracle applies on top of differential comparison.

Differential arms catch *divergence* (two execution modes disagreeing);
these predicates catch *agreement on the wrong answer* — both arms losing
a request, both arms letting a hung guest keep its slot.  Each checker
takes the observables one arm produced and returns a list of human-read
failure strings (empty = all invariants hold), so the oracle can pool
them into one verdict per scenario.

The invariants are the ones the test suite pins individually
(``tests/test_fault_injection.py``, ``tests/test_serve.py``,
``tests/test_capacity.py``); here they run against *generated* scenarios
instead of hand-picked ones.
"""

from __future__ import annotations

from typing import Dict, List, Mapping

from repro.faults.plan import FaultKind, FaultPlan
from repro.fleet.outcomes import Outcome
from repro.sim.clock import ms

#: A runaway stream issues its first DMA within ~1 ms of launch; any
#: window extending that far past the event must show fenced accesses.
_RUNAWAY_SLACK_PS = ms(1)

_KNOWN_OUTCOMES = {outcome.value for outcome in Outcome}


def _untyped(outcomes: Dict[str, int]) -> List[str]:
    """Outcome keys outside the typed vocabulary (``rejected_<reason>``
    strings are part of it — see :func:`repro.fleet.outcomes.rejected`)."""
    return sorted(
        key for key in outcomes
        if key not in _KNOWN_OUTCOMES and not key.startswith("rejected_")
    )


def check_platform(report: Mapping[str, object], plan: FaultPlan,
                   window_ps: int, *, time_slice_ps: int) -> List[str]:
    """Watchdog liveness + auditor containment + victim liveness."""
    failures: List[str] = []
    if int(report["victim_progress_units"]) <= 0:
        failures.append("victim made no progress over the window")

    violations = dict(report["violations"])
    rogues = list(report["rogues"])
    # Quarantine latency = queueing + detection: a hung guest waits up to
    # one scheduler quantum for fabric time (a starved guest is never
    # quarantined — only one that burned fabric without progress), then
    # up to two watchdog deadlines to be sampled busy-but-stuck.  Only
    # hangs whose full latency budget fits the window are *due*.
    deadline_ps = int(report["watchdog"]["deadline_ps"])
    hang_slack_ps = time_slice_ps + 2 * deadline_ps
    hang_due = sum(
        1 for event in plan.events
        if event.kind is FaultKind.GUEST_HANG
        and event.at_ps + hang_slack_ps <= window_ps
    )
    runaway_due = sum(
        1 for event in plan.events
        if event.kind is FaultKind.GUEST_RUNAWAY_DMA
        and event.at_ps + _RUNAWAY_SLACK_PS <= window_ps
    )

    quarantined = [r for r in rogues if r["label"].startswith("hang")
                   and r["quarantined"]]
    if hang_due and len(quarantined) < hang_due:
        failures.append(
            f"watchdog liveness: {hang_due} hang(s) due but only "
            f"{len(quarantined)} quarantined"
        )
    if runaway_due and violations.get("dma_dropped_window", 0) <= 0:
        failures.append(
            "auditor containment: runaway DMA launched but no "
            "dma_dropped_window violations recorded"
        )
    for rogue in rogues:
        if rogue["label"].startswith("runaway") and rogue["quarantined"]:
            failures.append(
                f"runaway {rogue['vaccel']} was quarantined (fencing, not "
                "quarantine, is the runaway defense)"
            )
    return failures


def check_burst(metrics: Mapping[str, object], governor: Mapping[str, object],
                *, expected_digest: str,
                speculative_region_opt: bool) -> List[str]:
    """Functional correctness + governor discipline on the burst datapath."""
    failures: List[str] = []
    if not metrics["done"]:
        failures.append("stream did not finish inside the run window")
    if metrics["digest"] != expected_digest:
        failures.append(
            "functional divergence: streamed payload digest != source data"
        )
    if not governor["attached"]:
        failures.append("fast path not attached on the fast-path arm")
    if speculative_region_opt and int(governor["committed_bursts"]) > 0:
        failures.append(
            f"governor committed {governor['committed_bursts']} burst(s) "
            "under speculative_region_opt (must decline: per-line latency "
            "depends on interleaving)"
        )
    return failures


def check_fleet(observables: Mapping[str, object], requests: int) -> List[str]:
    """Typed-outcome conservation: nothing accepted is ever lost."""
    failures: List[str] = []
    outcomes: Dict[str, int] = dict(observables["outcomes"])
    unknown = _untyped(outcomes)
    if unknown:
        failures.append(f"untyped outcomes in the serve result: {unknown}")
    total = sum(outcomes.values())
    if total != requests:
        failures.append(
            f"outcome conservation: {total} outcomes for {requests} requests"
        )
    availability = float(observables["availability"])
    if not 0.0 <= availability <= 1.0:
        failures.append(f"availability {availability} outside [0, 1]")
    return failures


def check_ledgers(cluster) -> List[str]:
    """Ledger == recount on every node, at the end of a run.

    The recount is ``occupancy_report()`` — read from the hypervisors'
    per-slot vaccel lists, in the shard workers for a sharded cluster —
    so on the serial arm this checks each provider's ledger and on the
    sharded arm the coordinator's shadow ledgers against the real stacks.
    The cluster's fleet-wide index is held to the node ledgers too.
    """
    failures: List[str] = []
    try:
        cluster.check_index()
    except RuntimeError as drift:
        failures.append(str(drift))
    report = cluster.occupancy_report()
    for node in cluster.nodes:
        slots = report[node.name]
        recount = [slots[i]["oversubscription"] for i in range(node.total_slots)]
        if not node.slots.matches(recount):
            failures.append(
                f"slot ledger drift on {node.name}: ledger {node.slots} vs "
                f"hypervisor recount {recount}"
            )
    return failures


def check_serve(result: Mapping[str, object]) -> List[str]:
    """No silent loss at the gateway: every session ends somewhere typed."""
    failures: List[str] = []
    trace = result["trace"]
    sessions = dict(result["sessions"])
    submitted = int(sessions["submitted"])
    abandoned = int(sessions["abandoned"])
    outcomes: Dict[str, int] = dict(sessions["outcomes"])
    if submitted + abandoned != int(trace["sessions"]):
        failures.append(
            f"gateway lost sessions: submitted {submitted} + abandoned "
            f"{abandoned} != trace {trace['sessions']}"
        )
    if sum(outcomes.values()) != submitted:
        failures.append(
            f"gateway no-silent-loss: {sum(outcomes.values())} outcomes "
            f"for {submitted} submitted sessions"
        )
    unknown = _untyped(outcomes)
    if unknown:
        failures.append(f"untyped session outcomes: {unknown}")
    availability = float(sessions["availability"])
    if not 0.0 <= availability <= 1.0:
        failures.append(f"availability {availability} outside [0, 1]")
    return failures


def check_capacity(result: Mapping[str, object]) -> List[str]:
    """Planner sanity in any regime (exact or fluid)."""
    failures: List[str] = []
    rate = float(result["rejection_rate"])
    if not 0.0 <= rate <= 1.0:
        failures.append(f"rejection rate {rate} outside [0, 1]")
    rejections = sum(float(v) for v in dict(result["rejections"]).values())
    if float(result["placements"]) < 0 or rejections < 0:
        failures.append("negative placement/rejection counts")
    total = float(result["placements"]) + rejections
    requests = float(result["requests"])
    if abs(total - requests) > max(1e-6 * requests, 1e-6):
        failures.append(
            f"capacity conservation: placements + rejections = {total} "
            f"!= requests {requests}"
        )
    for name, stats in dict(result["classes"]).items():
        attainment = float(stats["attainment"])
        if not 0.0 <= attainment <= 1.0:
            failures.append(f"class {name} attainment {attainment} "
                            "outside [0, 1]")
    for accel_type, utilization in dict(result["utilization_by_type"]).items():
        if float(utilization) < 0:
            failures.append(f"negative utilization for {accel_type}")
    return failures


def check_migrations(serial: List[object], sharded: List[object]) -> List[str]:
    """Checkpoint digests must agree across execution modes: the bytes a
    migration ships are part of the result, not an execution detail."""
    if serial != sharded:
        return [
            f"migration digest divergence: serial {serial} vs "
            f"sharded {sharded}"
        ]
    return []
