"""Fleet layer: many OPTIMUS FPGAs served as one request-driven cluster.

The paper stops at one FPGA: :class:`repro.cloud.CloudProvider` places
tenants onto a single configured device.  Real providers run *fleets* of
heterogeneous FPGAs behind one admission point (SYNERGY, arXiv:2109.02484,
virtualizes FPGAs cluster-wide; EMiX, arXiv:2604.27012, partitions work
beyond single-device capacity).  This package adds that altitude without
touching the single-node model:

* :mod:`repro.fleet.node` — one ``CloudProvider`` + ``Platform`` wrapped as
  a schedulable node with capacity and utilization accounting;
* :mod:`repro.fleet.cluster` — N heterogeneous nodes behind one API, opened
  (real or sharded) by :func:`open_fleet`;
* :mod:`repro.fleet.placement` — pluggable policies (first-fit, best-fit,
  config-affinity) reusing the paper's spatial-then-temporal logic;
* :mod:`repro.fleet.admission` — bounded admission queue, rejection, and
  retry-with-backoff, plus the event-driven serving loop;
* :mod:`repro.fleet.traffic` — deterministic open-loop tenant request
  streams (seeded arrivals, mixed accelerator types, session lifetimes);
* :mod:`repro.fleet.metrics` — fleet-wide counters, placement-latency
  percentiles, and time-weighted per-type utilization.

Fault tolerance (ISSUE 4): nodes carry a :class:`NodeHealth` state
machine, eviction is a typed contract (:class:`EvictedPlacement` /
:class:`repro.errors.UnknownTenantError`), and the serving loop re-places
or cleanly fails sessions displaced by crashes injected through
:mod:`repro.faults`.

Everything is driven in *fleet simulated time* (integer picoseconds, the
same unit as :mod:`repro.sim.clock`): placement is a control-plane
operation, so the per-node packet simulators stay idle while the fleet
loop advances through arrivals, departures, and retries.
"""

from repro.fleet.admission import (
    ADMIT,
    AdmissionConfig,
    AdmissionDecision,
    AdmissionPolicy,
    FleetObserver,
    FleetService,
    ServeResult,
    request_jitter_rng,
)
from repro.fleet.autoscale import AutoscaleConfig, Autoscaler
from repro.fleet.cluster import DEFAULT_TEMPLATES, FleetCluster, open_fleet
from repro.fleet.metrics import FleetMetrics
from repro.fleet.node import EvictedPlacement, FleetNode, NodeHealth, NodeSpec
from repro.fleet.ops import (
    CrashReport,
    DrainReport,
    FleetOps,
    MigrationOutcome,
    RebalanceReport,
)
from repro.fleet.outcomes import (
    ACCEPTED_OUTCOMES,
    SERVED_OUTCOMES,
    Outcome,
    Resolution,
    rejected,
)
from repro.fleet.placement import (
    POLICIES,
    BestFit,
    ConfigAffinity,
    FirstFit,
    PlacementPolicy,
    make_policy,
)
from repro.fleet.traffic import TenantRequest, TrafficGenerator, TrafficProfile

__all__ = [
    "ACCEPTED_OUTCOMES",
    "ADMIT",
    "AdmissionConfig",
    "AdmissionDecision",
    "AdmissionPolicy",
    "AutoscaleConfig",
    "Autoscaler",
    "BestFit",
    "ConfigAffinity",
    "CrashReport",
    "DEFAULT_TEMPLATES",
    "DrainReport",
    "EvictedPlacement",
    "FirstFit",
    "FleetCluster",
    "FleetMetrics",
    "FleetNode",
    "FleetObserver",
    "FleetOps",
    "FleetService",
    "MigrationOutcome",
    "NodeHealth",
    "NodeSpec",
    "Outcome",
    "POLICIES",
    "PlacementPolicy",
    "RebalanceReport",
    "Resolution",
    "SERVED_OUTCOMES",
    "ServeResult",
    "TenantRequest",
    "TrafficGenerator",
    "TrafficProfile",
    "make_policy",
    "open_fleet",
    "rejected",
    "request_jitter_rng",
]
