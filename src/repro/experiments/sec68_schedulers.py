"""§6.8 — fairness of temporal multiplexing: scheduler policy enforcement.

OPTIMUS ships three software schedulers (unweighted round-robin, weighted
time slices, strict priority).  The experiment measures each virtual
accelerator's actual share of physical-accelerator time across varying
oversubscription factors and slice lengths, and compares it with the
share the policy promises.  The paper reports actual execution times
within 0.32% of expected on average, 1.42% worst case.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments.harness import Claim, OptimusStack, ResultTable
from repro.hv.scheduler import (
    PriorityScheduler,
    RoundRobinScheduler,
    WeightedScheduler,
)
from repro.mem import MB
from repro.platform import PlatformParams
from repro.sim.clock import ms


def _measure_shares(
    policy_name: str,
    n_jobs: int,
    *,
    slice_ms: float,
    run_ms: float,
    weights: Optional[Dict[int, float]] = None,
    priorities: Optional[Dict[int, int]] = None,
) -> Tuple[Dict[int, float], Dict[int, float]]:
    """Returns (measured shares, expected shares) keyed by vaccel id."""
    params = PlatformParams(time_slice_ps=ms(slice_ms))
    stack = OptimusStack(params, n_accelerators=1)
    jobs = [
        stack.launch(
            "MB",
            physical_index=0,
            working_set=16 * MB,
            job_kwargs={
                "functional": False,
                "seed": 0x5EED + 97 * i,
                "lines_per_request": 64,
            },
        )
        for i in range(n_jobs)
    ]
    manager = stack.hypervisor.physical[0]
    slice_ps = ms(slice_ms)
    if policy_name == "round-robin":
        manager.scheduler = RoundRobinScheduler(slice_ps)
    elif policy_name == "weighted":
        manager.scheduler = WeightedScheduler(weights or {}, slice_ps)
    else:
        manager.scheduler = PriorityScheduler(priorities or {}, slice_ps)

    stack.run_for(ms(run_ms))
    vaccels = [j.vaccel for j in jobs]
    busy = {va.vaccel_id: va.utilization.current_busy_ps() for va in vaccels}
    total = sum(busy.values()) or 1
    measured = {vid: b / total for vid, b in busy.items()}
    expected = manager.scheduler.expected_shares(vaccels)
    return measured, expected


def run(
    *,
    oversubscription: Sequence[int] = (2, 4),
    slice_ms: float = 2.0,
    run_ms: float = 60.0,
) -> ResultTable:
    table = ResultTable(
        "§6.8 — scheduler policy enforcement (share of accelerator time)",
        ["policy", "jobs", "vaccel", "measured_%", "expected_%", "error_pp"],
    )
    errors: List[float] = []
    for n_jobs in oversubscription:
        weights = {i: (3.0 if i == 0 else 1.0) for i in range(n_jobs)}
        priorities = {i: (5 if i < 2 else 0) for i in range(n_jobs)}
        for policy, kwargs in (
            ("round-robin", {}),
            ("weighted", {"weights": weights}),
            ("priority", {"priorities": priorities}),
        ):
            measured, expected = _measure_shares(
                policy, n_jobs, slice_ms=slice_ms, run_ms=run_ms, **kwargs
            )
            for vid in sorted(measured):
                error = abs(measured[vid] - expected[vid]) * 100
                errors.append(error)
                table.add(
                    policy, n_jobs, vid, measured[vid] * 100, expected[vid] * 100, error
                )
    if errors:
        table.note(
            f"mean error {sum(errors) / len(errors):.2f} pp, worst {max(errors):.2f} pp "
            "(paper: 0.32% mean, 1.42% worst)"
        )
    return table


QUICK = {"oversubscription": [2], "slice_ms": 1.0, "run_ms": 10.0}


def _starved_share(table: ResultTable) -> float:
    """Largest measured share among vaccels strict priority starves."""
    return max(
        row[3] for row in table.rows if row[0] == "priority" and row[4] == 0.0
    )


CLAIMS = (
    # Our runs are ~10^4 shorter than the paper's, hence the headroom.
    Claim("mean share error, pp", 0.32,
          lambda t: sum(t.column("error_pp")) / len(t.rows), high=2.0),
    Claim("worst share error, pp", 1.42,
          lambda t: max(t.column("error_pp")), high=6.0),
    Claim("worst share error on a short run, pp", 1.42,
          lambda t: max(t.column("error_pp")), high=12.0, quick=True),
    # Strict priority: the high-priority pair owns the accelerator.
    Claim("largest share of a starved low-priority vaccel, %", 0.0,
          _starved_share, high=3.0),
)
