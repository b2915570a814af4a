"""Table 2 — FPGA resource utilization: pass-through vs 8x under OPTIMUS.

For every benchmark, synthesize (a) the pass-through configuration — the
shell plus one accelerator instance — and (b) the OPTIMUS configuration —
shell + hardware monitor + eight instances.  The monitor's own footprint
(6.16% ALM / 0.48% BRAM) and the shell's (23.44% / 6.57%) are fixed
platform components; the interesting outputs are the ~linear-with-routing-
overhead scaling of normal designs, MemBench's sub-linear packing, and
LinkedList's net-negative delta.
"""

from __future__ import annotations

from repro.accel.registry import CATALOG
from repro.experiments.harness import Claim, ResultTable
from repro.fpga.resources import SHELL_FOOTPRINT, monitor_footprint
from repro.fpga.synthesis import plan_mux_tree, synthesize

#: The paper's OPTIMUS-column accelerator rows (ALM %, eight instances).
PAPER_ALM_8X = {
    "AES": 27.80, "MD5": 34.27, "SHA": 18.16, "FIR": 15.77, "GRN": 12.53,
    "RSD": 17.93, "SW": 10.34, "GRS": 9.92, "GAU": 25.28, "SBL": 18.49,
    "SSSP": 15.73, "BTC": 8.99, "MB": 4.84, "LL": -0.24,
}


def run(*, n_accelerators: int = 8) -> ResultTable:
    table = ResultTable(
        f"Table 2 — resource utilization (%), PT vs OPTIMUS x{n_accelerators}",
        ["component", "alm_optimus", "alm_pt", "bram_optimus", "bram_pt"],
    )
    arrangement = plan_mux_tree(n_accelerators, radix=2, target_mhz=400.0)
    monitor = monitor_footprint(n_accelerators, arrangement.node_count)
    table.add("Shell", SHELL_FOOTPRINT.alm_pct, SHELL_FOOTPRINT.alm_pct,
              SHELL_FOOTPRINT.bram_pct, SHELL_FOOTPRINT.bram_pct)
    table.add("Hardware Monitor", monitor.alm_pct, 0.0, monitor.bram_pct, 0.0)

    for name, (profile, _factory) in CATALOG.items():
        pt_report = synthesize(
            [profile.footprint], [profile.character], with_monitor=False
        )
        optimus_report = synthesize(
            [profile.footprint] * n_accelerators,
            [profile.character] * n_accelerators,
        )
        table.add(
            name,
            optimus_report.accelerators.alm_pct,
            pt_report.accelerators.alm_pct,
            optimus_report.accelerators.bram_pct,
            pt_report.accelerators.bram_pct,
        )
    table.note("accelerator rows exclude shell+monitor, as in the paper's Table 2")
    return table


def _utilization_gain(table: ResultTable) -> float:
    """Mean accelerator ALM share at 8x over the single-instance mean."""
    optimus, pt = table.series("alm_optimus"), table.series("alm_pt")
    return sum(optimus[name] for name in CATALOG) / sum(pt[name] for name in CATALOG)


def _worst_alm_error(table: ResultTable) -> float:
    """Largest relative ALM error against the paper, LL (a net delta) aside."""
    ours = table.series("alm_optimus")
    return max(
        abs(ours[name] / paper - 1.0)
        for name, paper in PAPER_ALM_8X.items()
        if name != "LL"
    )


QUICK = {}

CLAIMS = (
    Claim("shell ALM %", 23.44, lambda t: t.series("alm_optimus")["Shell"],
          low=23.44, high=23.44, quick=True),
    Claim("hardware monitor ALM %", "6.16 (< 7)",
          lambda t: t.series("alm_optimus")["Hardware Monitor"],
          low=6.15, high=6.17, quick=True),
    # The paper's per-benchmark multipliers are idiosyncratic synthesis
    # outcomes (6.8x-8.4x of one instance); the uniform congestion model
    # lands within ~20% of every row.
    Claim("worst relative ALM error vs the paper's 8x rows", "Table 2",
          _worst_alm_error, high=0.22, quick=True),
    Claim("LinkedList ALM delta at 8x is a decrease (1 = yes)", PAPER_ALM_8X["LL"],
          lambda t: t.series("alm_optimus")["LL"] < 0, low=1.0, quick=True),
    Claim("mean accelerator-utilization gain at 8x", "roughly linear",
          _utilization_gain, low=6.0, high=9.0, quick=True),
)
