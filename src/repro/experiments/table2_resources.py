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
from repro.experiments.harness import ResultTable
from repro.fpga.resources import SHELL_FOOTPRINT, monitor_footprint
from repro.fpga.synthesis import plan_mux_tree, synthesize


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


def utilization_gain(n_accelerators: int = 8) -> float:
    """Aggregate accelerator utilization gain from spatial multiplexing."""
    single = sum(p.footprint.alm_pct for p, _f in CATALOG.values()) / len(CATALOG)
    multi = 0.0
    for _name, (profile, _factory) in CATALOG.items():
        report = synthesize(
            [profile.footprint] * n_accelerators, [profile.character] * n_accelerators
        )
        multi += report.accelerators.alm_pct
    multi /= len(CATALOG)
    return multi / single


def main():
    table = run()
    table.show()
    print(f"mean accelerator-utilization gain at 8x: {utilization_gain():.2f}x")
    return table
