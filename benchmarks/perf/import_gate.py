"""Deterministic start-up gate: which modules each command loads, and how many.

Wall clock is noise on a 1-2 core CI host; the set of modules a process
imports is exact run to run.  Each probe runs ``python -X importtime`` in a
fresh interpreter (DESIGN.md §6, "Import graph") and

* fails if it loads a module its process must never load: numpy or the
  fleet stack in the CLI parser and the datapath harness; numpy, or a
  kernel other than ``dsp`` (MemBench and LinkedList draw their addresses
  from its ``Xorshift64Star``), in the serving commands; the hardware
  monitor, the OPTIMUS hypervisor layers or any kernel in the pass-through
  baseline;
* with ``--check``, fails if it loads more ``repro.*`` modules than the
  recording;
* prints its module counts and its ten largest cumulative imports either
  way, so a start-up regression shows in the log before it trips anything.

The must-not-load sets and probe scripts here are the one table:
``tests/test_import_graph.py`` loads this file and runs the same probes
under pytest.

Usage::

    python benchmarks/perf/import_gate.py                    # print the counts
    python benchmarks/perf/import_gate.py --check benchmarks/baselines/imports_ci.json
    python benchmarks/perf/import_gate.py --record benchmarks/baselines/imports_ci.json
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

#: What the CLI parser and the MemBench/LinkedList datapath never load.
DATAPATH = ("numpy", "repro.fleet")

#: Every kernel but ``dsp``: only a job that computes a payload loads one.
KERNELS_BUT_DSP = tuple(
    sorted(
        f"repro.kernels.{path.stem}"
        for path in (SRC / "repro" / "kernels").glob("*.py")
        if path.stem not in ("__init__", "dsp")
    )
)

#: What the pass-through baseline never loads: it has no hardware monitor,
#: no shadow paging and no preemption, and a timing-only job no kernel.
OPTIMUS_ONLY = (
    "repro.kernels",
    "repro.core.auditor",
    "repro.core.monitor",
    "repro.core.mux_tree",
    "repro.core.vcu",
    "repro.hv.checkpoint",
    "repro.hv.hypervisor",
    "repro.hv.migration",
    "repro.hv.preemption",
    "repro.hv.scheduler",
    "repro.hv.shadow",
)

#: What the serving commands never load: they build jobs but never compute.
SERVING = ("numpy", *KERNELS_BUT_DSP)

#: Commands that serve tenants: they run the fleet stack, never ``SERVING``.
FLEET_COMMANDS = {
    "fleet": ["fleet", "--nodes", "4", "--requests", "120", "--json"],
    "fleet-sharded": [
        "fleet", "--nodes", "4", "--requests", "120", "--json", "--shards", "2",
    ],
    "serve": ["serve", "--quick", "--json"],
    "chaos-fleet": [
        "chaos", "fleet", "--plan", "crash-quick", "--nodes", "2",
        "--requests", "60", "--json",
    ],
}


def passthrough_stream(functional: bool) -> str:
    """An AES job streaming for 20 us on the pass-through stack."""
    return f"""\
from repro.accel import AesJob
from repro.accel.streaming import REG_DST, REG_LEN, REG_SRC
from repro.guest import NativeAccelerator
from repro.hv import PassthroughHypervisor
from repro.mem import MB
from repro.platform import PlatformMode, build_platform
from repro.sim.clock import us
platform = build_platform(mode=PlatformMode.PASSTHROUGH)
hypervisor = PassthroughHypervisor(platform)
handle = NativeAccelerator(hypervisor, window_bytes=64 * MB)
job = AesJob(functional={functional})
job.regs.update({{REG_SRC: handle.alloc_buffer(MB), REG_DST: handle.alloc_buffer(MB), REG_LEN: MB}})
hypervisor.start_job(job)
platform.run_for(us(20))
assert job.progress_units() > 0
"""


def probes() -> dict:
    """Label -> (interpreter arguments, modules the process must not load)."""
    table = {
        "python -m repro --help": (["-m", "repro", "--help"], DATAPATH),
        "import repro.experiments.harness": (
            ["-c", "import repro.experiments.harness"], DATAPATH),
    }
    for command in ("run", "fleet", "serve", "capacity", "chaos", "fuzz"):
        table[f"python -m repro {command} --help"] = (
            ["-m", "repro", command, "--help"], DATAPATH)
    for argv in FLEET_COMMANDS.values():
        table[f"python -m repro {' '.join(argv)}"] = (["-m", "repro", *argv], SERVING)
    table["pass-through AES stream (non-functional)"] = (
        ["-c", passthrough_stream(functional=False)], (*DATAPATH, *OPTIMUS_ONLY))
    return table


def imported(argv: list) -> list:
    """``(cumulative_us, module)`` for every import of a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-X", "importtime", *argv],
        capture_output=True, text=True, check=True, timeout=300,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    rows = []
    for line in done.stderr.splitlines():
        if line.startswith("import time:") and "self [us]" not in line:
            _self_us, cumulative_us, name = line[len("import time:"):].split("|")
            rows.append((int(cumulative_us), name.strip()))
    return rows


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", metavar="BASELINE",
                        help="fail when a probe loads more repro modules than this file")
    parser.add_argument("--record", metavar="BASELINE", help="write this file")
    options = parser.parse_args()
    counts, problems = {}, []
    for label, (argv, forbidden) in probes().items():
        rows = imported(argv)
        names = {name for _, name in rows}
        counts[label] = sum(1 for name in names if name == "repro" or name.startswith("repro."))
        print(f"== {label}: {len(names)} modules, {counts[label]} repro; "
              "largest cumulative imports (us):")
        for cumulative_us, name in sorted(rows, reverse=True)[:10]:
            print(f"  {cumulative_us:>8}  {name}")
        bad = sorted(name for name in names for top in forbidden
                     if name == top or name.startswith(top + "."))
        if bad:
            problems.append(f"{label} imports {', '.join(bad[:5])}")
    if options.record:
        document = {
            "_comment": (
                "repro.* modules each import-gate probe loads "
                "(benchmarks/perf/import_gate.py --check): a probe that loads "
                "more fails CI perf-smoke. Module counts are exact run to run, "
                "where start-up wall clock on a 1-2 core host is not. "
                "Re-record with --record after a change that loads fewer "
                "modules, or one that must load more, and say so in the PR."
            ),
            **counts,
        }
        Path(options.record).write_text(json.dumps(document, indent=2) + "\n")
    if options.check:
        recorded = json.loads(Path(options.check).read_text())
        for label, count in counts.items():
            if label not in recorded:
                problems.append(f"{label}: no recorded count (re-record with --record)")
            elif count > recorded[label]:
                problems.append(f"{label}: loads {count} repro modules, recorded {recorded[label]}")
    if problems:
        print("import gate FAILED:\n  " + "\n  ".join(problems), file=sys.stderr)
        return 1
    print("import gate ok: " + json.dumps(counts, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
