"""Structural pin: a process imports only the layers it runs.

The MemBench/LinkedList datapath behind Figs. 4-6 and Tables 3-4 is pure
Python, and the CLI's parser needs only names.  Neither may load numpy,
the fleet stack, the sharded executor or the fuzzing oracle.  The fleet,
serve and chaos commands run the fleet stack but still no numpy and no
kernel but ``dsp``, and the pass-through baseline loads neither a kernel
nor an OPTIMUS-only layer (DESIGN.md §6, "Import graph").  Each probe runs
in a fresh interpreter, because pytest and the other test modules have
long since imported everything.
"""

import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro.accel
import repro.analytic
import repro.core
import repro.faults
import repro.guest
import repro.hv
import repro.kernels
import repro.scenario

SRC = Path(__file__).resolve().parents[1] / "src"

#: Modules the datapath and the CLI parser must never load.
HEAVY = ("numpy", "repro.fleet", "repro.parallel", "repro.scenario.oracle")

#: Every kernel but ``dsp``, whose ``Xorshift64Star`` draws MemBench's and
#: LinkedList's addresses: a job imports its kernel when it first computes.
KERNELS_BUT_DSP = tuple(
    f"repro.kernels.{module.name}"
    for module in pkgutil.iter_modules(repro.kernels.__path__)
    if module.name != "dsp"
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


def loaded_after(script: str, watched: tuple = HEAVY) -> list:
    """Which ``watched`` modules a fresh interpreter holds after ``script``."""
    probe = (
        f"{script}\n"
        "import json, sys\n"
        f"print(json.dumps([m for m in {watched!r} if m in sys.modules]))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def test_the_datapath_never_loads_numpy():
    script = (
        "from repro.experiments.harness import make_stack\n"
        "from repro.mem import MB\n"
        "from repro.sim.clock import us\n"
        "stack = make_stack('optimus', n_accelerators=2)\n"
        "jobs = [stack.launch('MB', physical_index=0, working_set=64 * MB),\n"
        "        stack.launch('LL', physical_index=1, working_set=64 * MB)]\n"
        # Jobs issue their first lines ~10 us in, after the guest boots.
        "stack.run_for(us(20))\n"
        "assert all(job.progress() > 0 for job in jobs)\n"
        "stream = make_stack('passthrough')\n"
        "job = stream.launch('AES', working_set=4 * MB)\n"
        "stream.run_for(us(20))\n"
        "assert job.progress_bytes() > 0\n"
    )
    assert "numpy" not in loaded_after(script)


def passthrough_stream(functional: bool) -> str:
    """An AES job streaming for 20 us on the pass-through stack."""
    return (
        "from repro.accel import AesJob\n"
        "from repro.accel.streaming import REG_DST, REG_LEN, REG_SRC\n"
        "from repro.guest import NativeAccelerator\n"
        "from repro.hv import PassthroughHypervisor\n"
        "from repro.mem import MB\n"
        "from repro.platform import PlatformMode, build_platform\n"
        "from repro.sim.clock import us\n"
        "platform = build_platform(mode=PlatformMode.PASSTHROUGH)\n"
        "hypervisor = PassthroughHypervisor(platform)\n"
        "handle = NativeAccelerator(hypervisor, window_bytes=64 * MB)\n"
        f"job = AesJob(functional={functional})\n"
        "job.regs.update({REG_SRC: handle.alloc_buffer(MB),\n"
        "                 REG_DST: handle.alloc_buffer(MB), REG_LEN: MB})\n"
        "hypervisor.start_job(job)\n"
        "platform.run_for(us(20))\n"
        "assert job.progress_units() > 0\n"
    )


def test_the_passthrough_stack_loads_no_kernel_and_no_optimus_layer():
    watched = HEAVY + OPTIMUS_ONLY
    assert loaded_after(passthrough_stream(functional=False), watched) == []


def test_the_probe_sees_the_kernel_a_functional_job_runs():
    # Positive control: encrypting a tile loads the AES kernel, and only it.
    loaded = loaded_after(passthrough_stream(functional=True), KERNELS_BUT_DSP)
    assert loaded == ["repro.kernels.aes128"]


def run_cli(argv: list) -> str:
    """A probe script that runs ``python -m repro *argv`` in-process."""
    return (
        "import contextlib, io, runpy, sys\n"
        f"sys.argv = ['repro', *{argv!r}]\n"
        "with contextlib.redirect_stdout(io.StringIO()), "
        "contextlib.redirect_stderr(io.StringIO()):\n"
        "    try:\n"
        "        runpy.run_module('repro', run_name='__main__', alter_sys=True)\n"
        "    except SystemExit as stop:\n"
        "        assert not stop.code, stop.code\n"
    )


@pytest.mark.parametrize(
    "argv",
    [["--help"], ["list"], ["run", "table2", "--no-cache", "--json"]],
    ids=["help", "list", "run-table2"],
)
def test_the_cli_loads_only_what_the_command_runs(argv):
    assert loaded_after(run_cli(argv)) == []


#: Commands that serve tenants: they run the fleet stack, never numpy.
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


@pytest.mark.parametrize("argv", FLEET_COMMANDS.values(), ids=FLEET_COMMANDS.keys())
def test_serving_commands_never_load_numpy(argv):
    # Nor a kernel: placing a tenant builds its job, and no job computes.
    assert loaded_after(run_cli(argv), ("numpy", *KERNELS_BUT_DSP)) == []


def test_the_serving_packages_import_without_numpy():
    script = "import repro.fleet, repro.serve, repro.parallel"
    assert loaded_after(script) == ["repro.fleet", "repro.parallel"]


def test_building_every_fleet_accelerator_never_loads_numpy():
    script = (
        "from repro.cloud.library import AcceleratorLibrary\n"
        "from repro.fleet.cluster import DEFAULT_TEMPLATES\n"
        "library = AcceleratorLibrary()\n"
        "for name in sorted({t for template in DEFAULT_TEMPLATES for t in template}):\n"
        "    library.make_job(name)\n"
    )
    assert "numpy" not in loaded_after(script)


def test_the_probe_sees_numpy_when_it_is_loaded():
    # Positive control: the vectorised capacity planner computes with
    # numpy, so a probe that reports nothing here could not catch a
    # regression either.
    assert loaded_after("import repro.analytic.capacity") == ["numpy", "repro.fleet"]


@pytest.mark.parametrize(
    "package",
    [
        repro.accel, repro.analytic, repro.core, repro.faults, repro.guest, repro.hv,
        repro.kernels, repro.scenario,
    ],
    ids=lambda package: package.__name__,
)
def test_every_public_name_resolves(package):
    for name in package.__all__:
        assert getattr(package, name) is not None, name
    with pytest.raises(AttributeError):
        getattr(package, "no_such_name")
