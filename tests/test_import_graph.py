"""Structural pin: a process imports only the layers it runs.

The MemBench/LinkedList datapath behind Figs. 4-6 and Tables 3-4 is pure
Python, and the CLI's parser needs only names.  Neither may load numpy,
the fleet stack, the sharded executor or the fuzzing oracle.  The fleet,
serve and chaos commands run the fleet stack but still no numpy and no
kernel but ``dsp``, and the pass-through baseline loads neither a kernel
nor an OPTIMUS-only layer (DESIGN.md §6, "Import graph").  Each probe runs
in a fresh interpreter, because pytest and the other test modules have
long since imported everything.  The must-not-load sets, the pass-through
probe script and the serving commands are CI's import-gate table
(``benchmarks/perf/import_gate.py``), read from that file.
"""

import importlib.util
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import repro
import repro.accel
import repro.analytic
import repro.core
import repro.faults
import repro.guest
import repro.hv
import repro.kernels
import repro.scenario

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: The probe table CI's import gate runs: its must-not-load sets, probe
#: scripts and serving commands are the ones this module checks.
_spec = importlib.util.spec_from_file_location(
    "import_gate", ROOT / "benchmarks" / "perf" / "import_gate.py"
)
gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gate)

#: Modules the datapath and the CLI parser must never load.
HEAVY = ("numpy", "repro.fleet", "repro.parallel", "repro.scenario.oracle")


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


def test_the_passthrough_stack_loads_no_kernel_and_no_optimus_layer():
    watched = HEAVY + gate.OPTIMUS_ONLY
    assert loaded_after(gate.passthrough_stream(functional=False), watched) == []


def test_the_probe_sees_the_kernel_a_functional_job_runs():
    # Positive control: encrypting a tile loads the AES kernel, and only it.
    loaded = loaded_after(gate.passthrough_stream(functional=True), gate.KERNELS_BUT_DSP)
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


@pytest.mark.parametrize(
    "argv", gate.FLEET_COMMANDS.values(), ids=gate.FLEET_COMMANDS.keys()
)
def test_serving_commands_never_load_numpy(argv):
    # Nor a kernel: placing a tenant builds its job, and no job computes.
    assert loaded_after(run_cli(argv), gate.SERVING) == []


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


#: Every package whose public names load on first access (``_LAZY``).
LAZY_PACKAGES = [
    repro, repro.accel, repro.analytic, repro.core, repro.faults, repro.guest,
    repro.hv, repro.kernels, repro.scenario,
]


@pytest.mark.parametrize("package", LAZY_PACKAGES, ids=lambda package: package.__name__)
def test_every_public_name_resolves(package):
    for name in package.__all__:
        assert getattr(package, name) is not None, name
        # Cached in the package, so its ``__getattr__`` never runs again.
        assert name in vars(package), name
    with pytest.raises(AttributeError, match=f"module '{package.__name__}' has no"):
        getattr(package, "no_such_name")


def test_a_lazy_name_is_imported_on_first_access_only():
    module = types.ModuleType("lazy_probe")
    hook = repro.lazy_exports(vars(module), {"dumps": "json"})
    calls = []

    def counting_hook(name):
        calls.append(name)
        return hook(name)

    module.__getattr__ = counting_hook
    assert "dumps" not in vars(module)
    assert module.dumps is json.dumps
    assert module.dumps is json.dumps
    assert calls == ["dumps"]
    assert vars(module)["dumps"] is json.dumps
    with pytest.raises(AttributeError, match="module 'lazy_probe' has no attribute 'loads'"):
        module.loads
    assert calls == ["dumps", "loads"]


@pytest.fixture(scope="module")
def eager_names() -> dict:
    """Package -> the public names a fresh import binds before any access."""
    script = (
        "import importlib, json, types\n"
        f"packages = {[package.__name__ for package in LAZY_PACKAGES]!r}\n"
        "print(json.dumps({name: sorted(\n"
        "    key for key, value in vars(importlib.import_module(name)).items()\n"
        "    if not key.startswith('_') and key != 'lazy_exports'\n"
        "    and not isinstance(value, types.ModuleType)) for name in packages}))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    return json.loads(done.stdout)


@pytest.mark.parametrize("package", LAZY_PACKAGES, ids=lambda package: package.__name__)
def test_all_is_the_eager_names_then_the_lazy_table(package, eager_names):
    eager = [name for name in package.__all__ if name not in package._LAZY]
    assert package.__all__ == [*eager, *package._LAZY]
    assert set(eager) - {"__version__"} == set(eager_names[package.__name__])
