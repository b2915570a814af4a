"""Charge the host cost of one timed call to the layer that incurs it.

The input is the raw ``cProfile`` table of the traced repetition (the
profiler is switched on and off by the harness around the timed call;
nothing under ``src/`` changes).  Every function is charged to exactly one
bucket, so the buckets' self times add up to the profiled wall time:

* a *layer* is a package under ``src/repro`` (``sim``, ``interconnect``,
  ``mem``, ``core``, ``fpga``, ``accel``, ``platform``, ``hv``, ``guest``,
  ``cloud``, ``fleet``, ``serve``, ``parallel``); every other module of
  the repo lands in ``repro_other``;
* a *host bucket* is standard-library or numpy time: ``host.heapq``,
  ``host.asyncio`` (with the loop's epoll selector), ``host.ipc``
  (multiprocessing, pickle, struct, pipe reads and writes, poll),
  ``host.numpy`` and ``host.other``.

Call counts are exact and repeat run to run; self times carry the
profiler's overhead (``bench.trace_overhead``) and are for proportions.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

LAYERS = (
    "sim", "interconnect", "mem", "core", "fpga", "accel", "platform",
    "hv", "guest", "cloud", "fleet", "serve", "parallel",
)
HOST_BUCKETS = ("host.heapq", "host.asyncio", "host.ipc", "host.numpy", "host.other")
BUCKETS = LAYERS + ("repro_other",) + HOST_BUCKETS

_REPRO = "/src/repro/"
_IPC_BUILTINS = ("posix.read", "posix.write", "select.", "_pickle", "_struct")
_IPC_FILES = ("/multiprocessing/", "/pickle.py", "/queue.py")

#: Entry counts and cumulative times of public functions, from the same
#: profile: metric -> ((module path under src/repro, qualified name), ...).
#: A trailing ``.`` on the name matches every class's method of that name.
_ENTRY_POINTS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "sim.events_scheduled": (
        ("sim/engine.py", "Engine.call_at"), ("sim/engine.py", "Engine.call_after"),
    ),
    "sim.server_submits": (
        ("sim/port.py", "ThroughputServer.submit"),
        ("sim/port.py", "ThroughputServer.reserve"),
    ),
    "interconnect.dma_calls": (("interconnect/topology.py", "MemorySystem.dma"),),
    "interconnect.link_sends": (
        ("interconnect/link.py", "Link.send_to_memory"),
        ("interconnect/link.py", "Link.send_from_memory"),
    ),
    "mem.translates": (
        ("mem/iommu.py", "Iommu.translate_async"), ("mem/iommu.py", "Iommu.translate_sync"),
    ),
    "core.mux_pushes": (("core/mux_tree.py", "MuxNode.push"),),
    "core.auditor_dma": (("core/auditor.py", "Auditor.dma_sink"),),
    "fpga.dma_reads": (("fpga/afu.py", "DmaEngine.read"),),
    "fpga.dma_writes": (("fpga/afu.py", "DmaEngine.write"),),
    "platform.try_commits": (("platform/fastpath.py", "FastPath.try_commit"),),
    "hv.mmio_traps": (
        ("hv/hypervisor.py", "OptimusHypervisor.guest_mmio_write"),
        ("hv/hypervisor.py", "OptimusHypervisor.guest_mmio_read"),
    ),
    "hv.vm_creates": (
        ("hv/hypervisor.py", "OptimusHypervisor.create_vm"),
        ("hv/passthrough.py", "PassthroughHypervisor.create_vm"),
    ),
    "cloud.place_calls": (("cloud/provider.py", "CloudProvider.place"),),
    "cloud.evict_calls": (("cloud/provider.py", "CloudProvider.evict"),),
    "fleet.choose_calls": (("fleet/placement.py", ".choose"),),
    "fleet.decide_calls": (("fleet/admission.py", ".decide"), ("serve/slo.py", ".decide")),
    "serve.connects": (("serve/gateway.py", "Gateway.connect"),),
    "serve.decides": (("serve/slo.py", ".decide"),),
}
#: Entry points whose cumulative time is reported too: metric -> source.
_CUMULATIVE = {
    "mem.translate_cum_s": "mem.translates",
    "platform.try_commit_cum_s": "platform.try_commits",
    "cloud.place_cum_s": "cloud.place_calls",
    "fleet.choose_cum_s": "fleet.choose_calls",
    "serve.decide_cum_s": "serve.decides",
}
#: What :func:`attribute` reports besides the per-bucket self times and calls.
ENTRY_METRICS = tuple(_ENTRY_POINTS) + tuple(_CUMULATIVE)


def _bucket(code) -> str:
    """The one bucket a profiled function is charged to."""
    if isinstance(code, str):  # a builtin: "<built-in method _heapq.heappush>"
        if "_heapq" in code:
            return "host.heapq"
        if "_asyncio" in code or "select.epoll" in code:  # the loop's selector
            return "host.asyncio"
        if "numpy" in code:
            return "host.numpy"
        if any(token in code for token in _IPC_BUILTINS):
            return "host.ipc"
        return "host.other"
    filename = code.co_filename
    at = filename.find(_REPRO)
    if at >= 0:
        package = filename[at + len(_REPRO):].split("/", 1)[0]
        return package if package in LAYERS else "repro_other"
    if filename.endswith("/selectors.py"):
        # asyncio polls an epoll selector; multiprocessing waits on a poll one.
        return "host.ipc" if code.co_qualname.startswith("Poll") else "host.asyncio"
    if "/asyncio/" in filename:
        return "host.asyncio"
    if "/numpy/" in filename:
        return "host.numpy"
    if "/heapq.py" in filename:
        return "host.heapq"
    if any(token in filename for token in _IPC_FILES):
        return "host.ipc"
    return "host.other"


def _matches(code, module: str, name: str) -> bool:
    if isinstance(code, str) or not code.co_filename.endswith(_REPRO + module):
        return False
    qualname = code.co_qualname
    return qualname.endswith(name) if name.startswith(".") else qualname == name


def attribute(stats: Iterable) -> Tuple[Dict[str, float], List[Tuple[float, int, str]]]:
    """Reduce ``cProfile.Profile.getstats()`` to the per-layer metrics.

    Returns ``(metrics, top)``: ``<bucket>.self_s`` and ``<bucket>.calls``
    for every bucket (host buckets report only ``self_s``), the entry-point
    counts and cumulative times, ``repro.calls`` (Python calls into
    functions defined under ``src/repro``), and the twenty functions with
    the most self time as ``(self_s, calls, name)``.
    """
    self_s = dict.fromkeys(BUCKETS, 0.0)
    calls = dict.fromkeys(BUCKETS, 0)
    entry_calls = dict.fromkeys(_ENTRY_POINTS, 0)
    entry_cum = dict.fromkeys(_ENTRY_POINTS, 0.0)
    top: List[Tuple[float, int, str]] = []
    for entry in stats:
        code = entry.code
        bucket = _bucket(code)
        self_s[bucket] += entry.inlinetime
        calls[bucket] += entry.callcount
        if isinstance(code, str):
            label = code
        else:
            label = "/".join(code.co_filename.split("/")[-2:]) + ":" + code.co_qualname
            for metric, targets in _ENTRY_POINTS.items():
                if any(_matches(code, module, name) for module, name in targets):
                    entry_calls[metric] += entry.callcount
                    entry_cum[metric] += entry.totaltime
        top.append((entry.inlinetime, entry.callcount, label))
    top.sort(reverse=True)

    metrics: Dict[str, float] = {}
    for bucket in BUCKETS:
        metrics[f"{bucket}.self_s"] = self_s[bucket]
        if not bucket.startswith("host."):
            metrics[f"{bucket}.calls"] = calls[bucket]
    for metric in ENTRY_METRICS:
        if metric in _CUMULATIVE:
            metrics[metric] = entry_cum[_CUMULATIVE[metric]]
        else:
            metrics[metric] = entry_calls[metric]
    metrics["repro.calls"] = sum(
        calls[bucket] for bucket in BUCKETS if not bucket.startswith("host.")
    )
    return metrics, top[:20]
