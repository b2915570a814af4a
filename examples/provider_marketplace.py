#!/usr/bin/env python3
"""A provider's accelerator marketplace, end to end (§1, §3, §8).

The deployment story OPTIMUS targets: a cloud provider picks a mix of
popular accelerators from its library, synthesizes the configuration
(validated against the 400 MHz / 8-slot / resource constraints), boots an
OPTIMUS platform, and admits customers:

* spatial placement while free slots of the requested type exist,
* temporal oversubscription (preemptive time slicing) once they run out,
* live rebalancing onto freed slots when tenants leave.

Run:  python examples/provider_marketplace.py
"""

from repro.accel.streaming import REG_LEN, REG_PARAM0, REG_PARAM1, REG_SRC
from repro.cloud import AcceleratorLibrary, CloudProvider, FpgaConfiguration
from repro.mem import MB
from repro.platform import PlatformParams
from repro.sim.clock import ms, us


def start_membench(tenant) -> None:
    ws = tenant.handle.alloc_buffer(8 * MB)
    for reg, value in ((REG_SRC, ws), (REG_LEN, 8 * MB), (REG_PARAM0, 0), (REG_PARAM1, 0)):
        tenant.handle.mmio_write(reg, value)
    tenant.handle.start()


def main() -> None:
    library = AcceleratorLibrary()
    print("accelerator library:")
    for entry in library.entries()[:6]:
        print(f"  {entry.name:5} {entry.description:34} "
              f"ALM {entry.alm_pct:4.2f}%")
    print("  ... (14 products total)\n")

    config = FpgaConfiguration.synthesize(["MB", "MB", "AES", "SHA"])
    usage = config.utilization_summary()
    print(f"synthesized configuration {config.slots}: "
          f"ALM {usage['alm_pct']:.1f}%, BRAM {usage['bram_pct']:.1f}% — fits\n")

    provider = CloudProvider(config, params=PlatformParams(time_slice_ps=us(500)))
    tenants = []
    for i in range(3):
        tenant = provider.place(f"cust{i}", "MB", window_bytes=16 * MB,
                                job_kwargs={"seed": 0x100 + i, "lines_per_request": 16})
        start_membench(tenant)
        kind = "oversubscribed" if tenant.oversubscribed else "dedicated"
        print(f"placed {tenant.name} on slot {tenant.physical_index} ({kind})")
        tenants.append(tenant)

    provider.platform.run_for(ms(3))
    print("\noccupancy:", {k: v["tenants"] for k, v in provider.occupancy_report().items()})

    departing = tenants[1]
    print(f"\n{departing.name} leaves; rebalancing...")
    provider.evict(departing)
    moved = provider.rebalance()
    print(f"{moved} tenant(s) migrated; occupancy now:",
          {k: v["tenants"] for k, v in provider.occupancy_report().items()})

    provider.platform.run_for(ms(2))
    for tenant in (tenants[0], tenants[2]):
        print(f"  {tenant.name}: {tenant.vaccel.job.ops_done} requests, "
              f"{tenant.vaccel.preempt_count} preemptions, "
              f"{getattr(tenant.vaccel, 'migrations', 0)} migrations")
    print("\nthe marketplace runs: synthesis-checked configuration, spatial +")
    print("temporal placement, and live rebalancing over OPTIMUS primitives.")


if __name__ == "__main__":
    main()
