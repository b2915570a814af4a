"""Cross-validation: the capacity planner against the fleet DES.

Every assertion here is a fidelity contract with a declared tolerance:
``FLEET_BANDS`` states the capacity planner's bands against the fleet
DES in the contended (fluid) regime.  The fleet scenarios run the fluid
model far above nominal saturation, where every admission path
(diffusion blocking, queue aging, ladder expiry, queue-full shedding) is
exercised.  A failure here means real divergence between the two
fidelities — exactly what the suite exists to catch.
"""

import pytest

from repro.analytic import CapacityConfig, capacity_des, plan_capacity

#: Stated bands for the capacity planner vs the fleet DES under
#: contention (the fluid regime; the exact regime is bit-for-bit and
#: pinned in tests/test_capacity.py).
FLEET_BANDS = {
    "placements": 0.05,  # relative
    "mean_ps": 0.10,  # relative
    "p99_ps": 0.10,  # relative
    "attainment": 0.10,  # absolute, per class
    "rejection_rate": 0.02,  # absolute
}


@pytest.fixture(scope="module")
def fleet_pairs():
    """(analytic, DES) envelope pairs for contended fleet scenarios.

    Module-scoped: the DES arms dominate this file's runtime, so every
    band assertion reads the same two serve() runs.
    """
    pairs = {}
    for load in (4.5, 6.0):
        config = CapacityConfig(
            tenants=5_000, nodes=8, load=load, seed=7, bootstrap=0
        )
        pairs[load] = (plan_capacity(config), capacity_des(config))
    return pairs


class TestFleetScenarioBands:
    def test_fluid_regime_is_actually_exercised(self, fleet_pairs):
        for analytic, des in fleet_pairs.values():
            assert analytic["engine"] == "fluid"
            assert des["rejection_rate"] > 0.1  # genuinely contended

    def test_placements_within_band(self, fleet_pairs):
        for analytic, des in fleet_pairs.values():
            relative = abs(analytic["placements"] / des["placements"] - 1)
            assert relative < FLEET_BANDS["placements"]

    def test_latency_mean_and_p99_within_band(self, fleet_pairs):
        for analytic, des in fleet_pairs.values():
            for stat, band in (("mean", "mean_ps"), ("p99", "p99_ps")):
                an = analytic["latency_ps"][stat]
                ref = des["latency_ps"][stat]
                assert abs(an / ref - 1) < FLEET_BANDS[band], (stat, an, ref)

    def test_rejection_rate_within_band(self, fleet_pairs):
        for analytic, des in fleet_pairs.values():
            delta = abs(analytic["rejection_rate"] - des["rejection_rate"])
            assert delta < FLEET_BANDS["rejection_rate"]

    def test_per_class_attainment_within_band(self, fleet_pairs):
        for analytic, des in fleet_pairs.values():
            for name, stats in analytic["classes"].items():
                delta = abs(
                    stats["attainment"] - des["classes"][name]["attainment"]
                )
                assert delta < FLEET_BANDS["attainment"], (name, delta)

    def test_rejection_reasons_agree_on_the_dominant_mode(self, fleet_pairs):
        # Under sustained overload both fidelities must agree that the
        # bounded queue, not ladder expiry, is what sheds load.
        for analytic, des in fleet_pairs.values():
            assert (
                analytic["rejections"]["queue_full"]
                > 10 * analytic["rejections"]["retries_exhausted"]
            )
            assert (
                des["rejections"]["queue_full"]
                > 10 * des["rejections"]["retries_exhausted"]
            )
