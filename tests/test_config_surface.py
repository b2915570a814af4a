"""The config objects take only the knobs a caller turns.

Each class's fields are what experiments, the CLI and the fuzzer set; its
calibrated values are class constants that read like fields but are not
constructor arguments, and values that nothing read are gone.
"""

import dataclasses

import pytest

from repro.fleet.autoscale import AutoscaleConfig
from repro.fleet.traffic import TrafficProfile
from repro.mem.address import CACHE_LINE_BYTES
from repro.platform import PlatformParams
from repro.serve.trace import ServeProfile

# class -> (knobs, number of class constants, deleted names)
SURFACE = {
    PlatformParams: (
        {
            "page_size",
            "speculative_region_opt",
            "conflict_mitigation",
            "time_slice_ps",
            "preemption_timeout_ps",
            "fast_path",
        },
        28,
        {"cpu_ghz"},
    ),
    ServeProfile: ({"load", "followup_prob", "diurnal_amplitude", "burst_prob"}, 10, set()),
    TrafficProfile: ({"load", "mix", "mean_session_ps", "class_mix"}, 1, set()),
    AutoscaleConfig: (
        {
            "interval_ps",
            "high_watermark",
            "queue_high",
            "min_active_nodes",
            "proactive_evacuation",
            "standby_nodes",
        },
        2,
        {"seed"},
    ),
}


def _class_constants(cls):
    return {
        name
        for name, annotation in vars(cls)["__annotations__"].items()
        if str(annotation).startswith("ClassVar")
    }


def _constructors(cls):
    yield cls
    if cls is PlatformParams:
        yield PlatformParams().copy


@pytest.mark.parametrize("cls", list(SURFACE), ids=lambda cls: cls.__name__)
def test_only_the_knobs_are_settable(cls):
    knobs, n_constants, deleted = SURFACE[cls]
    assert {spec.name for spec in dataclasses.fields(cls)} == knobs
    constants = _class_constants(cls)
    assert len(constants) == n_constants
    instance = cls()
    for name in constants:
        assert getattr(instance, name) == getattr(cls, name)
    for name in deleted:
        assert not hasattr(instance, name)
    for name in constants | deleted:
        for construct in _constructors(cls):
            with pytest.raises(TypeError):
                construct(**{name: getattr(cls, name, 0)})


def test_cache_line_is_the_request_granularity():
    assert PlatformParams().cache_line == CACHE_LINE_BYTES
