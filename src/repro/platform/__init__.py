"""Platform parameters and assembly."""

from repro.platform.builder import Platform, PlatformMode, build_platform
from repro.platform.params import PlatformParams

__all__ = [
    "Platform",
    "PlatformMode",
    "PlatformParams",
    "build_platform",
]
