"""Image-filter benchmark accelerators: GAU, GRS, SBL (Table 1).

All three are row-streaming pipelines over 8-bit images.  The paper names
them (with SSSP) as the benchmarks that stop scaling past four instances
because the interconnect saturates (Fig. 7) — so their per-cycle rates
are the highest of the streaming set (~3.8-4 GB/s demand each).

Shared-memory layout: row-major images.  GRS consumes RGBA (4 B/pixel)
and emits luma (1 B/pixel); GAU and SBL consume and emit grayscale.  The
3x3 stencils carry two rows of history across tiles, like the line
buffers of the hardware pipeline.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.accel.base import AcceleratorProfile
from repro.accel.streaming import REG_PARAM0, StreamingJob
from repro.fpga.resources import ResourceFootprint, SynthesisCharacter

if TYPE_CHECKING:
    import numpy as np

GAU_PROFILE = AcceleratorProfile(
    name="GAU",
    description="Gaussian Image Filter",
    loc_verilog=2406,
    freq_mhz=200.0,
    footprint=ResourceFootprint(alm_pct=3.41, bram_pct=2.60),
    character=SynthesisCharacter.NORMAL,
    max_outstanding=72,  # line buffers bound outstanding fetches
    state_bytes=8192,  # two row buffers
)

GRS_PROFILE = AcceleratorProfile(
    name="GRS",
    description="Grayscale Image Filter",
    loc_verilog=2266,
    freq_mhz=200.0,
    footprint=ResourceFootprint(alm_pct=1.32, bram_pct=2.28),
    character=SynthesisCharacter.NORMAL,
    max_outstanding=72,
    state_bytes=4096,
)

SBL_PROFILE = AcceleratorProfile(
    name="SBL",
    description="Sobel Image Filter",
    loc_verilog=2451,
    freq_mhz=200.0,
    footprint=ResourceFootprint(alm_pct=2.39, bram_pct=2.55),
    character=SynthesisCharacter.NORMAL,
    max_outstanding=72,
    state_bytes=8192,
)

#: Default image row width in pixels (grayscale bytes); guests override
#: via REG_PARAM0.
DEFAULT_ROW_PIXELS = 1024


class _StencilJob(StreamingJob):
    """Shared machinery for the 3x3 stencil filters (GAU, SBL)."""

    row_pixels = DEFAULT_ROW_PIXELS

    def __init__(self, *, functional: bool = True) -> None:
        super().__init__(functional=functional)
        self._tail = self._empty_tail()

    def _empty_tail(self) -> np.ndarray:
        import numpy as np

        return np.zeros((0, self.row_pixels), dtype=np.uint8)

    def configure(self, registers) -> None:
        super().configure(registers)
        if registers.get(REG_PARAM0):
            self.row_pixels = int(registers[REG_PARAM0])
            self._tail = self._empty_tail()

    def _stencil(self, image: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def transform(self, data: bytes, offset: int) -> bytes:
        import numpy as np

        width = self.row_pixels
        if len(data) % width:
            return data  # partial rows: pass through (test images align)
        rows = np.frombuffer(data, dtype=np.uint8).reshape(-1, width)
        stacked = np.vstack([self._tail, rows])
        filtered = self._stencil(stacked)
        # Emit the rows corresponding to this tile; keep 2 rows of history.
        out = filtered[len(self._tail):][: len(rows)]
        self._tail = stacked[-2:].copy() if len(stacked) >= 2 else stacked.copy()
        return out.tobytes()


class GauJob(_StencilJob):
    """3x3 Gaussian blur over a grayscale image."""

    profile = GAU_PROFILE
    bytes_per_cycle = 19.5  # ~3.9 GB/s demand at 200 MHz
    output_ratio = 1.0
    tile_lines = 64

    def _stencil(self, image: np.ndarray) -> np.ndarray:
        from repro.kernels.image import gaussian_blur

        return gaussian_blur(image)


class SblJob(_StencilJob):
    """3x3 Sobel gradient magnitude over a grayscale image."""

    profile = SBL_PROFILE
    bytes_per_cycle = 20.0  # ~4.0 GB/s demand at 200 MHz
    output_ratio = 1.0
    tile_lines = 64

    def _stencil(self, image: np.ndarray) -> np.ndarray:
        from repro.kernels.image import sobel

        return sobel(image)


class GrsJob(StreamingJob):
    """RGBA -> luma conversion (pointwise: no row history needed)."""

    profile = GRS_PROFILE
    bytes_per_cycle = 19.0  # ~3.8 GB/s demand at 200 MHz
    output_ratio = 0.25  # 4 bytes in, 1 byte out
    tile_lines = 64

    def transform(self, data: bytes, offset: int) -> bytes:
        import numpy as np

        from repro.kernels.image import grayscale

        pixels = np.frombuffer(data, dtype=np.uint8).reshape(-1, 4)
        rgba = pixels.reshape(1, -1, 4)
        return grayscale(rgba).tobytes()
