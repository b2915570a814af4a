"""Image-processing kernels: Gaussian blur, grayscale, Sobel.

Functional kernels behind the GAU, GRS, and SBL benchmark accelerators
(Table 1).  All operate on 8-bit images:

* grayscale — RGBA (4 bytes/pixel) to luma via the BT.601 integer weights;
* gaussian — 3x3 binomial blur (1 2 1 / 2 4 2 / 1 2 1, /16) on grayscale;
* sobel — gradient magnitude with the 3x3 Sobel operators on grayscale.

Borders are handled with edge replication, like a line-buffer pipeline on
the FPGA would.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.errors import ConfigurationError

if TYPE_CHECKING:
    import numpy as np

#: 3x3 stencils, row-major; :func:`_convolve3x3` makes them int32 arrays.
GAUSSIAN_KERNEL = ((1, 2, 1), (2, 4, 2), (1, 2, 1))
SOBEL_X = ((-1, 0, 1), (-2, 0, 2), (-1, 0, 1))
SOBEL_Y = ((-1, -2, -1), (0, 0, 0), (1, 2, 1))


def _check_gray(image: np.ndarray) -> None:
    import numpy as np

    if image.ndim != 2 or image.dtype != np.uint8:
        raise ConfigurationError("expected a 2-D uint8 grayscale image")


def _convolve3x3(image: np.ndarray, stencil: Sequence[Sequence[int]]) -> np.ndarray:
    """3x3 integer convolution with edge replication; int32 output."""
    import numpy as np

    kernel = np.array(stencil, dtype=np.int32)
    padded = np.pad(image.astype(np.int32), 1, mode="edge")
    out = np.zeros(image.shape, dtype=np.int32)
    for dy in range(3):
        for dx in range(3):
            out += kernel[dy, dx] * padded[dy : dy + image.shape[0], dx : dx + image.shape[1]]
    return out


def grayscale(rgba: np.ndarray) -> np.ndarray:
    """RGBA -> 8-bit luma with BT.601 integer arithmetic (77R+150G+29B)>>8."""
    import numpy as np

    if rgba.ndim != 3 or rgba.shape[2] != 4 or rgba.dtype != np.uint8:
        raise ConfigurationError("expected an HxWx4 uint8 RGBA image")
    r = rgba[:, :, 0].astype(np.int32)
    g = rgba[:, :, 1].astype(np.int32)
    b = rgba[:, :, 2].astype(np.int32)
    return ((77 * r + 150 * g + 29 * b) >> 8).astype(np.uint8)


def gaussian_blur(image: np.ndarray) -> np.ndarray:
    """3x3 binomial blur, /16 with rounding."""
    import numpy as np

    _check_gray(image)
    acc = _convolve3x3(image, GAUSSIAN_KERNEL)
    return ((acc + 8) >> 4).clip(0, 255).astype(np.uint8)


def sobel(image: np.ndarray) -> np.ndarray:
    """Gradient magnitude |Gx| + |Gy| (the common hardware approximation)."""
    import numpy as np

    _check_gray(image)
    gx = _convolve3x3(image, SOBEL_X)
    gy = _convolve3x3(image, SOBEL_Y)
    return (np.abs(gx) + np.abs(gy)).clip(0, 255).astype(np.uint8)
