"""Gaussian scale space and difference-of-Gaussians pyramids.

Implements the scale-space construction of Lowe's SIFT [Lowe 2004]:
each octave holds ``intervals + 3`` progressively blurred images; the
DoG pyramid is the difference of adjacent levels; the next octave
starts from the level with twice the base sigma, downsampled 2×.

The separable blur is plain NumPy.  It repeats the arithmetic of
``scipy.ndimage.convolve1d`` for a symmetric kernel in the same order,
so its output is bit-identical to ndimage's
(``tests/test_kernel_equivalence.py`` holds it to that), and the
vision pipeline loads no scipy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

#: Kernels are pure functions of sigma and every pyramid reuses the
#: same few sigmas; memoizing avoids re-deriving them per blur.
_KERNEL_CACHE: Dict[float, np.ndarray] = {}


def gaussian_kernel_1d(sigma: float) -> np.ndarray:
    """A normalized 1-D Gaussian kernel with radius ``ceil(3 sigma)``."""
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    sigma = float(sigma)
    cached = _KERNEL_CACHE.get(sigma)
    if cached is not None:
        return cached
    radius = max(1, int(np.ceil(3.0 * sigma)))
    xs = np.arange(-radius, radius + 1, dtype=np.float64)
    kernel = np.exp(-(xs ** 2) / (2.0 * sigma ** 2))
    kernel = kernel / kernel.sum()
    kernel.setflags(write=False)
    _KERNEL_CACHE[sigma] = kernel
    return kernel


#: Pair sums one ufunc call forms.  On the small upper octaves a pass
#: forms all of its pairs at once, because per-call overhead dominates
#: there; on a full frame it forms one or two at a time into a buffer
#: that stays in cache.
_PAIR_BLOCK = 1 << 16


def _correlate_symmetric(padded: np.ndarray, step: int,
                         kernel: np.ndarray, out: np.ndarray) -> None:
    """One 1-D pass of ``scipy.ndimage``'s symmetric-kernel loop.

    ``padded`` is a flat, edge-padded, contiguous buffer.  Output ``k``
    is centred on ``padded[r·step + k]`` (``r`` the kernel radius), and
    its taps lie ``step`` elements apart.  With ``x[j]`` the tap ``j``
    steps away and ``w`` the kernel, each output is ``x[0]·w[r]``, then
    ``+= (x[j] + x[−j])·w[r+j]`` for ``j = −r … −1``.  That is
    ``NI_Correlate1D``'s loop for a symmetric kernel, operation for
    operation, so the result is bit-identical to
    ``ndimage.convolve1d``.  The kernel is exactly symmetric, so the
    reversal that turns ``convolve1d`` into a correlation leaves it as
    it is.
    """
    radius = len(kernel) // 2
    size = out.size
    item = padded.itemsize
    np.multiply(padded[radius * step:radius * step + size],
                kernel[radius], out=out)
    # Row m of ``left`` is the tap m - r steps away, row m of ``right``
    # the tap r - m steps away, both as views into ``padded``.
    strides = (step * item, item)
    left = np.ndarray((radius, size), np.float64, padded, 0, strides)
    right = np.ndarray((radius, size), np.float64, padded,
                       (radius + 1) * step * item, strides)[::-1]
    group = max(1, min(radius, _PAIR_BLOCK // size))
    pairs = np.empty((group, size))
    for first in range(0, radius, group):
        block = pairs[:min(group, radius - first)]
        last = first + len(block)
        np.add(left[first:last], right[first:last], out=block)
        block *= kernel[first:last, None]
        for pair in block:  # in order: the sum must not be reordered
            out += pair


def gaussian_blur(image: np.ndarray, sigma: float) -> np.ndarray:
    """Separable Gaussian blur with edge-replication padding.

    Rows first, then columns, each a pass of
    :func:`_correlate_symmetric` over the kernel of
    :func:`gaussian_kernel_1d`.  The result (float64) is bit-identical
    to ``ndimage.convolve1d(image, kernel, axis=1, mode="nearest")``
    followed by the same along axis 0 (DESIGN §21), with no scipy
    import.
    """
    if image.ndim != 2:
        raise ValueError(f"expected a grayscale image, got {image.shape}")
    if image.size == 0:
        return np.zeros(image.shape)
    kernel = gaussian_kernel_1d(sigma)
    radius = len(kernel) // 2
    height, width = image.shape
    # Rows: pad each row with ``radius`` copies of its edge pixels and
    # run the pass over the flat buffer.  Outputs whose taps straddle
    # two rows land in the padding columns and are dropped.
    rows = np.empty((height, width + 2 * radius))
    rows[:, radius:radius + width] = image
    rows[:, :radius] = image[:, :1]
    rows[:, radius + width:] = image[:, -1:]
    across = np.empty(rows.shape)
    _correlate_symmetric(rows.reshape(-1), 1, kernel,
                         across.reshape(-1)[:across.size - 2 * radius])
    # Columns: padded whole rows are contiguous, so a tap is a plain
    # offset of ``width`` elements per row.
    columns = np.empty((height + 2 * radius, width))
    columns[radius:radius + height] = across[:, :width]
    columns[:radius] = columns[radius]
    columns[radius + height:] = columns[radius + height - 1]
    blurred = np.empty((height, width))
    _correlate_symmetric(columns.reshape(-1), width, kernel,
                         blurred.reshape(-1))
    return blurred


def downsample(image: np.ndarray) -> np.ndarray:
    """Drop every other row and column (Lowe's octave subsampling)."""
    return image[::2, ::2]


@dataclass
class ScaleSpace:
    """Gaussian and DoG pyramids plus their per-level sigmas."""

    gaussians: List[List[np.ndarray]]
    dogs: List[List[np.ndarray]]
    sigmas: List[float]
    intervals: int
    #: Lazily computed (magnitude, orientation) per (octave, level);
    #: orientation assignment and every descriptor at that level share
    #: one gradient field instead of re-deriving patches of it.
    _gradients: Dict[Tuple[int, int],
                     Tuple[np.ndarray, np.ndarray]] = field(
        default_factory=dict, repr=False, compare=False)

    @property
    def num_octaves(self) -> int:
        return len(self.gaussians)

    def gradients(self, octave: int,
                  level: int) -> Tuple[np.ndarray, np.ndarray]:
        """Full-image (magnitude, orientation) of a Gaussian level.

        Central differences at interior pixels depend only on the
        pixel's 4-neighbourhood, so a slice of these full-image fields
        is bit-identical to gradients computed on any patch that
        contains the slice plus a one-pixel margin — the property the
        vectorized SIFT paths rely on.
        """
        key = (octave, level)
        cached = self._gradients.get(key)
        if cached is None:
            from repro.vision.image import image_gradients

            cached = image_gradients(self.gaussians[octave][level])
            self._gradients[key] = cached
        return cached


def build_scale_space(image: np.ndarray, *, intervals: int = 3,
                      base_sigma: float = 1.6,
                      assumed_blur: float = 0.5,
                      min_size: int = 16) -> ScaleSpace:
    """Construct the Gaussian/DoG pyramids for ``image``.

    ``intervals`` is Lowe's *s*: the number of scales per octave at
    which extrema are sought; each octave stores ``s + 3`` Gaussian
    levels and ``s + 2`` DoG levels.
    """
    if intervals < 1:
        raise ValueError(f"intervals must be >= 1, got {intervals}")
    image = image.astype(np.float64, copy=False)

    # Bring the input up to base_sigma from its assumed capture blur.
    delta = np.sqrt(max(base_sigma ** 2 - assumed_blur ** 2, 0.01))
    current = gaussian_blur(image, delta)

    k = 2.0 ** (1.0 / intervals)
    levels = intervals + 3
    sigmas = [base_sigma * (k ** i) for i in range(levels)]
    # Incremental blurs between adjacent levels.
    increments = [np.sqrt(max(sigmas[i] ** 2 - sigmas[i - 1] ** 2, 1e-8))
                  for i in range(1, levels)]

    gaussians: List[List[np.ndarray]] = []
    dogs: List[List[np.ndarray]] = []
    while min(current.shape) >= min_size:
        octave = [current]
        for increment in increments:
            octave.append(gaussian_blur(octave[-1], increment))
        gaussians.append(octave)
        # One stacked subtraction for the whole octave; elementwise, so
        # bit-identical to per-pair ``octave[i+1] - octave[i]``.
        stacked = np.stack(octave)
        diff = stacked[1:] - stacked[:-1]
        dogs.append([diff[i] for i in range(diff.shape[0])])
        # Next octave seeds from the level at 2x base sigma.
        current = downsample(octave[intervals])
    if not gaussians:
        raise ValueError(
            f"image {image.shape} smaller than min octave size {min_size}")
    return ScaleSpace(gaussians=gaussians, dogs=dogs, sigmas=sigmas,
                      intervals=intervals)
