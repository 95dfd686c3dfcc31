"""Per-keypoint/per-row reference twins of the vectorized kernels.

Every batched kernel in :mod:`repro.vision` has a straightforward
loop formulation here, kept deliberately close to the textbook
per-element algorithm.  ``tests/test_kernel_equivalence.py`` runs both
side by side and asserts **exact** equality (``==`` on every float bit,
not ``allclose``), which is the repo's defence against silent numerical
drift in the hot path.

Two ground rules make bit-identity provable rather than hoped-for:

* Element-wise work (gathers, products, ufuncs) is done per keypoint /
  per row with scalar-or-small-array operations — NumPy ufuncs are
  value-deterministic, so these match the broadcast versions exactly.
* Reductions (``sum``, ``bincount``, ``norm``, einsum contractions)
  use the *same reduction call* the vectorized kernel uses, applied to
  the single row/cell — chosen from the set of constructs whose
  batched form is bit-equal to their single form (einsum rows,
  row-wise sum-products, combined bincounts with preserved
  accumulation order).  BLAS ``gemv``/``gemm`` products are avoided:
  their reduction strategy changes with operand shape.

RANSAC pose is the one exception.  Its batched kernel runs the DLT's
SVD, inverse and products as stacked ``linalg``/``matmul`` calls,
which NumPy executes as one LAPACK/BLAS call per slice at exactly the
single-hypothesis shapes (``(8, 9)`` SVD, ``(3, 3)`` inverse and
products, ``(k, 3)`` reprojection), so each slice rounds like the
loop's single call.  Its twin is that per-hypothesis loop.

These twins are *test collateral*, not production code — they are
O(keypoints) Python loops and run orders of magnitude slower than the
kernels they certify (``benchmarks/bench_perf_kernels.py`` quantifies
the gap).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.vision.fisher import _EPS, FisherEncoder
from repro.vision.gaussian import ScaleSpace
from repro.vision.image import image_gradients
from repro.vision.lsh import LshIndex, LshMatch
from repro.vision.matching import DescriptorMatch
from repro.vision.pose import (
    HomographyResult,
    _apply_homography,
    estimate_homography_dlt,
)
from repro.vision.sift import SiftExtractor, SiftKeypoint


# ----------------------------------------------------------------------
# SIFT
# ----------------------------------------------------------------------
def reference_dominant_orientation(gaussian: np.ndarray, x: int, y: int,
                                   sigma: float) -> float:
    """Per-keypoint orientation from a patch-local gradient field.

    Recomputes gradients on a patch around the keypoint (the original
    formulation); the vectorized path instead slices one shared
    full-image field, which is bit-identical at interior pixels
    because central differences only see the 4-neighbourhood.
    """
    radius = max(2, int(round(3.0 * 1.5 * sigma)))
    height, width = gaussian.shape
    y0, y1 = max(1, y - radius), min(height - 1, y + radius + 1)
    x0, x1 = max(1, x - radius), min(width - 1, x + radius + 1)
    patch = gaussian[y0 - 1:y1 + 1, x0 - 1:x1 + 1]
    magnitude, orientation = image_gradients(patch)
    magnitude = magnitude[1:-1, 1:-1]
    orientation = orientation[1:-1, 1:-1]

    yy, xx = np.mgrid[y0:y1, x0:x1]
    weight = np.exp(-((yy - y) ** 2 + (xx - x) ** 2)
                    / (2.0 * (1.5 * sigma) ** 2))
    bins = ((orientation + np.pi) / (2 * np.pi) * 36).astype(int) % 36
    histogram = np.bincount(bins.ravel(),
                            weights=(magnitude * weight).ravel(),
                            minlength=36)
    peak = int(np.argmax(histogram))
    return peak / 36.0 * 2 * np.pi - np.pi


def reference_descriptor(keypoint: SiftKeypoint,
                         space: ScaleSpace) -> np.ndarray:
    """One 128-d descriptor computed with per-cell histograms."""
    gaussian = space.gaussians[keypoint.octave][keypoint.level]
    scale = 2.0 ** keypoint.octave
    cx = keypoint.x / scale
    cy = keypoint.y / scale
    sigma = space.sigmas[keypoint.level]
    magnitude, orientation = image_gradients(gaussian)

    spacing = 0.75 * sigma
    offsets = (np.arange(16) - 7.5) * spacing
    grid_x, grid_y = np.meshgrid(offsets, offsets)
    cos_t = np.cos(keypoint.orientation)
    sin_t = np.sin(keypoint.orientation)
    sample_x = cx + cos_t * grid_x - sin_t * grid_y
    sample_y = cy + sin_t * grid_x + cos_t * grid_y

    height, width = gaussian.shape
    xi = np.clip(np.round(sample_x).astype(int), 0, width - 1)
    yi = np.clip(np.round(sample_y).astype(int), 0, height - 1)
    sampled_mag = magnitude[yi, xi]
    sampled_ori = orientation[yi, xi] - keypoint.orientation

    window = np.exp(-(grid_x ** 2 + grid_y ** 2)
                    / (2.0 * (8.0 * spacing / 2.0) ** 2))
    weighted = sampled_mag * window

    histogram = np.zeros((4, 4, 8))
    ori_bins = ((sampled_ori + np.pi) / (2 * np.pi) * 8).astype(int) % 8
    for row in range(4):
        for col in range(4):
            block_mag = weighted[row * 4:(row + 1) * 4,
                                 col * 4:(col + 1) * 4]
            block_bin = ori_bins[row * 4:(row + 1) * 4,
                                 col * 4:(col + 1) * 4]
            histogram[row, col] = np.bincount(
                block_bin.ravel(), weights=block_mag.ravel(),
                minlength=8)

    descriptor = histogram.ravel()
    norm = np.linalg.norm(descriptor)
    if norm > 1e-12:
        descriptor = descriptor / norm
        descriptor = np.minimum(descriptor, 0.2)  # clip bursts
        norm = np.linalg.norm(descriptor)
        if norm > 1e-12:
            descriptor = descriptor / norm
    return descriptor


class ReferenceSiftExtractor:
    """Loop-twin of :class:`SiftExtractor` (per-keypoint everything)."""

    def __init__(self, extractor: SiftExtractor):
        self.extractor = extractor

    def detect(self, image: np.ndarray) \
            -> Tuple[List[SiftKeypoint], ScaleSpace]:
        from repro.vision.gaussian import build_scale_space

        ex = self.extractor
        space = build_scale_space(image, intervals=ex.intervals,
                                  base_sigma=ex.base_sigma)
        keypoints: List[SiftKeypoint] = []
        for octave_index, dog_octave in enumerate(space.dogs):
            stack = np.stack(dog_octave)
            for level in range(1, stack.shape[0] - 1):
                keypoints.extend(self._extrema_at_level(
                    space, stack, octave_index, level))
        keypoints.sort(key=lambda kp: -kp.response)
        if ex.max_keypoints is not None:
            keypoints = keypoints[:ex.max_keypoints]
        return keypoints, space

    def _extrema_at_level(self, space: ScaleSpace, stack: np.ndarray,
                          octave_index: int,
                          level: int) -> List[SiftKeypoint]:
        ex = self.extractor
        dog = stack[level]
        height, width = dog.shape
        if height < 3 or width < 3:
            return []
        centre = dog[1:-1, 1:-1]
        is_max = np.ones_like(centre, dtype=bool)
        is_min = np.ones_like(centre, dtype=bool)
        for dz in (-1, 0, 1):
            plane = stack[level + dz]
            for dy in (0, 1, 2):
                for dx in (0, 1, 2):
                    if dz == 0 and dy == 1 and dx == 1:
                        continue
                    neighbour = plane[dy:height - 2 + dy,
                                      dx:width - 2 + dx]
                    is_max &= centre > neighbour
                    is_min &= centre < neighbour
        candidates = (is_max | is_min) & (
            np.abs(centre) >= ex.contrast_threshold)

        ys, xs = np.nonzero(candidates)
        if len(ys) == 0:
            return []
        ys = ys + 1
        xs = xs + 1
        dxx = dog[ys, xs + 1] + dog[ys, xs - 1] - 2 * dog[ys, xs]
        dyy = dog[ys + 1, xs] + dog[ys - 1, xs] - 2 * dog[ys, xs]
        dxy = (dog[ys + 1, xs + 1] - dog[ys + 1, xs - 1]
               - dog[ys - 1, xs + 1] + dog[ys - 1, xs - 1]) / 4.0
        trace = dxx + dyy
        det = dxx * dyy - dxy ** 2
        r = ex.edge_ratio
        keep = (det > 0) & (trace ** 2 * r < det * (r + 1) ** 2)

        scale = 2.0 ** octave_index
        sigma = space.sigmas[level] * scale
        gaussian = space.gaussians[octave_index][level]
        keypoints = []
        for y, x in zip(ys[keep], xs[keep]):
            orientation = reference_dominant_orientation(
                gaussian, x, y, space.sigmas[level])
            keypoints.append(SiftKeypoint(
                x=float(x) * scale, y=float(y) * scale,
                sigma=float(sigma), orientation=orientation,
                octave=octave_index, level=level,
                response=float(abs(dog[y, x]))))
        return keypoints

    def describe(self, keypoints: List[SiftKeypoint],
                 space: ScaleSpace) -> np.ndarray:
        descriptors = np.zeros((len(keypoints), 128))
        for index, keypoint in enumerate(keypoints):
            descriptors[index] = reference_descriptor(keypoint, space)
        return descriptors

    def detect_and_describe(self, image: np.ndarray) \
            -> Tuple[List[SiftKeypoint], np.ndarray]:
        keypoints, space = self.detect(image)
        return keypoints, self.describe(keypoints, space)


# ----------------------------------------------------------------------
# Matching
# ----------------------------------------------------------------------
def reference_match_descriptors(
        query: np.ndarray, reference: np.ndarray, *,
        ratio: float = 0.8,
        max_distance: float = np.inf) -> List[DescriptorMatch]:
    """Per-query-row nearest/second-nearest loop with the ratio test."""
    query = np.atleast_2d(np.asarray(query, dtype=np.float64))
    reference = np.atleast_2d(np.asarray(reference, dtype=np.float64))
    if query.size == 0 or reference.size == 0:
        return []
    q_sq = np.sum(query ** 2, axis=1)[:, None]
    r_sq = np.sum(reference ** 2, axis=1)[None, :]
    squared = np.maximum(q_sq + r_sq - 2.0 * (query @ reference.T), 0.0)

    matches: List[DescriptorMatch] = []
    single_reference = reference.shape[0] == 1
    for query_index in range(query.shape[0]):
        row = squared[query_index]
        nearest = int(np.argmin(row))
        nearest_distance = float(np.sqrt(row[nearest]))
        if nearest_distance > max_distance:
            continue
        if not single_reference:
            row_copy = row.copy()
            row_copy[nearest] = np.inf
            second = float(np.sqrt(np.min(row_copy)))
            if second > 0 and nearest_distance >= ratio * second:
                continue
        matches.append(DescriptorMatch(query_index=query_index,
                                       reference_index=nearest,
                                       distance=nearest_distance))
    return matches


# ----------------------------------------------------------------------
# LSH
# ----------------------------------------------------------------------
def reference_lsh_signatures(index: LshIndex,
                             vector: np.ndarray) -> np.ndarray:
    """Per-table, per-bit signature loop."""
    vector = np.asarray(vector, dtype=np.float64)
    signatures = np.zeros(index.n_tables, dtype=np.uint64)
    for table in range(index.n_tables):
        value = 0
        for bit in range(index.n_bits):
            projection = np.einsum(
                "nd,kd->nk", vector[None, :],
                index._planes[table, bit][None, :])[0, 0]
            if projection > 0:
                value += 1 << bit
        signatures[table] = value
    return signatures


def reference_lsh_query(index: LshIndex, vector: np.ndarray, *,
                        k: int = 1,
                        min_similarity: float = -1.0) -> List[LshMatch]:
    """Per-candidate-key scoring loop (bucket probing unchanged)."""
    vector = np.asarray(vector, dtype=np.float64)
    seen: List = []
    for table, signature in zip(index._tables,
                                reference_lsh_signatures(index, vector)):
        for key in table.get(int(signature), []):
            if key not in seen:
                seen.append(key)
    keys = seen or list(index._vectors)
    norm = np.linalg.norm(vector)
    if norm < 1e-12 or not keys:
        return []
    matches = []
    for key in keys:
        stored = index._vectors[key]
        stored_norm = np.linalg.norm(stored)
        if stored_norm < 1e-12:
            continue
        similarity = float(np.sum(stored * vector)
                           / (norm * stored_norm))
        if similarity >= min_similarity:
            matches.append(LshMatch(key=key, similarity=similarity))
    matches.sort(key=lambda match: -match.similarity)
    return matches[:k]


# ----------------------------------------------------------------------
# Fisher encoding
# ----------------------------------------------------------------------
def reference_fisher_encode(encoder: FisherEncoder,
                            descriptors: np.ndarray) -> np.ndarray:
    """Per-sample Fisher accumulation loop.

    Responsibilities are computed one sample at a time (certifying the
    row-independence ``encode_batch`` relies on); deviations are built
    sample by sample; the final reductions use the same ``sum(axis=0)``
    calls as the kernel.
    """
    descriptors = np.asarray(descriptors, dtype=np.float64)
    if descriptors.size == 0:
        return np.zeros(encoder.dimension)
    if descriptors.ndim == 1:
        descriptors = descriptors[None, :]
    n = descriptors.shape[0]
    gmm = encoder.gmm

    gamma = np.vstack([gmm.responsibilities(descriptors[i:i + 1])
                       for i in range(n)])  # (N, K), one row at a time
    sigma = np.sqrt(gmm.variances_)

    weighted = np.zeros((n,) + gmm.means_.shape)     # (N, K, D)
    sq_weighted = np.zeros_like(weighted)
    for i in range(n):
        deviation = (descriptors[i][None, :] - gmm.means_) / sigma
        weighted[i] = gamma[i][:, None] * deviation
        sq_weighted[i] = gamma[i][:, None] * (deviation ** 2 - 1.0)

    grad_mu = weighted.sum(axis=0) / (
        n * np.sqrt(gmm.weights_)[:, None] + _EPS)
    grad_sigma = sq_weighted.sum(axis=0) / (
        n * np.sqrt(2.0 * gmm.weights_)[:, None] + _EPS)

    vector = np.concatenate([grad_mu.ravel(), grad_sigma.ravel()])
    vector = np.sign(vector) * np.sqrt(np.abs(vector))
    norm = np.linalg.norm(vector)
    if norm > _EPS:
        vector = vector / norm
    return vector


# ----------------------------------------------------------------------
# RANSAC pose
# ----------------------------------------------------------------------
def reference_estimate_homography_ransac(
        src: np.ndarray, dst: np.ndarray, *,
        threshold: float = 3.0, max_iterations: int = 200,
        min_inliers: int = 6,
        seed: int = 0) -> Optional[HomographyResult]:
    """Per-hypothesis RANSAC loop: one DLT and one reprojection per
    sample, stopping early once a hypothesis explains every point."""
    src = np.asarray(src, dtype=np.float64)
    dst = np.asarray(dst, dtype=np.float64)
    if src.shape != dst.shape or src.ndim != 2 or src.shape[1] != 2:
        raise ValueError(f"expected matching (N, 2) arrays, got "
                         f"{src.shape} and {dst.shape}")
    n = src.shape[0]
    if n < 4:
        return None

    rng = np.random.default_rng(seed)
    best_inliers: Optional[np.ndarray] = None
    best_count = 0
    for __ in range(max_iterations):
        sample = rng.choice(n, size=4, replace=False)
        try:
            candidate = estimate_homography_dlt(src[sample], dst[sample])
        except ValueError:
            continue
        if candidate is None:
            continue
        errors = np.linalg.norm(
            _apply_homography(candidate, src) - dst, axis=1)
        inliers = errors < threshold
        count = int(np.count_nonzero(inliers))
        if count > best_count:
            best_count = count
            best_inliers = inliers
            if count == n:
                break

    if best_inliers is None or best_count < max(min_inliers, 4):
        return None

    refined = estimate_homography_dlt(src[best_inliers], dst[best_inliers])
    if refined is None:
        return None
    errors = np.linalg.norm(_apply_homography(refined, src) - dst, axis=1)
    inliers = errors < threshold
    if int(np.count_nonzero(inliers)) < max(min_inliers, 4):
        return None
    return HomographyResult(
        matrix=refined, inliers=inliers,
        mean_error=float(errors[inliers].mean()))
