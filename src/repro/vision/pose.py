"""Homography-based pose estimation with RANSAC.

``matching`` turns ratio-test correspondences into an object pose: a
3×3 planar homography estimated by the normalized DLT inside RANSAC,
then used to project the reference object's corners into the frame
(the bounding box scAtteR returns to the client, §3.1).

RANSAC scores all of its hypotheses in one stacked pass.  Every
stacked operation keeps the per-hypothesis shape of the single-sample
DLT (``(8, 9)`` SVD, ``(3, 3)`` inverse and products, ``(k, 3)``
reprojection), and NumPy's stacked ``linalg``/``matmul`` run the same
LAPACK/BLAS routine once per slice, so every hypothesis is
bit-identical to :func:`estimate_homography_dlt` on its four points.
``repro.vision.reference`` keeps the per-hypothesis loop as the test
twin.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np


@dataclass
class HomographyResult:
    """RANSAC output: the homography, its inliers and reprojection error."""

    matrix: np.ndarray
    inliers: np.ndarray  # boolean mask over the correspondences
    mean_error: float

    @property
    def num_inliers(self) -> int:
        return int(np.count_nonzero(self.inliers))


def _normalization_transform(points: np.ndarray) -> np.ndarray:
    """Hartley normalization: zero centroid, mean distance sqrt(2).

    ``points`` is ``(..., k, 2)``; returns one ``(..., 3, 3)``
    transform per point set.
    """
    centroid = points.mean(axis=-2)
    distances = np.linalg.norm(points - centroid[..., None, :], axis=-1)
    mean_distance = distances.mean(axis=-1)
    usable = mean_distance > 1e-12
    scale = np.where(
        usable, np.sqrt(2.0) / np.where(usable, mean_distance, 1.0), 1.0)
    transform = np.zeros(points.shape[:-2] + (3, 3))
    transform[..., 0, 0] = scale
    transform[..., 1, 1] = scale
    transform[..., :2, 2] = -scale[..., None] * centroid
    transform[..., 2, 2] = 1.0
    return transform


def _apply_homography(matrix: np.ndarray,
                      points: np.ndarray) -> np.ndarray:
    """Map ``(..., k, 2)`` points through ``(..., 3, 3)`` homographies."""
    homogeneous = np.concatenate(
        [points, np.ones(points.shape[:-1] + (1,))], axis=-1)
    mapped = homogeneous @ np.swapaxes(matrix, -1, -2)
    w = mapped[..., 2:3]
    w = np.where(np.abs(w) < 1e-12, 1e-12, w)
    return mapped[..., :2] / w


def estimate_homography_dlt(src: np.ndarray,
                            dst: np.ndarray) -> Optional[np.ndarray]:
    """Normalized direct linear transform from >= 4 correspondences.

    Returns ``None`` for degenerate configurations.
    """
    src = np.asarray(src, dtype=np.float64)
    dst = np.asarray(dst, dtype=np.float64)
    if src.shape != dst.shape or src.ndim != 2 or src.shape[1] != 2:
        raise ValueError(f"expected matching (N, 2) arrays, got "
                         f"{src.shape} and {dst.shape}")
    n = src.shape[0]
    if n < 4:
        raise ValueError(f"need >= 4 correspondences, got {n}")

    t_src = _normalization_transform(src)
    t_dst = _normalization_transform(dst)
    src_n = _apply_homography(t_src, src)
    dst_n = _apply_homography(t_dst, dst)

    rows = []
    for (x, y), (u, v) in zip(src_n, dst_n):
        rows.append([-x, -y, -1, 0, 0, 0, u * x, u * y, u])
        rows.append([0, 0, 0, -x, -y, -1, v * x, v * y, v])
    a = np.asarray(rows)
    try:
        __, singular_values, vt = np.linalg.svd(a)
    except np.linalg.LinAlgError:
        return None
    if singular_values[-2] < 1e-12:
        return None  # rank-deficient: degenerate points
    h_normalized = vt[-1].reshape(3, 3)
    matrix = np.linalg.inv(t_dst) @ h_normalized @ t_src
    if abs(matrix[2, 2]) < 1e-12:
        return None
    return matrix / matrix[2, 2]


def _sample_homographies(src: np.ndarray, dst: np.ndarray):
    """Normalized DLT on a stack of ``(h, 4, 2)`` four-point samples.

    Returns ``(matrices, valid)``: ``matrices`` is ``(v, 3, 3)`` for
    the ``v`` hypotheses flagged in the ``(h,)`` mask ``valid``; each
    equals :func:`estimate_homography_dlt` on that sample, and an
    unflagged sample is one for which it returns ``None``.
    """
    t_src = _normalization_transform(src)
    t_dst = _normalization_transform(dst)
    src_n = _apply_homography(t_src, src)
    dst_n = _apply_homography(t_dst, dst)
    x, y = src_n[..., 0], src_n[..., 1]
    u, v = dst_n[..., 0], dst_n[..., 1]
    # Rows in estimate_homography_dlt's order: (u-row, v-row) per point.
    a = np.zeros(src.shape[:-1] + (2, 9))
    a[..., 0, 0], a[..., 0, 1], a[..., 0, 2] = -x, -y, -1.0
    a[..., 0, 6], a[..., 0, 7], a[..., 0, 8] = u * x, u * y, u
    a[..., 1, 3], a[..., 1, 4], a[..., 1, 5] = -x, -y, -1.0
    a[..., 1, 6], a[..., 1, 7], a[..., 1, 8] = v * x, v * y, v
    a = a.reshape(src.shape[0], 8, 9)
    try:
        __, singular_values, vt = np.linalg.svd(a)
    except np.linalg.LinAlgError:
        # One failing slice (e.g. a NaN correspondence) fails the whole
        # stacked call.  Solve slice by slice; a failed slice keeps an
        # all-zero spectrum, which the rank test below rejects.
        singular_values = np.zeros(a.shape[:2])
        vt = np.zeros((a.shape[0], 9, 9))
        for index, system in enumerate(a):
            try:
                __, singular_values[index], vt[index] = \
                    np.linalg.svd(system)
            except np.linalg.LinAlgError:
                pass
    valid = ~(singular_values[:, -2] < 1e-12)  # rank-deficient: degenerate
    h_normalized = vt[valid, -1].reshape(-1, 3, 3)
    matrices = np.linalg.inv(t_dst[valid]) @ h_normalized @ t_src[valid]
    h22 = matrices[:, 2:3, 2:3]
    usable = ~(np.abs(h22[:, 0, 0]) < 1e-12)
    valid[valid] = usable
    return matrices[usable] / h22[usable], valid


def estimate_homography_ransac(
        src: np.ndarray, dst: np.ndarray, *,
        threshold: float = 3.0, max_iterations: int = 200,
        min_inliers: int = 6,
        seed: int = 0) -> Optional[HomographyResult]:
    """RANSAC homography between correspondence sets.

    Draws ``max_iterations`` four-point samples, scores every
    hypothesis at once and keeps the first with the most inliers,
    then refines it by DLT over those inliers.  Returns ``None`` when
    no model reaches ``min_inliers`` support.
    """
    src = np.asarray(src, dtype=np.float64)
    dst = np.asarray(dst, dtype=np.float64)
    if src.shape != dst.shape or src.ndim != 2 or src.shape[1] != 2:
        raise ValueError(f"expected matching (N, 2) arrays, got "
                         f"{src.shape} and {dst.shape}")
    n = src.shape[0]
    if n < 4:
        return None

    # One choice() per hypothesis, in order: these calls define the RNG
    # stream, and a vectorised draw would pick different samples.
    rng = np.random.default_rng(seed)
    samples = [rng.choice(n, size=4, replace=False)
               for __ in range(max_iterations)]
    if not samples:
        return None
    samples = np.asarray(samples)
    matrices, valid = _sample_homographies(src[samples], dst[samples])
    inliers = np.zeros((len(samples), n), dtype=bool)
    errors = np.linalg.norm(_apply_homography(matrices, src) - dst,
                            axis=-1)
    inliers[valid] = errors < threshold
    counts = np.count_nonzero(inliers, axis=1)
    best = int(np.argmax(counts))  # ties go to the earliest hypothesis
    if counts[best] < max(min_inliers, 4):
        return None
    best_inliers = inliers[best]

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


def project_corners(matrix: np.ndarray,
                    size: Tuple[int, int]) -> np.ndarray:
    """Map a ``(height, width)`` reference rectangle's corners through
    the homography; returns ``(4, 2)`` frame coordinates in order
    top-left, top-right, bottom-right, bottom-left."""
    height, width = size
    corners = np.array([
        [0.0, 0.0],
        [width - 1.0, 0.0],
        [width - 1.0, height - 1.0],
        [0.0, height - 1.0],
    ])
    return _apply_homography(np.asarray(matrix, dtype=np.float64), corners)
