"""Principal component analysis for descriptor compression.

The ``encoding`` service first projects 128-d SIFT descriptors onto a
lower-dimensional PCA basis before Fisher encoding (§3.1, following
Perronnin et al.'s large-scale retrieval recipe).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.vision.cache import config_fingerprint


class Pca:
    """PCA fitted with the thin SVD of the centred data matrix."""

    def __init__(self, n_components: int):
        if n_components < 1:
            raise ValueError(
                f"n_components must be >= 1, got {n_components}")
        self.n_components = n_components
        self.mean_: Optional[np.ndarray] = None
        self.components_: Optional[np.ndarray] = None
        self.explained_variance_: Optional[np.ndarray] = None

    @property
    def fitted(self) -> bool:
        return self.components_ is not None

    def fit(self, data: np.ndarray) -> "Pca":
        """Fit on ``(N, D)`` samples; requires ``N >= 2`` and
        ``n_components <= min(N, D)``."""
        data = np.asarray(data, dtype=np.float64)
        if data.ndim != 2:
            raise ValueError(f"expected (N, D) data, got {data.shape}")
        n_samples, n_features = data.shape
        if n_samples < 2:
            raise ValueError(f"need at least 2 samples, got {n_samples}")
        if self.n_components > min(n_samples, n_features):
            raise ValueError(
                f"n_components={self.n_components} exceeds "
                f"min(N, D)={min(n_samples, n_features)}")
        self.mean_ = data.mean(axis=0)
        centred = data - self.mean_
        __, singular_values, vt = np.linalg.svd(centred,
                                                full_matrices=False)
        self.components_ = vt[:self.n_components]
        self.explained_variance_ = (
            singular_values[:self.n_components] ** 2 / (n_samples - 1))
        return self

    def transform(self, data: np.ndarray) -> np.ndarray:
        """Project ``(N, D)`` samples to ``(N, n_components)``."""
        if not self.fitted:
            raise RuntimeError("Pca.transform() before fit()")
        data = np.asarray(data, dtype=np.float64)
        if data.ndim == 1:
            data = data[None, :]
        return (data - self.mean_) @ self.components_.T

    def transform_many(
            self, data_sets: Sequence[np.ndarray]) -> List[np.ndarray]:
        """Project many descriptor sets.

        Deliberately a per-set loop rather than one concatenated
        matmul: BLAS ``gemm`` dispatches different kernels for
        different operand heights (an M=1 product is not bit-equal to
        the same rows inside an M=300 product), so concatenation would
        silently change low-order bits per set.  The loop keeps each
        set's projection byte-identical to :meth:`transform`.
        """
        return [self.transform(data) for data in data_sets]

    def fingerprint(self) -> str:
        """Digest of the fitted basis, for cache keying."""
        if not self.fitted:
            raise RuntimeError("Pca.fingerprint() before fit()")
        return config_fingerprint("pca", self.n_components, self.mean_,
                                  self.components_)
