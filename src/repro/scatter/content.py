"""Real vision work on the replayed video, content-cached.

Every client replays the same looped video (§3.2), so a frame number
names its content.  :class:`FrameFeatureExtractor` runs the real SIFT
and Fisher kernels for a frame number behind the content-addressed
:class:`~repro.vision.cache.FeatureCache`; after one loop of the video
every lookup is a hit (the CloudAR observation).
``benchmarks/bench_perf_kernels.py`` times it as its cached arm.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.metrics.profiling import StageProfiler
from repro.metrics.summary import CacheStats
from repro.vision.cache import (FeatureCache, array_digest,
                                default_feature_cache)
from repro.vision.image import to_grayscale


class FrameFeatureExtractor:
    """SIFT features and Fisher vectors per frame number, cached.

    Cached results are bit-identical to recomputes, so the cache
    changes wall-clock cost only.
    """

    def __init__(self, video, extractor, *, pca=None, encoder=None,
                 cache: Optional[FeatureCache] = None,
                 profiler: Optional[StageProfiler] = None):
        self.video = video
        self.extractor = extractor
        self.pca = pca
        self.encoder = encoder
        self.cache = cache if cache is not None \
            else default_feature_cache()
        self.profiler = profiler if profiler is not None \
            else StageProfiler(enabled=False)

    def _gray(self, frame_number: int) -> np.ndarray:
        return to_grayscale(self.video.frame(frame_number).image)

    def features(self, frame_number: int) -> Tuple[tuple, np.ndarray]:
        """(keypoints, descriptors) for a (looped) frame number."""
        gray = self._gray(frame_number)
        key = ("sift", array_digest(gray), self.extractor.fingerprint)
        with self.profiler.stage("backend.sift"):
            return self.cache.get_or_compute(
                key, lambda: self._extract(gray))

    def _extract(self, gray: np.ndarray) -> Tuple[tuple, np.ndarray]:
        keypoints, descriptors = \
            self.extractor.detect_and_describe(gray)
        return tuple(keypoints), descriptors

    def encoding(self, frame_number: int) -> np.ndarray:
        """Fisher vector for a (looped) frame number."""
        if self.pca is None or self.encoder is None:
            raise RuntimeError(
                "FrameFeatureExtractor.encoding() requires pca= and "
                "encoder=")
        __, descriptors = self.features(frame_number)
        if len(descriptors) == 0:
            return np.zeros(self.encoder.dimension)
        key = ("fisher", array_digest(descriptors),
               self.pca.fingerprint(), self.encoder.fingerprint())
        with self.profiler.stage("backend.encode"):
            return self.cache.get_or_compute(
                key, lambda: self.encoder.encode(
                    self.pca.transform(descriptors)))

    def stats(self) -> CacheStats:
        return self.cache.stats()
