"""Reference-vs-vectorized bit-identity harness.

The vectorized kernels in :mod:`repro.vision` claim to be *exactly*
equal to their per-keypoint/per-row loop formulations — not merely
``allclose``.  This file is the enforcement: every kernel runs side by
side with its :mod:`repro.vision.reference` twin across randomized
seeded sweeps (image sizes, keypoint populations, GMM sizes, LSH
configurations, RANSAC correspondence sets) and every comparison is
``==`` on raw bytes.  Batched RANSAC pose is the one exception to the
"no BLAS ``gemm``" rule of :mod:`repro.vision.reference`: it runs
per-slice ``matmul``/LAPACK at the single-call shapes, so it is
certified hypothesis by hypothesis against the single-sample DLT as
well as end to end against the loop.

The second half certifies the content-addressed
:class:`~repro.vision.cache.FeatureCache` as *behaviour-invisible*:
cached results are bit-identical to recomputes, and the committed
golden trace digests (``tests/golden/determinism_digests.json``) are
byte-identical with the cache enabled or disabled, serial or sharded.
"""

from unittest import mock

import numpy as np
import pytest

from repro.scatter.content import FrameFeatureExtractor
from repro.vision import recognizer as recognizer_module
from repro.vision.cache import (
    DISABLE_ENV,
    FeatureCache,
    default_feature_cache,
    reset_default_feature_cache,
)
from repro.vision.dataset import WorkplaceDataset
from repro.vision.fisher import FisherEncoder, GaussianMixture
from repro.vision.image import to_grayscale
from repro.vision.lsh import LshIndex
from repro.vision.matching import match_descriptors
from repro.vision.pca import Pca
from repro.vision.pose import (
    _sample_homographies,
    estimate_homography_dlt,
    estimate_homography_ransac,
)
from repro.vision.recognizer import RecognizerTrainer
from repro.vision.reference import (
    ReferenceSiftExtractor,
    reference_estimate_homography_ransac,
    reference_fisher_encode,
    reference_lsh_query,
    reference_lsh_signatures,
    reference_match_descriptors,
)
from repro.vision.sift import SiftExtractor
from repro.vision.video import SyntheticVideo


def _frame(seed: int, size, number: int) -> np.ndarray:
    video = SyntheticVideo(seed=seed, size=size)
    return to_grayscale(video.frame(number).image)


def _assert_keypoints_equal(reference, vectorized):
    assert len(reference) == len(vectorized)
    for ref_kp, vec_kp in zip(reference, vectorized):
        assert ref_kp == vec_kp  # frozen dataclass: exact floats


def _assert_bit_equal(reference: np.ndarray, vectorized: np.ndarray):
    assert reference.shape == vectorized.shape
    assert reference.dtype == vectorized.dtype
    assert reference.tobytes() == vectorized.tobytes()


# ----------------------------------------------------------------------
# SIFT: detection, orientation, description
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed,size,number", [
    (0, (144, 192), 3),
    (1, (144, 192), 17),
    (2, (96, 128), 0),
    (3, (112, 160), 25),
])
def test_sift_detect_and_describe_bit_identical(seed, size, number):
    image = _frame(seed, size, number)
    extractor = SiftExtractor()
    ref_kps, ref_desc = \
        ReferenceSiftExtractor(extractor).detect_and_describe(image)
    vec_kps, vec_desc = extractor.detect_and_describe(image)
    assert len(vec_kps) > 0  # non-vacuous: the frame has structure
    _assert_keypoints_equal(ref_kps, vec_kps)
    _assert_bit_equal(ref_desc, vec_desc)


def test_sift_randomized_config_sweep():
    """Seeds x sizes x extractor configs, all bit-identical."""
    total_keypoints = 0
    for seed in range(4):
        for size in ((96, 128), (128, 176)):
            image = _frame(seed, size, number=seed * 7)
            for intervals, contrast in ((2, 0.02), (3, 0.04)):
                extractor = SiftExtractor(
                    intervals=intervals,
                    contrast_threshold=contrast,
                    max_keypoints=200)
                ref_kps, ref_desc = ReferenceSiftExtractor(
                    extractor).detect_and_describe(image)
                vec_kps, vec_desc = \
                    extractor.detect_and_describe(image)
                _assert_keypoints_equal(ref_kps, vec_kps)
                _assert_bit_equal(ref_desc, vec_desc)
                total_keypoints += len(vec_kps)
    assert total_keypoints > 100  # the sweep exercised real work


# ----------------------------------------------------------------------
# Descriptor matching
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(5))
def test_matching_bit_identical(seed):
    rng = np.random.default_rng(seed)
    reference = rng.standard_normal((40, 32))
    query = np.vstack([
        reference[rng.integers(0, 40, size=25)]
        + 0.05 * rng.standard_normal((25, 32)),
        rng.standard_normal((10, 32)),  # genuinely novel queries
    ])
    for kwargs in ({}, {"ratio": 0.7}, {"max_distance": 4.0},
                   {"ratio": 0.9, "max_distance": 2.5}):
        expected = reference_match_descriptors(query, reference,
                                               **kwargs)
        actual = match_descriptors(query, reference, **kwargs)
        assert len(expected) > 0  # non-vacuous
        assert actual == expected  # frozen dataclasses: exact floats


def test_matching_edge_cases_bit_identical():
    rng = np.random.default_rng(0)
    reference = rng.standard_normal((1, 16))  # no ratio test possible
    query = rng.standard_normal((5, 16))
    assert match_descriptors(query, reference) == \
        reference_match_descriptors(query, reference)
    assert match_descriptors(np.empty((0, 16)), reference) == []
    # 1-d inputs promote to a single row in both paths.
    assert match_descriptors(query[0], reference[0]) == \
        reference_match_descriptors(query[0], reference[0])


# ----------------------------------------------------------------------
# LSH: signatures, bucket probing, scoring
# ----------------------------------------------------------------------
@pytest.mark.parametrize("n_tables,n_bits,dimension,n_keys,seed", [
    (4, 12, 64, 30, 0),
    (2, 8, 16, 10, 1),
    (6, 16, 128, 50, 2),
    (1, 4, 8, 5, 3),
])
def test_lsh_signatures_and_query_bit_identical(
        n_tables, n_bits, dimension, n_keys, seed):
    rng = np.random.default_rng(seed)
    index = LshIndex(dimension, n_tables=n_tables, n_bits=n_bits,
                     seed=seed)
    vectors = rng.standard_normal((n_keys, dimension))
    index.insert_many((f"key{i}", vectors[i]) for i in range(n_keys))

    for i in range(n_keys):
        expected = reference_lsh_signatures(index, vectors[i])
        actual = index.signature_batch(vectors[i][None, :])[0]
        assert actual.dtype == expected.dtype
        assert actual.tobytes() == expected.tobytes()

    queries = np.vstack([
        vectors[:5] + 0.01 * rng.standard_normal((5, dimension)),
        rng.standard_normal((3, dimension)),
    ])
    for query in queries:
        for k in (1, 3):
            expected = reference_lsh_query(index, query, k=k)
            actual = index.query(query, k=k)
            assert actual == expected  # keys, order, exact similarity


def test_lsh_insert_many_equivalent_to_insert_loop():
    rng = np.random.default_rng(7)
    vectors = rng.standard_normal((20, 32))
    one_by_one = LshIndex(32, seed=7)
    batched = LshIndex(32, seed=7)
    for i in range(20):
        one_by_one.insert(i, vectors[i])
    batched.insert_many((i, vectors[i]) for i in range(20))
    assert one_by_one._tables == batched._tables
    query = vectors[3] + 0.01 * rng.standard_normal(32)
    assert one_by_one.query(query, k=5) == batched.query(query, k=5)


# ----------------------------------------------------------------------
# Fisher encoding
# ----------------------------------------------------------------------
@pytest.mark.parametrize("n_components,n_descriptors,seed", [
    (2, 1, 0), (2, 7, 1), (3, 40, 2), (5, 12, 3), (4, 200, 4),
])
def test_fisher_encode_bit_identical(n_components, n_descriptors,
                                     seed):
    rng = np.random.default_rng(seed)
    train = rng.standard_normal((80, 16))
    gmm = GaussianMixture(n_components, seed=seed).fit(train)
    encoder = FisherEncoder(gmm)
    descriptors = rng.standard_normal((n_descriptors, 16))
    expected = reference_fisher_encode(encoder, descriptors)
    actual = encoder.encode(descriptors)
    assert np.abs(actual).max() > 0  # non-vacuous
    _assert_bit_equal(expected, actual)


def test_fisher_encode_batch_matches_single_calls():
    rng = np.random.default_rng(9)
    gmm = GaussianMixture(3, seed=9).fit(rng.standard_normal((60, 8)))
    encoder = FisherEncoder(gmm)
    sets = [rng.standard_normal((n, 8)) for n in (1, 5, 12)]
    sets.insert(1, np.empty((0, 8)))  # empty set mid-batch
    batch = encoder.encode_batch(sets)
    assert len(batch) == len(sets)
    for descriptors, encoded in zip(sets, batch):
        _assert_bit_equal(encoder.encode(descriptors), encoded)
    _assert_bit_equal(batch[1], np.zeros(encoder.dimension))


# ----------------------------------------------------------------------
# RANSAC pose
# ----------------------------------------------------------------------
def _assert_same_pose(expected, actual):
    if expected is None:
        assert actual is None
        return
    assert actual is not None
    _assert_bit_equal(expected.matrix, actual.matrix)
    _assert_bit_equal(expected.inliers, actual.inliers)
    assert np.float64(expected.mean_error).tobytes() == \
        np.float64(actual.mean_error).tobytes()


def _similarity(rng, points):
    angle = rng.uniform(-0.4, 0.4)
    rotation = rng.uniform(0.6, 1.8) * np.array(
        [[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
    return points @ rotation.T + rng.uniform(-20.0, 20.0, 2)


def _pose_cases(seed):
    """Correspondence sets spanning RANSAC's regimes: 0-100% outliers,
    pure noise, integer pixel coordinates, duplicate and collinear
    points."""
    rng = np.random.default_rng(seed)
    n = 12 + 6 * seed
    src = rng.uniform(0.0, 160.0, (n, 2))
    dst = _similarity(rng, src)
    for fraction in (0.0, 0.3, 0.6, 1.0):
        noisy = dst + rng.normal(0.0, 0.4, dst.shape)
        outliers = rng.choice(n, int(fraction * n), replace=False)
        noisy[outliers] = rng.uniform(0.0, 160.0, (len(outliers), 2))
        yield src, noisy
    yield src, rng.uniform(0.0, 160.0, (n, 2))
    yield np.round(src), np.round(dst)
    duplicated = src.copy()
    duplicated[1:n // 2] = src[0]
    yield duplicated, dst
    yield np.linspace(0.0, 1.0, n)[:, None] * [[40.0, 70.0]], dst


def _samples(n, seed=0, count=200):
    """The four-point samples RANSAC draws, in its order."""
    rng = np.random.default_rng(seed)
    return np.asarray([rng.choice(n, size=4, replace=False)
                       for __ in range(count)])


def _assert_hypotheses_match_dlt(src, dst, samples):
    """Every batched hypothesis equals the single-sample DLT."""
    matrices, valid = _sample_homographies(src[samples], dst[samples])
    assert len(matrices) == np.count_nonzero(valid)
    batched = iter(matrices)
    for sample, flagged in zip(samples, valid):
        expected = estimate_homography_dlt(src[sample], dst[sample])
        assert (expected is not None) == flagged
        if expected is not None:
            _assert_bit_equal(expected, next(batched))
    return np.count_nonzero(valid)


def test_ransac_bit_identical_sweep():
    found = 0
    for seed in range(3):
        for index, (src, dst) in enumerate(_pose_cases(seed)):
            threshold = (0.5, 2.0, 4.0)[index % 3]
            expected = reference_estimate_homography_ransac(
                src, dst, threshold=threshold, seed=seed)
            actual = estimate_homography_ransac(
                src, dst, threshold=threshold, seed=seed)
            _assert_same_pose(expected, actual)
            found += expected is not None
    assert found >= 9  # non-vacuous: most structured cases fit


def test_ransac_hypotheses_bit_identical_to_dlt():
    valid = total = 0
    for seed in range(3):
        for src, dst in _pose_cases(seed):
            samples = _samples(len(src), seed, count=40)
            valid += _assert_hypotheses_match_dlt(src, dst, samples)
            total += len(samples)
    assert 0 < valid < total  # both valid and degenerate hypotheses


@pytest.fixture(scope="module")
def recognizer_ransac_calls():
    """The correspondences the recognizer hands RANSAC on four frames
    of ``SyntheticVideo(seed=0)``."""
    dataset = WorkplaceDataset(seed=0)
    recognizer = RecognizerTrainer(seed=0).train(
        dataset, SiftExtractor(contrast_threshold=0.01,
                               max_keypoints=300))
    video = SyntheticVideo(seed=0, dataset=dataset)
    with mock.patch.object(
            recognizer_module, "estimate_homography_ransac",
            wraps=estimate_homography_ransac) as spy:
        for number in (12, 87, 162, 237):
            recognizer.process_frame(video.frame(number).image)
    return spy.call_args_list


def test_ransac_on_recognizer_correspondences(recognizer_ransac_calls):
    found = 0
    for (src, dst), kwargs in recognizer_ransac_calls:
        expected = reference_estimate_homography_ransac(src, dst,
                                                        **kwargs)
        _assert_same_pose(expected,
                          estimate_homography_ransac(src, dst, **kwargs))
        _assert_hypotheses_match_dlt(src, dst,
                                     _samples(len(src), kwargs["seed"]))
        found += expected is not None
    assert found >= 4  # objects in view are posed


def _affine_pair():
    rng = np.random.default_rng(5)
    src = rng.uniform(0.0, 100.0, (30, 2))
    return src, 1.1 * src + 3.0


def test_ransac_skips_only_hypotheses_on_a_nan_point():
    """A NaN correspondence fails a stacked SVD as a whole; only the
    hypotheses that sample it may drop out."""
    src, dst = _affine_pair()
    src[7] = np.nan
    expected = reference_estimate_homography_ransac(src, dst,
                                                    threshold=2.0)
    actual = estimate_homography_ransac(src, dst, threshold=2.0)
    assert expected.num_inliers == 29
    _assert_same_pose(expected, actual)


@pytest.mark.parametrize("max_iterations", [0, -1])
def test_ransac_without_hypotheses_returns_none(max_iterations):
    src, dst = _affine_pair()
    assert reference_estimate_homography_ransac(
        src, dst, max_iterations=max_iterations) is None
    assert estimate_homography_ransac(
        src, dst, max_iterations=max_iterations) is None


@pytest.mark.parametrize("n,max_iterations", [(30, 1), (4, 200)])
def test_ransac_smallest_runs_match_reference(n, max_iterations):
    src, dst = _affine_pair()
    expected = reference_estimate_homography_ransac(
        src[:n], dst[:n], max_iterations=max_iterations,
        min_inliers=4)
    assert expected is not None and expected.num_inliers == n
    _assert_same_pose(expected, estimate_homography_ransac(
        src[:n], dst[:n], max_iterations=max_iterations,
        min_inliers=4))


def test_ransac_ties_go_to_the_first_hypothesis():
    """Two equal-size point groups under different maps tie on inlier
    count; the earliest hypothesis with that count wins, as in the
    loop (which also stops at the first that explains every point)."""
    rng = np.random.default_rng(3)
    src = rng.uniform(0.0, 100.0, (20, 2))
    dst = np.vstack([_similarity(rng, src[:10]),
                     _similarity(rng, src[10:])])
    pure = [sample[0] // 10 for sample in _samples(20, seed=1)
            if len(set(sample // 10)) == 1]
    assert pure[0] != pure[-1]  # the last tied hypothesis fits the other
    expected = reference_estimate_homography_ransac(src, dst,
                                                    threshold=1.0, seed=1)
    assert np.array_equal(expected.inliers, np.arange(20) // 10 == pure[0])
    _assert_same_pose(expected, estimate_homography_ransac(
        src, dst, threshold=1.0, seed=1))
    # Every point fits: the first hypothesis already has full support.
    _assert_same_pose(
        reference_estimate_homography_ransac(src[:10], dst[:10]),
        estimate_homography_ransac(src[:10], dst[:10]))


# ----------------------------------------------------------------------
# End-to-end: frame -> features -> encoding -> index, both paths
# ----------------------------------------------------------------------
def test_pipeline_end_to_end_bit_identical():
    image = _frame(seed=0, size=(144, 192), number=3)
    extractor = SiftExtractor()
    ref_kps, ref_desc = \
        ReferenceSiftExtractor(extractor).detect_and_describe(image)
    vec_kps, vec_desc = extractor.detect_and_describe(image)
    _assert_keypoints_equal(ref_kps, vec_kps)
    _assert_bit_equal(ref_desc, vec_desc)

    rng = np.random.default_rng(0)
    pca = Pca(8).fit(np.vstack([ref_desc,
                                rng.standard_normal((64, 128))]))
    projected_ref = pca.transform(ref_desc)
    projected_vec = pca.transform(vec_desc)
    _assert_bit_equal(projected_ref, projected_vec)

    gmm = GaussianMixture(2, seed=0).fit(projected_ref)
    encoder = FisherEncoder(gmm)
    fisher_ref = reference_fisher_encode(encoder, projected_ref)
    fisher_vec = encoder.encode(projected_vec)
    _assert_bit_equal(fisher_ref, fisher_vec)

    index = LshIndex(encoder.dimension, seed=0)
    index.insert("frame", fisher_vec)
    assert index.query(fisher_ref, k=1) == \
        reference_lsh_query(index, fisher_ref, k=1)


# ----------------------------------------------------------------------
# Feature cache: hits are bit-identical to recomputes
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def trained_stack():
    """A small PCA + GMM trained on real descriptors (shared)."""
    extractor = SiftExtractor(max_keypoints=120)
    video = SyntheticVideo(seed=0, size=(96, 128))
    descriptors = np.vstack([
        extractor.detect_and_describe(
            to_grayscale(video.frame(n).image))[1]
        for n in (0, 9)])
    pca = Pca(8).fit(descriptors)
    gmm = GaussianMixture(2, seed=0).fit(pca.transform(descriptors))
    return video, extractor, pca, FisherEncoder(gmm)


def test_cached_backend_bit_identical_to_uncached(trained_stack):
    video, extractor, pca, encoder = trained_stack
    cached = FrameFeatureExtractor(
        video, extractor, pca=pca, encoder=encoder,
        cache=FeatureCache())
    uncached = FrameFeatureExtractor(
        video, extractor, pca=pca, encoder=encoder,
        cache=FeatureCache(enabled=False))

    for frame_number in (2, 11, 2, 11, 2):  # repeats hit the cache
        ckps, cdesc = cached.features(frame_number)
        ukps, udesc = uncached.features(frame_number)
        _assert_keypoints_equal(list(ukps), list(ckps))
        _assert_bit_equal(udesc, cdesc)
        _assert_bit_equal(uncached.encoding(frame_number),
                          cached.encoding(frame_number))

    stats = cached.stats()
    assert stats.hits > 0 and stats.misses > 0
    assert uncached.stats().hits == 0


# ----------------------------------------------------------------------
# The determinism contract survives the cache
# ----------------------------------------------------------------------
@pytest.fixture
def feature_cache_disabled(monkeypatch):
    """Disable the process-default cache for one test, then restore."""
    monkeypatch.setenv(DISABLE_ENV, "1")
    reset_default_feature_cache()
    assert not default_feature_cache().enabled
    yield
    # monkeypatch restores the environment after this; dropping the
    # singleton makes the next consumer re-read it.
    reset_default_feature_cache()


@pytest.mark.parametrize("workers", [0, 4])
def test_golden_digests_unchanged_with_cache_disabled(
        feature_cache_disabled, workers):
    """The committed golden digests hold with caching off, any shard.

    ``tests/test_determinism.py`` pins the digests with the default
    (enabled) cache; this is the other half of the regression — the
    cache being *absent* is equally invisible.  Worker processes
    inherit the disabling environment variable.
    """
    import json

    from repro.experiments.campaign import run_campaign
    from tests.test_determinism import (
        CONTRACT_CAMPAIGN,
        GOLDEN_PATH,
        _digest_map,
    )

    report = run_campaign(CONTRACT_CAMPAIGN, workers=workers)
    assert not report.failures
    golden = json.loads(GOLDEN_PATH.read_text())
    assert _digest_map(report) == golden["digests"]
