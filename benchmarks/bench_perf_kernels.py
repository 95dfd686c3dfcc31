"""Vision-kernel throughput — reference vs vectorized vs cached.

The workload models the paper's §3.2 setup: every client replays the
same looped video, so the recognition pipeline sees the *same frames
over and over*.  Each frame is pushed through SIFT → PCA → Fisher
three ways:

* **reference** — the per-keypoint/per-row loop twins from
  :mod:`repro.vision.reference` (the bit-identity baseline);
* **vectorized** — the batched production kernels, caching disabled;
* **cached** — the batched kernels behind the content-addressed
  :class:`~repro.vision.cache.FeatureCache` (every repeat is a hit).

All three produce bit-identical descriptors and encodings (enforced by
``tests/test_kernel_equivalence.py``; spot-checked again here), so the
frames/sec ratio is a pure like-for-like speedup.  Results land in
the committed repo-root ``BENCH_perf_kernels.json`` together with the
cached run's per-stage profiler attribution.

The **pose** arm times RANSAC on the correspondences the recognizer
actually hands it (the perfbench ``vision`` frame pool): the
per-hypothesis loop twin against the batched production kernel, with
the repeats interleaved and best-of-N per arm.  It lands in the same
file as a ``pose`` block.  The batched kernel draws its sample tables
once per correspondence count, so after the bit-identity pass every
timed call reuses a table, as a long-running recognizer does.

The **blur** arm replays every blur the recognizer's training and
the same frames run — each distinct image shape, sigma and memory
layout — through the NumPy blur and ``scipy.ndimage.convolve1d``,
checks that the outputs are bit-identical, and reports best-of-N µs
per blur for both.  The times are reported, not gated.

Set ``PERF_KERNELS_SMOKE=1`` to shrink the workload (CI).
"""

from __future__ import annotations

import json
import os
import time
from unittest import mock

import numpy as np

from repro.metrics.profiling import StageProfiler
from repro.scatter.content import FrameFeatureExtractor
from repro.vision import gaussian as gaussian_module
from repro.vision import recognizer as recognizer_module
from repro.vision.cache import FeatureCache
from repro.vision.dataset import WorkplaceDataset
from repro.vision.fisher import FisherEncoder, GaussianMixture
from repro.vision.gaussian import gaussian_blur, gaussian_kernel_1d
from repro.vision.image import to_grayscale
from repro.vision.pca import Pca
from repro.vision.pose import estimate_homography_ransac
from repro.vision.recognizer import RecognizerTrainer
from repro.vision.reference import (
    ReferenceSiftExtractor,
    reference_estimate_homography_ransac,
    reference_fisher_encode,
)
from repro.vision.sift import SiftExtractor
from repro.vision.video import SyntheticVideo

from benchmarks.conftest import save_bench_json

SMOKE = os.environ.get("PERF_KERNELS_SMOKE") == "1"
#: Distinct frames per loop, and how often each repeats (≈ clients).
DISTINCT_FRAMES = 2 if SMOKE else 5
REPEATS = 3 if SMOKE else 6
FRAME_SIZE = (96, 128) if SMOKE else (144, 192)

#: Pose arm: the perfbench ``vision`` pool (the middle frame of each of
#: 12 equal stretches of the 300-frame video), or its first 4 frames.
POSE_FRAMES = [k * 25 + 12 for k in range(4 if SMOKE else 12)]
POSE_REPEATS = 3 if SMOKE else 7
#: The loop costs about 6-9x the batched pass per call, so a 2x gate
#: sits far outside run-to-run swing; smoke only asks for a win.
MIN_POSE_SPEEDUP = 1.0 if SMOKE else 2.0

#: Blur arm: best of this many timings per blur and arm, each timing
#: ``BLUR_CALLS`` back-to-back calls.
BLUR_REPEATS = 3 if SMOKE else 7
BLUR_CALLS = 5


def _workload():
    """Frame numbers as N clients replaying the same loop would."""
    distinct = [i * 7 for i in range(DISTINCT_FRAMES)]
    return distinct * REPEATS


def _trained_stack():
    video = SyntheticVideo(seed=0, size=FRAME_SIZE)
    extractor = SiftExtractor(max_keypoints=150)
    descriptors = np.vstack([
        extractor.detect_and_describe(
            to_grayscale(video.frame(n).image))[1]
        for n in (0, 7)])
    pca = Pca(8).fit(descriptors)
    gmm = GaussianMixture(2, seed=0).fit(pca.transform(descriptors))
    return video, extractor, pca, FisherEncoder(gmm)


def _timed(fn, frames) -> tuple:
    start = time.perf_counter()
    outputs = [fn(number) for number in frames]
    elapsed = time.perf_counter() - start
    return len(frames) / elapsed, outputs


def _recognizer_calls():
    """What the recognizer hands its kernels on :data:`POSE_FRAMES`.

    Returns ``(ransac, training_blurs, frame_blurs)``: the
    ``(src, dst, kwargs)`` of every RANSAC call, and the
    ``(image, sigma)`` of every blur in training and in the frames.
    """
    dataset = WorkplaceDataset(seed=0)
    with mock.patch.object(gaussian_module, "gaussian_blur",
                           wraps=gaussian_blur) as training_blurs:
        recognizer = RecognizerTrainer(seed=0).train(
            dataset, SiftExtractor(contrast_threshold=0.01,
                                   max_keypoints=300))
    video = SyntheticVideo(seed=0, dataset=dataset)
    with mock.patch.object(
            recognizer_module, "estimate_homography_ransac",
            wraps=estimate_homography_ransac) as ransac, \
            mock.patch.object(gaussian_module, "gaussian_blur",
                              wraps=gaussian_blur) as frame_blurs:
        for number in POSE_FRAMES:
            recognizer.process_frame(video.frame(number).image)
    return ([(src, dst, kwargs)
             for (src, dst), kwargs in ransac.call_args_list],
            [call.args for call in training_blurs.call_args_list],
            [call.args for call in frame_blurs.call_args_list])


def _pose_bytes(result) -> bytes:
    if result is None:
        return b""
    return (result.matrix.tobytes() + result.inliers.tobytes()
            + np.float64(result.mean_error).tobytes())


def _pose_arm(calls) -> dict:
    """Loop twin vs batched RANSAC on the recognizer's own inputs."""
    arms = {"reference": reference_estimate_homography_ransac,
            "batched": estimate_homography_ransac}

    def run(name):
        started = time.perf_counter()
        results = [arms[name](src, dst, **kwargs)
                   for src, dst, kwargs in calls]
        return time.perf_counter() - started, results

    # Equal results before any time is trusted.
    outputs = {name: [_pose_bytes(r) for r in run(name)[1]]
               for name in arms}
    assert outputs["reference"] == outputs["batched"]

    best = {name: float("inf") for name in arms}
    for repeat in range(POSE_REPEATS):
        order = list(arms) if repeat % 2 == 0 else list(arms)[::-1]
        for name in order:
            best[name] = min(best[name], run(name)[0])
    sizes = [len(src) for src, __, __ in calls]
    return {
        "frames": len(POSE_FRAMES),
        "calls": len(calls),
        "posed": sum(bool(b) for b in outputs["batched"]),
        "correspondences": {"min": min(sizes),
                            "median": float(np.median(sizes)),
                            "max": max(sizes)},
        "repeats": POSE_REPEATS,
        "reference_ms_per_call": round(
            best["reference"] / len(calls) * 1e3, 3),
        "batched_ms_per_call": round(
            best["batched"] / len(calls) * 1e3, 3),
        "speedup": round(best["reference"] / best["batched"], 2),
        "min_speedup": MIN_POSE_SPEEDUP,
        "bit_identical": True,
    }


def _ndimage_blur(image, sigma):
    """The blur as ``scipy.ndimage`` runs it: rows, then columns."""
    from scipy import ndimage

    kernel = gaussian_kernel_1d(sigma)
    rows = ndimage.convolve1d(image, kernel, axis=1, mode="nearest")
    return ndimage.convolve1d(rows, kernel, axis=0, mode="nearest")


def _blur_key(image, sigma):
    return image.shape, float(sigma), image.flags.c_contiguous


def _blur_arm(training, frames) -> dict:
    """NumPy blur vs ``scipy.ndimage`` on every distinct blur of the
    recognizer's training and frames."""
    arms = {"ndimage": _ndimage_blur, "numpy": gaussian_blur}
    distinct = {}
    for image, sigma in training + frames:
        distinct.setdefault(_blur_key(image, sigma), (image, sigma))
    # Equal results before any time is trusted.
    for image, sigma in distinct.values():
        assert gaussian_blur(image, sigma).tobytes() == \
            _ndimage_blur(image, sigma).tobytes(), (image.shape, sigma)

    best = {}
    for key, (image, sigma) in distinct.items():
        times = {name: float("inf") for name in arms}
        for repeat in range(BLUR_REPEATS):
            order = list(arms) if repeat % 2 == 0 else list(arms)[::-1]
            for name in order:
                started = time.perf_counter()
                for __ in range(BLUR_CALLS):
                    arms[name](image, sigma)
                times[name] = min(times[name], (time.perf_counter()
                                                - started) / BLUR_CALLS)
        best[key] = times

    def total_ms(calls, name, per=1):
        return sum(best[_blur_key(image, sigma)][name]
                   for image, sigma in calls) * 1e3 / per

    # Per image size: the sum over its distinct blurs, each best-of-N.
    shapes = {}
    for (shape, __, __), times in sorted(best.items()):
        row = shapes.setdefault(f"{shape[0]}x{shape[1]}",
                                {"blurs": 0, "ndimage_us": 0.0,
                                 "numpy_us": 0.0})
        row["blurs"] += 1
        for name in arms:
            row[f"{name}_us"] += times[name] * 1e6
    for row in shapes.values():
        row["ratio"] = round(row["numpy_us"] / row["ndimage_us"], 2)
        for name in arms:
            row[f"{name}_us"] = round(row[f"{name}_us"], 1)
    frames_per = len(POSE_FRAMES)
    return {
        "distinct_blurs": len(distinct),
        "training_calls": len(training),
        "frame_calls": len(frames),
        "repeats": BLUR_REPEATS,
        "calls_per_timing": BLUR_CALLS,
        "shapes": shapes,
        "training_ndimage_ms": round(total_ms(training, "ndimage"), 3),
        "training_numpy_ms": round(total_ms(training, "numpy"), 3),
        "frame_ndimage_ms": round(
            total_ms(frames, "ndimage", frames_per), 3),
        "frame_numpy_ms": round(total_ms(frames, "numpy", frames_per), 3),
        "frame_ratio": round(total_ms(frames, "numpy")
                             / total_ms(frames, "ndimage"), 2),
        "bit_identical": True,
    }


def test_kernel_throughput(save_result):
    video, extractor, pca, encoder = _trained_stack()
    frames = _workload()
    gray = {number: to_grayscale(video.frame(number).image)
            for number in set(frames)}

    reference_extractor = ReferenceSiftExtractor(extractor)

    def reference_frame(number):
        __, descriptors = \
            reference_extractor.detect_and_describe(gray[number])
        return reference_fisher_encode(encoder,
                                       pca.transform(descriptors))

    def vectorized_frame(number):
        __, descriptors = extractor.detect_and_describe(gray[number])
        return encoder.encode(pca.transform(descriptors))

    profiler = StageProfiler()
    cached_backend = FrameFeatureExtractor(
        video, extractor, pca=pca, encoder=encoder,
        cache=FeatureCache(), profiler=profiler)

    reference_fps, reference_out = _timed(reference_frame, frames)
    vectorized_fps, vectorized_out = _timed(vectorized_frame, frames)
    cached_fps, cached_out = _timed(cached_backend.encoding, frames)

    # The three paths remain bit-identical (the full sweep lives in
    # tests/test_kernel_equivalence.py).
    for ref, vec, hit in zip(reference_out, vectorized_out,
                             cached_out):
        assert ref.tobytes() == vec.tobytes() == hit.tobytes()
    stats = cached_backend.stats()
    assert stats.hits > 0  # repeats actually hit the cache

    entry = {
        "workload": {
            "distinct_frames": DISTINCT_FRAMES,
            "repeats": REPEATS,
            "frame_size": list(FRAME_SIZE),
            "smoke": SMOKE,
        },
        "reference_fps": round(reference_fps, 3),
        "vectorized_fps": round(vectorized_fps, 3),
        "cached_fps": round(cached_fps, 3),
        "vectorized_speedup": round(vectorized_fps / reference_fps, 2),
        "cached_speedup": round(cached_fps / reference_fps, 2),
        "cache": stats.as_dict(),
        "profile": profiler.as_dict(),
        "bit_identical": True,
    }
    ransac_calls, training_blurs, frame_blurs = _recognizer_calls()
    entry["pose"] = _pose_arm(ransac_calls)
    entry["blur"] = _blur_arm(training_blurs, frame_blurs)
    save_bench_json("perf_kernels", entry)
    save_result("perf_kernels", json.dumps(entry, indent=2,
                                           sort_keys=True))

    # The acceptance bar: vectorized + cached is at least 2x the loop
    # reference on a repeated-frame workload.  In practice the gap is
    # one to two orders of magnitude.
    assert vectorized_fps > reference_fps, entry
    assert cached_fps >= 2.0 * reference_fps, entry
    pose = entry["pose"]
    if SMOKE:
        assert pose["speedup"] > MIN_POSE_SPEEDUP, pose
    else:
        assert pose["speedup"] >= MIN_POSE_SPEEDUP, pose
