"""Tests for the recognition-quality evaluation harness."""

import numpy as np
import pytest

from repro.vision.dataset import ScenePlacement, WorkplaceDataset
from repro.vision.evaluation import (
    AccuracyReport,
    bounding_box,
    box_iou,
    evaluate_recognizer,
    score_frame,
)
from repro.vision.recognizer import Recognition, RecognizerTrainer
from repro.vision.sift import SiftExtractor
from repro.vision.video import SyntheticVideo


def square(x0, y0, size):
    return np.array([[x0, y0], [x0 + size, y0],
                     [x0 + size, y0 + size], [x0, y0 + size]],
                    dtype=float)


def placement(name, x0=10.0, y0=10.0, size=20.0):
    corners = square(x0, y0, size)
    return ScenePlacement(name=name, affine=np.zeros((2, 3)),
                          corners=corners)


def recognition(name, x0=10.0, y0=10.0, size=20.0):
    return Recognition(name=name, corners=square(x0, y0, size),
                       num_inliers=10, similarity=0.9, mean_error=0.5)


# ----------------------------------------------------------------------
# Geometry helpers
# ----------------------------------------------------------------------
def test_bounding_box():
    assert bounding_box(square(2, 3, 5)) == (2.0, 3.0, 7.0, 8.0)


def test_iou_identical_is_one():
    a = square(0, 0, 10)
    assert box_iou(a, a) == pytest.approx(1.0)


def test_iou_disjoint_is_zero():
    assert box_iou(square(0, 0, 10), square(100, 100, 10)) == 0.0


def test_iou_half_overlap():
    a = square(0, 0, 10)
    b = square(5, 0, 10)
    # intersection 50, union 150.
    assert box_iou(a, b) == pytest.approx(1 / 3)


# ----------------------------------------------------------------------
# Frame scoring
# ----------------------------------------------------------------------
def test_score_perfect_frame():
    truth = [placement("monitor"), placement("table", x0=60.0)]
    found = [recognition("monitor"), recognition("table", x0=60.0)]
    score = score_frame(found, truth)
    assert score.true_positives == 2
    assert score.false_positives == 0
    assert score.false_negatives == 0
    assert score.localization_errors_px == pytest.approx([0.0, 0.0])


def test_score_miss_and_hallucination():
    truth = [placement("monitor")]
    found = [recognition("keyboard", x0=60.0)]
    score = score_frame(found, truth)
    assert score.true_positives == 0
    assert score.false_positives == 1
    assert score.false_negatives == 1


def test_score_poor_overlap_is_false_positive():
    truth = [placement("monitor", x0=0.0)]
    found = [recognition("monitor", x0=100.0)]
    score = score_frame(found, truth)
    assert score.false_positives == 1
    assert score.false_negatives == 1


def test_score_duplicate_recognitions_penalized():
    truth = [placement("monitor")]
    found = [recognition("monitor"), recognition("monitor")]
    score = score_frame(found, truth)
    assert score.true_positives == 1
    assert score.false_positives == 1


def test_score_threshold_validation():
    with pytest.raises(ValueError):
        score_frame([], [], iou_threshold=0.0)


def test_report_derived_metrics():
    report = AccuracyReport(frames=10, true_positives=8,
                            false_positives=2, false_negatives=4,
                            mean_localization_error_px=1.0,
                            mean_iou=0.8, per_object_recall={})
    assert report.precision == pytest.approx(0.8)
    assert report.recall == pytest.approx(8 / 12)
    assert report.f1 == pytest.approx(2 * 0.8 * (8 / 12)
                                      / (0.8 + 8 / 12))


def test_report_empty_denominators():
    report = AccuracyReport(frames=0, true_positives=0,
                            false_positives=0, false_negatives=0,
                            mean_localization_error_px=0.0,
                            mean_iou=0.0, per_object_recall={})
    assert report.precision == 0.0
    assert report.recall == 0.0
    assert report.f1 == 0.0


# ----------------------------------------------------------------------
# End-to-end accuracy of the real recognizer
# ----------------------------------------------------------------------
def test_recognizer_accuracy_on_video():
    dataset = WorkplaceDataset(seed=0)
    extractor = SiftExtractor(contrast_threshold=0.01,
                              max_keypoints=300)
    recognizer = RecognizerTrainer(seed=0).train(dataset, extractor)
    video = SyntheticVideo(seed=0)
    report = evaluate_recognizer(recognizer, video,
                                 frame_indices=range(0, 120, 15))
    assert report.frames == 8
    # Recognitions are precise (few hallucinations) and cover most
    # objects; localization is tight when they hit.
    assert report.precision >= 0.8
    # Recall is pose-dependent (mid-pan frames lose the weaker
    # objects); what matters is that hits are precise and tight.
    assert report.recall >= 0.4
    assert report.mean_localization_error_px <= 8.0
    assert report.mean_iou >= 0.6
    assert set(report.per_object_recall) == {"monitor", "keyboard",
                                             "table"}
