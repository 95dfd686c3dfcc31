"""Recognition-quality evaluation against ground truth.

The synthetic video carries exact object placements, so the CV
substrate can be scored the way detection systems usually are:
per-frame matching of recognitions to ground truth (same object name,
sufficient overlap), aggregated into precision / recall / F1 and mean
localization error.  Used by the accuracy tests and the
``bench_vision_accuracy`` benchmark to guard the *algorithmic* quality
of the pipeline, independently of the systems results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.vision.dataset import ScenePlacement
from repro.vision.recognizer import Recognition


def bounding_box(corners: np.ndarray) -> Tuple[float, float, float, float]:
    """Axis-aligned (x0, y0, x1, y1) of a corner set."""
    return (float(corners[:, 0].min()), float(corners[:, 1].min()),
            float(corners[:, 0].max()), float(corners[:, 1].max()))


def box_iou(a: np.ndarray, b: np.ndarray) -> float:
    """Intersection-over-union of the axis-aligned boxes of two
    corner sets (the usual detection-metric approximation)."""
    ax0, ay0, ax1, ay1 = bounding_box(a)
    bx0, by0, bx1, by1 = bounding_box(b)
    ix0, iy0 = max(ax0, bx0), max(ay0, by0)
    ix1, iy1 = min(ax1, bx1), min(ay1, by1)
    if ix1 <= ix0 or iy1 <= iy0:
        return 0.0
    intersection = (ix1 - ix0) * (iy1 - iy0)
    union = ((ax1 - ax0) * (ay1 - ay0)
             + (bx1 - bx0) * (by1 - by0) - intersection)
    return intersection / union if union > 0 else 0.0


@dataclass
class FrameScore:
    """Per-frame matching outcome."""

    true_positives: int = 0
    false_positives: int = 0
    false_negatives: int = 0
    localization_errors_px: List[float] = field(default_factory=list)
    ious: List[float] = field(default_factory=list)


@dataclass
class AccuracyReport:
    """Aggregated recognition quality over many frames."""

    frames: int
    true_positives: int
    false_positives: int
    false_negatives: int
    mean_localization_error_px: float
    mean_iou: float
    per_object_recall: Dict[str, float]

    @property
    def precision(self) -> float:
        denominator = self.true_positives + self.false_positives
        return self.true_positives / denominator if denominator else 0.0

    @property
    def recall(self) -> float:
        denominator = self.true_positives + self.false_negatives
        return self.true_positives / denominator if denominator else 0.0

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2 * p * r / (p + r) if (p + r) else 0.0


def score_frame(recognitions: Sequence[Recognition],
                ground_truth: Sequence[ScenePlacement],
                *, iou_threshold: float = 0.3) -> FrameScore:
    """Match recognitions to ground truth for one frame.

    A recognition is a true positive when an unmatched ground-truth
    object of the same name overlaps it with IoU above the threshold.
    """
    if not 0.0 < iou_threshold <= 1.0:
        raise ValueError(
            f"iou_threshold must be in (0, 1], got {iou_threshold}")
    score = FrameScore()
    unmatched = {placement.name: placement
                 for placement in ground_truth}
    for recognition in recognitions:
        placement = unmatched.get(recognition.name)
        if placement is None:
            score.false_positives += 1
            continue
        iou = box_iou(np.asarray(recognition.corners),
                      np.asarray(placement.corners))
        if iou < iou_threshold:
            score.false_positives += 1
            continue
        del unmatched[recognition.name]
        score.true_positives += 1
        score.ious.append(iou)
        found = np.asarray(recognition.corners).mean(axis=0)
        expected = np.asarray(placement.corners).mean(axis=0)
        score.localization_errors_px.append(
            float(np.linalg.norm(found - expected)))
    score.false_negatives = len(unmatched)
    return score


def evaluate_recognizer(recognizer, video, *,
                        frame_indices: Sequence[int],
                        iou_threshold: float = 0.3) -> AccuracyReport:
    """Score a recognizer over selected frames of a synthetic video."""
    scores: List[FrameScore] = []
    object_hits: Dict[str, int] = {}
    object_total: Dict[str, int] = {}
    for index in frame_indices:
        frame = video.frame(index)
        result = recognizer.process_frame(frame.image)
        score = score_frame(result.recognitions, frame.ground_truth,
                            iou_threshold=iou_threshold)
        scores.append(score)
        unmatched = {p.name: p for p in frame.ground_truth}
        for placement in frame.ground_truth:
            object_total[placement.name] = \
                object_total.get(placement.name, 0) + 1
        for recognition in result.recognitions:
            placement = unmatched.get(recognition.name)
            if placement is None:
                continue
            if box_iou(np.asarray(recognition.corners),
                       np.asarray(placement.corners)) >= iou_threshold:
                object_hits[recognition.name] = \
                    object_hits.get(recognition.name, 0) + 1
                del unmatched[recognition.name]

    errors = [e for s in scores for e in s.localization_errors_px]
    ious = [i for s in scores for i in s.ious]
    return AccuracyReport(
        frames=len(scores),
        true_positives=sum(s.true_positives for s in scores),
        false_positives=sum(s.false_positives for s in scores),
        false_negatives=sum(s.false_negatives for s in scores),
        mean_localization_error_px=(float(np.mean(errors))
                                    if errors else 0.0),
        mean_iou=float(np.mean(ious)) if ious else 0.0,
        per_object_recall={
            name: object_hits.get(name, 0) / total
            for name, total in object_total.items()
        })
