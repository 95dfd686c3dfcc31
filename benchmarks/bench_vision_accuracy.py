"""CV-substrate quality: recognition accuracy on the replay video.

Not a figure from the paper — the paper evaluates systems QoS — but a
guardrail for this reproduction's *algorithmic* substrate: the real
SIFT → PCA/Fisher → LSH → matching → RANSAC chain must actually
recognize the workplace objects in the synthetic video, or the
calibrated service model would be simulating a pipeline that cannot
exist.  Also compares SIFT against the FAST+BRIEF fast model on
matching quality (the speed/robustness trade of §5).

The recognizer's scores land in the committed repo-root
``BENCH_vision_accuracy.json`` as full floats, with no timing in them,
so the file is the referee for changes that claim to leave the vision
kernels' outputs as they are: regenerated on such a change, it must
come out byte-identical.
"""

import numpy as np

from repro.experiments.reporting import format_table
from repro.vision.dataset import WorkplaceDataset
from repro.vision.evaluation import evaluate_recognizer
from repro.vision.fast_features import (
    BriefDescriptor,
    detect_fast,
    match_binary,
)
from repro.vision.recognizer import RecognizerTrainer
from repro.vision.sift import SiftExtractor
from repro.vision.video import SyntheticVideo

from benchmarks.conftest import save_bench_json

FRAME_INDICES = tuple(range(0, 300, 20))


def run_accuracy():
    dataset = WorkplaceDataset(seed=0)
    extractor = SiftExtractor(contrast_threshold=0.01,
                              max_keypoints=300)
    recognizer = RecognizerTrainer(seed=0).train(dataset, extractor)
    video = SyntheticVideo(seed=0)
    return evaluate_recognizer(recognizer, video,
                               frame_indices=FRAME_INDICES)


def test_vision_accuracy(benchmark, save_result):
    report = benchmark.pedantic(run_accuracy, rounds=1, iterations=1)

    rows = [
        ["frames scored", report.frames],
        ["precision", report.precision],
        ["recall", report.recall],
        ["F1", report.f1],
        ["mean IoU (hits)", report.mean_iou],
        ["mean localization error (px)",
         report.mean_localization_error_px],
    ]
    rows += [[f"recall: {name}", value]
             for name, value in sorted(report.per_object_recall.items())]
    save_result("vision_accuracy", format_table(["metric", "value"],
                                                rows))
    save_bench_json("vision_accuracy", {
        "frame_indices": list(FRAME_INDICES),
        "frames": report.frames,
        "true_positives": report.true_positives,
        "false_positives": report.false_positives,
        "false_negatives": report.false_negatives,
        "precision": report.precision,
        "recall": report.recall,
        "f1": report.f1,
        "mean_iou": report.mean_iou,
        "mean_localization_error_px": report.mean_localization_error_px,
        "per_object_recall": report.per_object_recall,
    })

    # The pipeline must be a working recognizer, not a prop.
    assert report.frames == len(FRAME_INDICES)
    assert report.precision >= 0.8
    assert report.recall >= 0.4
    assert report.mean_iou >= 0.6
    assert report.mean_localization_error_px <= 8.0


def test_fast_model_match_quality(benchmark, save_result):
    """FAST+BRIEF matches the same texture across a translation —
    cheaper than SIFT but with the expected robustness gap."""
    rng = np.random.default_rng(0)
    texture = rng.random((60, 60))
    scene_a = np.full((120, 120), 0.5)
    scene_b = np.full((120, 120), 0.5)
    scene_a[20:80, 20:80] = texture
    scene_b[35:95, 30:90] = texture  # shifted (10, 15)

    def match_pair():
        kp_a = detect_fast(scene_a, threshold=0.1, max_keypoints=150)
        kp_b = detect_fast(scene_b, threshold=0.1, max_keypoints=150)
        brief = BriefDescriptor(seed=0)
        desc_a = brief.describe(scene_a, kp_a)
        desc_b = brief.describe(scene_b, kp_b)
        matches = match_binary(desc_a, desc_b, ratio=0.95)
        good = sum(
            1 for match in matches
            if abs((kp_b[match.reference_index].x
                    - kp_a[match.query_index].x) - 10) <= 2
            and abs((kp_b[match.reference_index].y
                     - kp_a[match.query_index].y) - 15) <= 2)
        return len(matches), good

    total, good = benchmark(match_pair)
    save_result("vision_fast_match_quality", format_table(
        ["metric", "value"],
        [["matches", total], ["translation-consistent", good],
         ["inlier ratio", good / total if total else 0.0]]))
    assert total >= 10
    assert good / total >= 0.5
