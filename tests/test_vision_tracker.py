"""Tests for cross-frame object tracking."""

import numpy as np
import pytest

from repro.vision.recognizer import Recognition
from repro.vision.tracker import ObjectTracker


def make_recognition(name="monitor", centre=(50.0, 40.0), size=20.0,
                     inliers=10):
    cx, cy = centre
    half = size / 2.0
    corners = np.array([[cx - half, cy - half], [cx + half, cy - half],
                        [cx + half, cy + half], [cx - half, cy + half]])
    return Recognition(name=name, corners=corners,
                       num_inliers=inliers, similarity=0.9,
                       mean_error=0.5)


def test_track_created_and_confirmed():
    tracker = ObjectTracker(min_hits=2)
    assert tracker.update(0, [make_recognition()]) == []  # immature
    confirmed = tracker.update(1, [make_recognition()])
    assert len(confirmed) == 1
    track = confirmed[0]
    assert track.name == "monitor"
    assert track.hits == 2
    assert track.misses == 0


def test_track_follows_moving_object():
    tracker = ObjectTracker(min_hits=1, smoothing=0.8)
    for frame in range(10):
        centre = (50.0 + 3.0 * frame, 40.0)
        tracks = tracker.update(frame, [make_recognition(centre=centre)])
    assert len(tracks) == 1
    track = tracks[0]
    # The smoothed centre follows the motion.
    assert track.centre[0] == pytest.approx(50.0 + 27.0, abs=4.0)
    # And the estimated velocity points along +x.
    assert track.velocity[0] > 1.0
    assert abs(track.velocity[1]) < 0.5


def test_coasting_through_recognition_gap():
    tracker = ObjectTracker(min_hits=1, max_misses=4, smoothing=1.0)
    for frame in range(5):
        tracker.update(frame, [make_recognition(
            centre=(50.0 + 2.0 * frame, 40.0))])
    before_gap = tracker.confirmed_tracks()[0].centre.copy()
    # Three frames with no recognition: the track coasts forward.
    for frame in range(5, 8):
        tracks = tracker.update(frame, [])
        assert len(tracks) == 1
        assert tracks[0].misses > 0  # coasting
    after_gap = tracker.confirmed_tracks()[0].centre
    assert after_gap[0] > before_gap[0] + 3.0
    # Recognition returns: the same track absorbs it (no new id).
    tracks = tracker.update(8, [make_recognition(centre=(66.0, 40.0))])
    assert tracks[0].track_id == 1
    assert tracks[0].misses == 0


def test_track_retired_after_max_misses():
    tracker = ObjectTracker(min_hits=1, max_misses=2)
    tracker.update(0, [make_recognition()])
    for frame in range(1, 5):
        tracker.update(frame, [])
    assert tracker.tracks == []


def test_distinct_objects_get_distinct_tracks():
    tracker = ObjectTracker(min_hits=1)
    recognitions = [make_recognition("monitor", centre=(40.0, 30.0)),
                    make_recognition("keyboard", centre=(120.0, 90.0))]
    tracks = tracker.update(0, recognitions)
    assert {track.name for track in tracks} == {"monitor", "keyboard"}
    ids = {track.track_id for track in tracks}
    assert len(ids) == 2


def test_same_name_far_away_spawns_new_track():
    tracker = ObjectTracker(min_hits=1, max_association_distance=20.0)
    tracker.update(0, [make_recognition(centre=(40.0, 40.0))])
    tracks = tracker.update(1, [make_recognition(centre=(140.0, 40.0))])
    # Too far to be the same physical object: two tracks now exist.
    assert len(tracker.tracks) == 2


def test_name_mismatch_never_associates():
    tracker = ObjectTracker(min_hits=1)
    tracker.update(0, [make_recognition("monitor")])
    tracker.update(1, [make_recognition("keyboard")])
    names = sorted(track.name for track in tracker.tracks)
    assert names == ["keyboard", "monitor"]


def test_frames_must_advance():
    tracker = ObjectTracker()
    tracker.update(5, [])
    with pytest.raises(ValueError):
        tracker.update(5, [])
    with pytest.raises(ValueError):
        tracker.update(3, [])


def test_validation():
    with pytest.raises(ValueError):
        ObjectTracker(smoothing=0.0)
    with pytest.raises(ValueError):
        ObjectTracker(max_association_distance=0.0)
    with pytest.raises(ValueError):
        ObjectTracker(min_hits=0)


def test_tracking_stabilizes_real_recognitions():
    """End to end: tracking fills the per-frame recognition gaps seen
    on the synthetic video (the stability the paper's FPS metric is a
    proxy for)."""
    from repro.vision.dataset import WorkplaceDataset
    from repro.vision.recognizer import RecognizerTrainer
    from repro.vision.sift import SiftExtractor
    from repro.vision.video import SyntheticVideo

    dataset = WorkplaceDataset(seed=0)
    extractor = SiftExtractor(contrast_threshold=0.01,
                              max_keypoints=300)
    recognizer = RecognizerTrainer(seed=0).train(dataset, extractor)
    video = SyntheticVideo(seed=0)
    tracker = ObjectTracker(min_hits=2, max_misses=8)

    raw_counts = []
    tracked_counts = []
    for frame_index in range(0, 150, 10):
        frame = video.frame(frame_index)
        result = recognizer.process_frame(frame.image)
        tracks = tracker.update(frame_index, result.recognitions)
        raw_counts.append(len(result.recognitions))
        tracked_counts.append(len(tracks))

    # Once warmed up, the tracker holds at least as many objects as
    # raw recognition provides, and its coverage is steadier.
    assert np.mean(tracked_counts[2:]) >= np.mean(raw_counts[2:])
    assert np.std(tracked_counts[2:]) <= np.std(raw_counts[2:]) + 0.2
