"""Cross-frame object tracking.

scAtteR's core operation is "(i) detecting and recognizing objects
in-frame and (ii) **tracking them across multiple frames**" (§3.1).
The per-frame recognizer (:mod:`repro.vision.recognizer`) covers (i);
this module covers (ii): it associates per-frame recognitions into
persistent tracks, smooths their poses, and coasts through short
recognition gaps on a constant-velocity model — which is what keeps an
augmentation stable when a frame's recognition flickers out.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.vision.recognizer import Recognition


@dataclass
class TrackedObject:
    """One persistent object track."""

    track_id: int
    name: str
    corners: np.ndarray          # (4, 2) smoothed corner estimate
    velocity: np.ndarray         # (2,) centre velocity, px/frame
    last_seen_frame: int
    hits: int = 1                # frames with a supporting recognition
    misses: int = 0              # consecutive coasted frames

    @property
    def centre(self) -> np.ndarray:
        return self.corners.mean(axis=0)


class ObjectTracker:
    """Associates recognitions to tracks; smooths and coasts poses."""

    def __init__(self, *, smoothing: float = 0.6,
                 max_association_distance: float = 25.0,
                 max_misses: int = 5, min_hits: int = 2):
        if not 0.0 < smoothing <= 1.0:
            raise ValueError(f"smoothing must be in (0, 1], got {smoothing}")
        if max_association_distance <= 0:
            raise ValueError("max_association_distance must be positive")
        if max_misses < 0 or min_hits < 1:
            raise ValueError("max_misses >= 0 and min_hits >= 1 required")
        self.smoothing = smoothing
        self.max_association_distance = max_association_distance
        self.max_misses = max_misses
        self.min_hits = min_hits
        self._tracks: Dict[int, TrackedObject] = {}
        self._next_id = 1
        self._last_frame: Optional[int] = None

    @property
    def tracks(self) -> List[TrackedObject]:
        """All live tracks (including immature and coasting ones)."""
        return list(self._tracks.values())

    def confirmed_tracks(self) -> List[TrackedObject]:
        """Tracks with enough supporting recognitions to trust."""
        return [track for track in self._tracks.values()
                if track.hits >= self.min_hits]

    # ------------------------------------------------------------------
    def update(self, frame_index: int,
               recognitions: Sequence[Recognition]) -> List[TrackedObject]:
        """Advance the tracker by one frame.

        Returns the confirmed tracks after the update, with coasted
        poses for objects that went unrecognized this frame.
        """
        if self._last_frame is not None and frame_index <= self._last_frame:
            raise ValueError(
                f"frames must advance: {frame_index} after "
                f"{self._last_frame}")
        self._last_frame = frame_index

        unmatched = list(recognitions)
        for track in list(self._tracks.values()):
            best = None
            best_distance = self.max_association_distance
            for recognition in unmatched:
                if recognition.name != track.name:
                    continue
                predicted = track.centre + track.velocity
                distance = float(np.linalg.norm(
                    recognition.corners.mean(axis=0) - predicted))
                if distance < best_distance:
                    best = recognition
                    best_distance = distance
            if best is not None:
                unmatched.remove(best)
                self._absorb(track, best, frame_index)
            else:
                self._coast(track, frame_index)

        for recognition in unmatched:
            self._tracks[self._next_id] = TrackedObject(
                track_id=self._next_id,
                name=recognition.name,
                corners=np.asarray(recognition.corners, dtype=float),
                velocity=np.zeros(2),
                last_seen_frame=frame_index)
            self._next_id += 1

        # Retire tracks that coasted too long.
        for track_id in [tid for tid, track in self._tracks.items()
                         if track.misses > self.max_misses]:
            del self._tracks[track_id]
        return self.confirmed_tracks()

    def _absorb(self, track: TrackedObject, recognition: Recognition,
                frame_index: int) -> None:
        new_corners = np.asarray(recognition.corners, dtype=float)
        old_centre = track.centre
        alpha = self.smoothing
        track.corners = alpha * new_corners + (1 - alpha) * track.corners
        frames_elapsed = max(1, frame_index - track.last_seen_frame)
        track.velocity = (track.centre - old_centre) / frames_elapsed
        track.last_seen_frame = frame_index
        track.hits += 1
        track.misses = 0

    def _coast(self, track: TrackedObject, frame_index: int) -> None:
        # Constant-velocity prediction keeps the augmentation moving
        # through recognition gaps.
        track.corners = track.corners + track.velocity
        track.misses += 1
