"""Tests for the content-driven cost model."""

import numpy as np
import pytest

from repro.experiments.runner import ExperimentSpec, run_experiment
from repro.scatter.config import PIPELINE_ORDER, baseline_configs
from repro.scatter.content import ContentCostModel
from repro.vision.video import SyntheticVideo


@pytest.fixture(scope="module")
def model():
    video = SyntheticVideo(seed=0)
    return ContentCostModel.from_video(video, sample_stride=30)


def test_multipliers_bounded_by_sensitivity(model):
    low, high = model.multiplier_range
    assert 0.75 <= low <= 1.0
    assert 1.0 <= high <= 1.25
    for frame in range(0, 300, 7):
        assert 0.75 <= model.multiplier(frame) <= 1.25


def test_multipliers_vary_with_content(model):
    values = {model.multiplier(frame) for frame in range(0, 300, 10)}
    assert len(values) > 3, "content variation should show up"


def test_multiplier_wraps_with_video_loop(model):
    assert model.multiplier(5) == model.multiplier(5 + model.period)


def test_frame_complexity_orders_textures():
    flat = np.full((64, 64), 0.5)
    rng = np.random.default_rng(0)
    busy = rng.random((64, 64))
    assert ContentCostModel.frame_complexity(busy) > \
        ContentCostModel.frame_complexity(flat)


def test_interpolation_between_samples():
    model = ContentCostModel({0: 0.0, 10: 1.0}, sensitivity=0.2)
    middle = model.multiplier(5)
    assert model.multiplier(0) < middle < model.multiplier(10)


def test_validation():
    with pytest.raises(ValueError):
        ContentCostModel({})
    with pytest.raises(ValueError):
        ContentCostModel({0: 1.0}, sensitivity=1.0)
    video = SyntheticVideo(seed=0)
    with pytest.raises(ValueError):
        ContentCostModel.from_video(video, sample_stride=0)


def test_experiment_with_content_model(model):
    """End to end: content-driven times widen the latency spread
    without breaking real-time service at one client."""
    kwargs = {"service_kwargs": {name: {"cost_model": model}
                                 for name in PIPELINE_ORDER}}
    flat = run_experiment(ExperimentSpec(
        baseline_configs()["C1"], num_clients=1, duration_s=10.0))
    content = run_experiment(ExperimentSpec(
        baseline_configs()["C1"], num_clients=1, duration_s=10.0,
        pipeline_kwargs=kwargs))
    assert content.mean_fps() >= 24.0
    # Mean E2E stays in the calibrated band...
    assert content.mean_e2e_ms() == pytest.approx(
        flat.mean_e2e_ms(), rel=0.15)
    # ...while per-frame latencies spread with frame content.
    flat_spread = np.std([lat for c in flat.clients
                          for lat in c.e2e_latencies_s])
    content_spread = np.std([lat for c in content.clients
                             for lat in c.e2e_latencies_s])
    assert content_spread > flat_spread
