"""Unit tests for image ops and the Gaussian scale space."""

import numpy as np
import pytest

from repro.vision.gaussian import (
    build_scale_space,
    downsample,
    gaussian_blur,
    gaussian_kernel_1d,
)
from repro.vision.image import (
    bilinear_resize,
    image_gradients,
    sample_bilinear,
    to_grayscale,
)


def test_grayscale_passthrough_for_2d():
    image = np.random.default_rng(0).random((8, 8))
    assert np.array_equal(to_grayscale(image), image)


def test_grayscale_weights_sum_to_one():
    white = np.ones((4, 4, 3))
    assert to_grayscale(white) == pytest.approx(np.ones((4, 4)))


def test_grayscale_channel_weighting():
    red = np.zeros((2, 2, 3))
    red[..., 0] = 1.0
    assert to_grayscale(red)[0, 0] == pytest.approx(0.299)


def test_grayscale_rejects_bad_shape():
    with pytest.raises(ValueError):
        to_grayscale(np.zeros((4, 4, 2)))


def test_resize_identity():
    image = np.random.default_rng(0).random((10, 12))
    assert np.array_equal(bilinear_resize(image, (10, 12)), image)


def test_resize_constant_image_stays_constant():
    image = np.full((16, 16), 0.7)
    resized = bilinear_resize(image, (5, 9))
    assert resized.shape == (5, 9)
    assert resized == pytest.approx(np.full((5, 9), 0.7))


def test_resize_downscale_averages():
    image = np.zeros((4, 4))
    image[:, 2:] = 1.0
    resized = bilinear_resize(image, (2, 2))
    # Left half dark, right half bright.
    assert resized[0, 0] < 0.5 < resized[0, 1]


def test_resize_validation():
    with pytest.raises(ValueError):
        bilinear_resize(np.zeros((4, 4, 3)), (2, 2))
    with pytest.raises(ValueError):
        bilinear_resize(np.zeros((4, 4)), (0, 2))


def test_gradients_of_ramp():
    xs = np.tile(np.arange(8, dtype=float), (8, 1))
    magnitude, orientation = image_gradients(xs)
    # Interior: horizontal gradient of 1, pointing along +x.
    assert magnitude[4, 4] == pytest.approx(1.0)
    assert orientation[4, 4] == pytest.approx(0.0)


def test_gradients_vertical_ramp():
    ys = np.tile(np.arange(8, dtype=float)[:, None], (1, 8))
    magnitude, orientation = image_gradients(ys)
    assert magnitude[4, 4] == pytest.approx(1.0)
    assert orientation[4, 4] == pytest.approx(np.pi / 2)


def test_sample_bilinear_exact_on_lattice():
    image = np.random.default_rng(1).random((6, 6))
    ys = np.array([0.0, 2.0, 5.0])
    xs = np.array([1.0, 3.0, 4.0])
    assert sample_bilinear(image, ys, xs) == pytest.approx(
        image[[0, 2, 5], [1, 3, 4]])


def test_sample_bilinear_interpolates_midpoint():
    image = np.array([[0.0, 1.0], [0.0, 1.0]])
    value = sample_bilinear(image, np.array([0.5]), np.array([0.5]))
    assert value[0] == pytest.approx(0.5)


def test_sample_bilinear_clamps_out_of_bounds():
    image = np.array([[1.0, 2.0], [3.0, 4.0]])
    value = sample_bilinear(image, np.array([-5.0]), np.array([10.0]))
    assert value[0] == pytest.approx(2.0)


def test_kernel_normalized_and_symmetric():
    kernel = gaussian_kernel_1d(1.5)
    assert kernel.sum() == pytest.approx(1.0)
    assert np.allclose(kernel, kernel[::-1])


def test_kernel_rejects_bad_sigma():
    with pytest.raises(ValueError):
        gaussian_kernel_1d(0.0)


def test_blur_preserves_mean_roughly():
    rng = np.random.default_rng(0)
    image = rng.random((32, 32))
    blurred = gaussian_blur(image, 2.0)
    assert blurred.mean() == pytest.approx(image.mean(), abs=0.01)
    # Blur reduces variance.
    assert blurred.var() < image.var()


def test_blur_constant_is_identity():
    image = np.full((16, 16), 0.3)
    assert gaussian_blur(image, 3.0) == pytest.approx(image)


def test_downsample_halves():
    image = np.arange(64, dtype=float).reshape(8, 8)
    small = downsample(image)
    assert small.shape == (4, 4)
    assert small[0, 0] == image[0, 0]
    assert small[1, 1] == image[2, 2]


def test_scale_space_shapes():
    image = np.random.default_rng(0).random((64, 64))
    space = build_scale_space(image, intervals=3)
    assert len(space.gaussians) >= 2
    for octave in space.gaussians:
        assert len(octave) == 6  # s + 3
    for octave in space.dogs:
        assert len(octave) == 5  # s + 2
    # Octave sizes halve.
    assert space.gaussians[1][0].shape == (32, 32)


def test_scale_space_dog_is_difference():
    image = np.random.default_rng(0).random((32, 32))
    space = build_scale_space(image, intervals=2)
    gaussians = space.gaussians[0]
    dogs = space.dogs[0]
    assert dogs[0] == pytest.approx(gaussians[1] - gaussians[0])


def test_scale_space_too_small_raises():
    with pytest.raises(ValueError):
        build_scale_space(np.zeros((4, 4)), min_size=16)


def test_scale_space_validation():
    with pytest.raises(ValueError):
        build_scale_space(np.zeros((64, 64)), intervals=0)
