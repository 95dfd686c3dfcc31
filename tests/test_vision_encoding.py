"""Unit tests for PCA, the GMM and Fisher-vector encoding."""

import numpy as np
import pytest

from repro.vision.fisher import FisherEncoder, GaussianMixture
from repro.vision.pca import Pca


# ----------------------------------------------------------------------
# PCA
# ----------------------------------------------------------------------
def test_pca_recovers_dominant_direction():
    rng = np.random.default_rng(0)
    direction = np.array([3.0, 4.0]) / 5.0
    data = rng.normal(0, 5, (500, 1))[:, 0:1] * direction[None, :]
    data += rng.normal(0, 0.1, data.shape)
    pca = Pca(1).fit(data)
    component = pca.components_[0]
    alignment = abs(component @ direction)
    assert alignment == pytest.approx(1.0, abs=0.01)


def test_pca_transform_decorrelates():
    rng = np.random.default_rng(1)
    data = rng.normal(0, 1, (200, 4))
    data[:, 1] = data[:, 0] * 2.0 + rng.normal(0, 0.01, 200)
    projected = Pca(2).fit(data).transform(data)
    covariance = np.cov(projected.T)
    assert abs(covariance[0, 1]) < 0.05


def test_pca_explained_variance_sorted():
    rng = np.random.default_rng(2)
    data = rng.normal(0, 1, (100, 6)) * np.array([5, 3, 2, 1, 0.5, 0.1])
    pca = Pca(4).fit(data)
    ev = pca.explained_variance_
    assert all(ev[i] >= ev[i + 1] for i in range(len(ev) - 1))


def test_pca_transform_single_vector():
    rng = np.random.default_rng(4)
    data = rng.normal(0, 1, (50, 5))
    pca = Pca(3).fit(data)
    single = pca.transform(data[0])
    assert single.shape == (1, 3)


def test_pca_validation():
    with pytest.raises(ValueError):
        Pca(0)
    with pytest.raises(ValueError):
        Pca(2).fit(np.zeros((1, 4)))
    with pytest.raises(ValueError):
        Pca(10).fit(np.zeros((5, 4)))
    with pytest.raises(RuntimeError):
        Pca(2).transform(np.zeros((3, 4)))


# ----------------------------------------------------------------------
# GMM
# ----------------------------------------------------------------------
def two_cluster_data(separation=8.0, n=200, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.normal(0, 1, (n, 2))
    b = rng.normal(separation, 1, (n, 2))
    return np.vstack([a, b])


def test_gmm_finds_two_clusters():
    data = two_cluster_data()
    gmm = GaussianMixture(2, seed=1).fit(data)
    means = sorted(gmm.means_[:, 0])
    assert means[0] == pytest.approx(0.0, abs=0.5)
    assert means[1] == pytest.approx(8.0, abs=0.5)
    assert gmm.weights_ == pytest.approx([0.5, 0.5], abs=0.05)


def test_gmm_responsibilities_assign_correctly():
    data = two_cluster_data()
    gmm = GaussianMixture(2, seed=1).fit(data)
    gamma = gmm.responsibilities(np.array([[0.0, 0.0], [8.0, 8.0]]))
    assert gamma.shape == (2, 2)
    assert gamma[0].sum() == pytest.approx(1.0)
    # Each probe point is confidently assigned to a different component.
    assert gamma[0].max() > 0.99
    assert gamma[1].max() > 0.99
    assert np.argmax(gamma[0]) != np.argmax(gamma[1])


def test_gmm_variance_floor():
    data = np.zeros((50, 3))  # degenerate: zero variance everywhere
    gmm = GaussianMixture(2, seed=0, min_variance=1e-3).fit(data)
    assert (gmm.variances_ >= 1e-3).all()


def test_gmm_validation():
    with pytest.raises(ValueError):
        GaussianMixture(0)
    with pytest.raises(ValueError):
        GaussianMixture(10).fit(np.zeros((3, 2)))
    with pytest.raises(RuntimeError):
        GaussianMixture(2).responsibilities(np.zeros((3, 2)))


# ----------------------------------------------------------------------
# Fisher vectors
# ----------------------------------------------------------------------
def fitted_gmm(k=3, d=4, seed=0):
    rng = np.random.default_rng(seed)
    data = rng.normal(0, 1, (300, d)) + rng.integers(
        0, 3, (300, 1)) * 4.0
    return GaussianMixture(k, seed=seed).fit(data)


def test_fisher_dimension():
    gmm = fitted_gmm(k=3, d=4)
    encoder = FisherEncoder(gmm)
    assert encoder.dimension == 2 * 3 * 4


def test_fisher_unit_norm():
    gmm = fitted_gmm()
    encoder = FisherEncoder(gmm)
    rng = np.random.default_rng(1)
    vector = encoder.encode(rng.normal(0, 1, (50, 4)))
    assert np.linalg.norm(vector) == pytest.approx(1.0, abs=1e-6)


def test_fisher_empty_input_is_zero_vector():
    encoder = FisherEncoder(fitted_gmm())
    vector = encoder.encode(np.empty((0, 4)))
    assert vector.shape == (encoder.dimension,)
    assert np.all(vector == 0.0)


def test_fisher_similar_sets_encode_similarly():
    encoder = FisherEncoder(fitted_gmm())
    rng = np.random.default_rng(2)
    base = rng.normal(0, 1, (80, 4))
    perturbed = base + rng.normal(0, 0.01, base.shape)
    different = rng.normal(6, 1, (80, 4))
    v_base = encoder.encode(base)
    v_near = encoder.encode(perturbed)
    v_far = encoder.encode(different)
    assert v_base @ v_near > 0.99
    assert v_base @ v_near > v_base @ v_far


def test_fisher_single_descriptor():
    encoder = FisherEncoder(fitted_gmm())
    vector = encoder.encode(np.ones(4))
    assert vector.shape == (encoder.dimension,)


def test_fisher_requires_fitted_gmm():
    with pytest.raises(ValueError):
        FisherEncoder(GaussianMixture(2))
