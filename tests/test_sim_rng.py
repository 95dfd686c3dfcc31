"""Unit tests for the named RNG registry."""

import numpy as np

from repro.sim import RngRegistry


def test_same_seed_same_name_reproduces():
    a = RngRegistry(seed=7).stream("link.jitter")
    b = RngRegistry(seed=7).stream("link.jitter")
    assert np.array_equal(a.random(16), b.random(16))


def test_different_names_are_independent():
    reg = RngRegistry(seed=7)
    a = reg.stream("alpha").random(16)
    b = reg.stream("beta").random(16)
    assert not np.array_equal(a, b)


def test_different_seeds_differ():
    a = RngRegistry(seed=1).stream("x").random(16)
    b = RngRegistry(seed=2).stream("x").random(16)
    assert not np.array_equal(a, b)


def test_stream_is_cached_instance():
    reg = RngRegistry(seed=3)
    assert reg.stream("s") is reg.stream("s")


def test_creation_order_does_not_matter():
    forward = RngRegistry(seed=11)
    first = forward.stream("one").random(8)
    __ = forward.stream("two").random(8)

    backward = RngRegistry(seed=11)
    __ = backward.stream("two").random(8)
    again = backward.stream("one").random(8)
    assert np.array_equal(first, again)

