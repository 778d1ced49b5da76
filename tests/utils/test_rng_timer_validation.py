"""Tests for RNG handling and argument validation."""

import numpy as np
import pytest

from repro.utils.rng import RandomState, derive_seed, fixed_rng, spawn_rng
from repro.utils.validation import (
    check_client_count,
    check_fraction,
    check_non_negative,
    check_positive,
    check_probability_vector,
    check_same_length,
)


class TestRandomState:
    def test_int_seed_is_deterministic(self):
        a = RandomState(42).random(5)
        b = RandomState(42).random(5)
        assert np.allclose(a, b)

    def test_generator_passthrough(self):
        generator = np.random.default_rng(1)
        assert RandomState(generator) is generator

    def test_none_gives_generator(self):
        assert isinstance(RandomState(None), np.random.Generator)

    def test_spawn_rng_children_differ(self):
        parent = RandomState(0)
        children = spawn_rng(parent, 3)
        draws = [c.random() for c in children]
        assert len(set(draws)) == 3

    def test_spawn_rng_negative_count_raises(self):
        with pytest.raises(ValueError):
            spawn_rng(RandomState(0), -1)

    def test_spawn_rng_zero(self):
        assert spawn_rng(RandomState(0), 0) == []

    def test_derive_seed_reproducible(self):
        assert derive_seed(RandomState(7)) == derive_seed(RandomState(7))

    def test_fixed_rng_defaults_to_zero(self):
        assert fixed_rng(None).random() == fixed_rng(0).random()


class TestValidation:
    def test_check_positive(self):
        assert check_positive(3, "x") == 3
        with pytest.raises(ValueError):
            check_positive(0, "x")

    def test_check_non_negative(self):
        assert check_non_negative(0, "x") == 0
        with pytest.raises(ValueError):
            check_non_negative(-1, "x")

    def test_check_fraction_inclusive(self):
        assert check_fraction(0.0, "x") == 0.0
        assert check_fraction(1.0, "x") == 1.0
        with pytest.raises(ValueError):
            check_fraction(1.5, "x")

    def test_check_fraction_exclusive(self):
        with pytest.raises(ValueError):
            check_fraction(0.0, "x", inclusive=False)
        assert check_fraction(0.5, "x", inclusive=False) == 0.5

    def test_check_client_count(self):
        assert check_client_count(3) == 3
        with pytest.raises(ValueError):
            check_client_count(0)
        with pytest.raises(TypeError):
            check_client_count(2.5)

    def test_check_client_count_accepts_numpy_int(self):
        assert check_client_count(np.int64(4)) == 4

    def test_check_probability_vector(self):
        arr = check_probability_vector([0.25, 0.75], "p")
        assert arr.sum() == pytest.approx(1.0)
        with pytest.raises(ValueError):
            check_probability_vector([0.5, 0.6], "p")
        with pytest.raises(ValueError):
            check_probability_vector([-0.1, 1.1], "p")
        with pytest.raises(ValueError):
            check_probability_vector([[0.5, 0.5]], "p")

    def test_check_same_length(self):
        check_same_length([1, 2], [3, 4], "a", "b")
        with pytest.raises(ValueError):
            check_same_length([1], [2, 3], "a", "b")
