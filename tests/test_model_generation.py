"""Tests for structured generation (Bernoulli sets, Plackett-Luce)."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.errors import GenerationError
from repro.model.generation import (
    GenerationConfig,
    bernoulli_set_logprob,
    plackett_luce_logprob,
    plackett_luce_logprob_grad,
    sample_bernoulli_set,
    sample_plackett_luce,
)


class TestGenerationConfig:
    def test_negative_temperature_raises(self):
        with pytest.raises(GenerationError):
            GenerationConfig(temperature=-1.0)


class TestBernoulliSet:
    def test_greedy_thresholds(self):
        logits = np.array([2.0, -2.0, 0.5])
        out = sample_bernoulli_set(logits, GenerationConfig(temperature=0.0))
        assert np.array_equal(out, [1.0, 0.0, 1.0])

    def test_sampling_deterministic_per_seed(self):
        logits = np.zeros(12)
        a = sample_bernoulli_set(logits, GenerationConfig(seed=1))
        b = sample_bernoulli_set(logits, GenerationConfig(seed=1))
        assert np.array_equal(a, b)

    def test_temperature_sharpens(self):
        logits = np.full(200, 1.0)
        cold = sample_bernoulli_set(logits,
                                    GenerationConfig(temperature=0.1, seed=0))
        hot = sample_bernoulli_set(logits,
                                   GenerationConfig(temperature=5.0, seed=0))
        assert cold.mean() > hot.mean()

    def test_logprob_matches_manual(self):
        logits = np.array([0.0, 0.0])
        # Each outcome has probability 0.25 at logit 0.
        assert bernoulli_set_logprob(logits, np.array([1.0, 0.0])) == \
            pytest.approx(math.log(0.25))

    def test_logprob_shape_mismatch(self):
        with pytest.raises(GenerationError):
            bernoulli_set_logprob(np.zeros(3), np.zeros(4))

    @given(st.integers(min_value=1, max_value=8))
    def test_outcomes_logprobs_sum_to_one(self, n):
        """Total probability over all 2^n outcomes is 1."""
        rng = np.random.default_rng(n)
        logits = rng.normal(0, 1.5, n)
        total = 0.0
        for bits in range(2**n):
            outcome = np.array([(bits >> i) & 1 for i in range(n)],
                               dtype=float)
            total += math.exp(bernoulli_set_logprob(logits, outcome))
        assert total == pytest.approx(1.0, abs=1e-9)


class TestPlackettLuce:
    def test_greedy_sorts(self):
        scores = np.array([0.1, 3.0, -1.0])
        order = sample_plackett_luce(scores, GenerationConfig(temperature=0.0))
        assert order == (1, 0, 2)

    def test_top_k(self):
        scores = np.array([0.1, 3.0, -1.0])
        order = sample_plackett_luce(scores,
                                     GenerationConfig(temperature=0.0),
                                     top_k=2)
        assert order == (1, 0)

    def test_empty_scores(self):
        assert sample_plackett_luce(np.array([]), GenerationConfig()) == ()

    def test_sampling_is_permutation(self):
        scores = np.zeros(5)
        order = sample_plackett_luce(scores, GenerationConfig(seed=3))
        assert sorted(order) == [0, 1, 2, 3, 4]

    def test_full_orderings_sum_to_one(self):
        from itertools import permutations

        scores = np.random.default_rng(1).normal(0, 1, 4)
        total = sum(
            math.exp(plackett_luce_logprob(scores, perm))
            for perm in permutations(range(4))
        )
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_prefix_marginalises(self):
        """P(prefix) equals the sum of P(full ordering) over
        completions."""
        from itertools import permutations

        scores = np.random.default_rng(2).normal(0, 1, 4)
        prefix = (2, 0)
        completions = [
            prefix + rest
            for rest in permutations([1, 3])
        ]
        assert math.exp(plackett_luce_logprob(scores, prefix)) == \
            pytest.approx(sum(
                math.exp(plackett_luce_logprob(scores, full))
                for full in completions
            ), abs=1e-9)

    def test_repeated_index_raises(self):
        with pytest.raises(GenerationError):
            plackett_luce_logprob(np.zeros(3), (0, 0))

    def test_grad_matches_finite_difference(self):
        scores = np.random.default_rng(4).normal(0, 1, 5)
        ordering = (3, 1, 0)
        grad = plackett_luce_logprob_grad(scores, ordering)
        eps = 1e-6
        for i in range(5):
            bumped = scores.copy()
            bumped[i] += eps
            up = plackett_luce_logprob(bumped, ordering)
            bumped[i] -= 2 * eps
            down = plackett_luce_logprob(bumped, ordering)
            assert grad[i] == pytest.approx((up - down) / (2 * eps),
                                            abs=1e-5)
