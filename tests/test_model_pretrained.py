"""Tests for the off-the-shelf vendor proxies."""

import numpy as np
import pytest

from repro.cot.chain import StressChainPipeline
from repro.errors import ModelError
from repro.model.generation import GREEDY
from repro.model.pretrained import available_vendors, load_offtheshelf
from repro.nn.tensorops import sigmoid


@pytest.fixture(scope="module")
def gpt4o():
    return load_offtheshelf("gpt-4o")


class TestVendors:
    def test_three_vendors(self):
        assert set(available_vendors()) == {
            "gpt-4o", "claude-3.5", "gemini-1.5"
        }

    def test_unknown_vendor_raises(self):
        with pytest.raises(ModelError):
            load_offtheshelf("llama-9")

    def test_cached_instance(self, gpt4o):
        assert load_offtheshelf("gpt-4o") is gpt4o


class TestFrozenBehaviour:
    def test_frozen_flag(self, gpt4o):
        assert gpt4o.frozen

    def test_training_blocked(self, gpt4o):
        with pytest.raises(ModelError):
            gpt4o.backward_description(np.zeros(12))

    def test_predictions_deterministic(self, gpt4o, sample_video):
        a = gpt4o.assess(sample_video, None)
        b = gpt4o.assess(sample_video, None)
        assert a == b

    def test_query_noise_differs_per_video(self, gpt4o, micro_uvsd):
        """API-style noise is per-query but not constant."""
        samples = list(micro_uvsd)[:6]
        clean_logits, noisy_logits = [], []
        for sample in samples:
            noisy = gpt4o.assess_logit(sample.video, None)
            noise_free = super(type(gpt4o), gpt4o).assess_logit(
                sample.video, None
            )
            clean_logits.append(noise_free)
            noisy_logits.append(noisy)
        deltas = np.array(noisy_logits) - np.array(clean_logits)
        assert deltas.std() > 0.1

    def test_better_than_chance(self, gpt4o, micro_uvsd):
        """Generic pre-training must transfer above chance zero-shot."""
        samples = list(micro_uvsd)
        predictions = np.array([
            gpt4o.assess(s.video, None)[0] for s in samples
        ])
        labels = np.array([s.label for s in samples])
        majority = max((labels == 0).mean(), (labels == 1).mean())
        assert (predictions == labels).mean() > 0.55


class TestChainOverProxy:
    """The chain runs the proxy's own stage methods, so its per-query
    noise reaches serial ``predict`` and the batch executor alike."""

    @pytest.mark.parametrize("use_chain", [True, False])
    def test_predict_many_matches_predict(self, gpt4o, micro_uvsd,
                                          use_chain):
        pipeline = StressChainPipeline(gpt4o, use_chain=use_chain)
        videos = [sample.video for sample in list(micro_uvsd)[:6]]
        for served, video in zip(pipeline.predict_many(videos), videos):
            serial = pipeline.predict(video)
            assert served.prob_stressed == serial.prob_stressed
            assert served.rationale.au_ids == serial.rationale.au_ids
            assert served.session.transcript() == serial.session.transcript()

    def test_predict_carries_the_vendor_noise(self, gpt4o, sample_video):
        result = StressChainPipeline(gpt4o).predict(sample_video)
        description = gpt4o.describe(sample_video, GREEDY)
        logit = gpt4o.assess_logit(sample_video, description)
        assert result.description == description
        assert result.prob_stressed == float(sigmoid(np.array(logit))[()])
