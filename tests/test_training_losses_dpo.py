"""Tests for Eq. 2-5 losses and the DPO trainer."""

import numpy as np
import pytest

from repro.facs.descriptions import FacialDescription
from repro.model.foundation import STRESSED, FoundationModel
from repro.model.generation import bernoulli_set_logprob
from repro.rng import make_rng
from repro.training.dpo import (
    DescriptionPreference,
    DPOTrainer,
    RationalePreference,
)
from repro.training.losses import assess_nll, description_nll, dpo_loss


class TestDPOLoss:
    def test_zero_margin_loss(self):
        loss, gw, gl = dpo_loss(0.0, 0.0, 0.0, 0.0, beta=0.1)
        assert loss == pytest.approx(np.log(2))
        assert gw == pytest.approx(-0.05)
        assert gl == pytest.approx(0.05)

    def test_preferring_winner_lowers_loss(self):
        worse, __, __ = dpo_loss(-1.0, 0.0, 0.0, 0.0, beta=0.5)
        better, __, __ = dpo_loss(1.0, 0.0, 0.0, 0.0, beta=0.5)
        assert better < worse

    def test_reference_anchors(self):
        """Matching the reference exactly gives the zero-margin loss."""
        loss, __, __ = dpo_loss(-3.0, -5.0, -3.0, -5.0, beta=0.1)
        assert loss == pytest.approx(np.log(2))

    def test_gradients_antisymmetric(self):
        __, gw, gl = dpo_loss(0.3, -0.2, 0.1, 0.0, beta=0.2)
        assert gw == pytest.approx(-gl)
        assert gw < 0  # pushing the winner up reduces the loss

    def test_bad_beta_raises(self):
        with pytest.raises(ValueError):
            dpo_loss(0, 0, 0, 0, beta=0.0)

    def test_grad_matches_finite_difference(self):
        beta = 0.1
        ref_w, ref_l = -2.0, -3.0
        pw, pl = -1.5, -2.5
        loss, gw, gl = dpo_loss(pw, pl, ref_w, ref_l, beta)
        eps = 1e-6
        up, __, __ = dpo_loss(pw + eps, pl, ref_w, ref_l, beta)
        down, __, __ = dpo_loss(pw - eps, pl, ref_w, ref_l, beta)
        assert gw == pytest.approx((up - down) / (2 * eps), abs=1e-6)


class TestNLLs:
    def test_description_nll_perfect_prediction(self):
        logits = np.array([[50.0, -50.0]])
        targets = np.array([[1.0, 0.0]])
        loss, __ = description_nll(logits, targets)
        assert loss == pytest.approx(0.0, abs=1e-6)

    def test_assess_nll_gradient_direction(self):
        logits = np.array([0.0])
        labels = np.array([1.0])
        __, grad = assess_nll(logits, labels)
        assert grad[0] < 0  # must push the logit up


@pytest.fixture()
def dpo_setup(micro_uvsd):
    model = FoundationModel(make_rng(55, "dpo-test"))
    video = micro_uvsd[0].video
    return model, video


class TestDPOTrainer:
    def test_description_preference_learned(self, dpo_setup):
        model, video = dpo_setup
        winner = FacialDescription((1, 4))
        loser = FacialDescription((6, 12))
        trainer = DPOTrainer(model, beta=0.5, lr=5e-2)

        def margin() -> float:
            logits = model.au_logits(video)
            return (bernoulli_set_logprob(logits, winner.to_vector())
                    - bernoulli_set_logprob(logits, loser.to_vector()))

        before = margin()
        curve = trainer.train_descriptions(
            [DescriptionPreference(video, winner, loser)], epochs=20
        )
        after = margin()
        assert after > before
        assert curve[-1] < curve[0]

    def test_rationale_preference_learned(self, dpo_setup):
        model, video = dpo_setup
        description = FacialDescription((1, 4, 6))
        winner, loser = (4, 1, 6), (6, 1, 4)
        trainer = DPOTrainer(model, beta=0.5, lr=5e-2)
        before = (
            model.rationale_logprob(video, description, winner, STRESSED)
            - model.rationale_logprob(video, description, loser, STRESSED)
        )
        curve = trainer.train_rationales(
            [RationalePreference(video, description, STRESSED,
                                 winner, loser)],
            epochs=20,
        )
        after = (
            model.rationale_logprob(video, description, winner, STRESSED)
            - model.rationale_logprob(video, description, loser, STRESSED)
        )
        assert after > before
        assert curve[-1] < curve[0]

    def test_reference_model_unchanged(self, dpo_setup):
        model, video = dpo_setup
        trainer = DPOTrainer(model, beta=0.5, lr=5e-2)
        ref_state = trainer.reference.state_dict()
        trainer.train_descriptions(
            [DescriptionPreference(video, FacialDescription((1,)),
                                   FacialDescription((2,)))],
            epochs=5,
        )
        for name, value in trainer.reference.state_dict().items():
            assert np.array_equal(value, ref_state[name])

    def test_reference_scored_once_per_pair(self, dpo_setup, micro_uvsd):
        """The frozen reference scores each pair once, not per epoch."""
        model, video = dpo_setup
        trainer = DPOTrainer(model, beta=0.5, lr=5e-2)
        calls = []
        reference = trainer.reference
        for name in ("au_logits", "rationale_logprob"):
            method = getattr(reference, name)

            def counted(*args, _name=name, _method=method, **kwargs):
                calls.append(_name)
                return _method(*args, **kwargs)

            setattr(reference, name, counted)
        videos = [video, micro_uvsd[1].video]
        trainer.train_descriptions(
            [DescriptionPreference(v, FacialDescription((1, 4)),
                                   FacialDescription((6,)))
             for v in videos],
            epochs=4,
        )
        trainer.train_rationales(
            [RationalePreference(v, FacialDescription((1, 4, 6)), STRESSED,
                                 (4, 1, 6), (6, 1, 4))
             for v in videos],
            epochs=4,
        )
        assert calls.count("au_logits") == 2
        assert calls.count("rationale_logprob") == 4

    def test_empty_preferences_noop(self, dpo_setup):
        model, __ = dpo_setup
        trainer = DPOTrainer(model)
        assert trainer.train_descriptions([]) == []
        assert trainer.train_rationales([]) == []

    def test_identical_pair_skipped(self, dpo_setup):
        model, video = dpo_setup
        description = FacialDescription((1, 4))
        trainer = DPOTrainer(model, lr=1e-2)
        curve = trainer.train_rationales(
            [RationalePreference(video, description, STRESSED,
                                 (1, 4), (1, 4))],
            epochs=3,
        )
        assert all(loss == 0.0 for loss in curve)

    def test_bad_beta_raises(self, dpo_setup):
        model, __ = dpo_setup
        from repro.errors import TrainingError

        with pytest.raises(TrainingError):
            DPOTrainer(model, beta=0.0)
