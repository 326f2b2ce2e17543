"""Tests for the Algorithm-1 orchestration and variants."""

import numpy as np
import pytest

from repro.errors import TrainingError
from repro.training.self_refine import SelfRefineConfig
from repro.training.trainer import (
    VARIANTS,
    train_stress_model,
    variant_config,
)


class TestConfig:
    def test_defaults_follow_paper(self):
        config = SelfRefineConfig()
        assert config.beta == pytest.approx(0.1)
        assert config.num_trials == 5

    def test_invalid_values_raise(self):
        with pytest.raises(TrainingError):
            SelfRefineConfig(num_trials=0)
        with pytest.raises(TrainingError):
            SelfRefineConfig(max_reflection_rounds=0)

    @pytest.mark.parametrize("field", ["describe_epochs", "assess_epochs"])
    @pytest.mark.parametrize("epochs", [0, -1])
    def test_nonpositive_tuning_epochs_raise(self, field, epochs):
        with pytest.raises(TrainingError, match="epochs"):
            SelfRefineConfig(**{field: epochs})


class TestVariants:
    def test_all_paper_variants_registered(self):
        assert set(VARIANTS) == {
            "ours", "wo_chain", "wo_learn_des", "wo_refine", "wo_reflection"
        }

    def test_variant_switches(self):
        assert variant_config("wo_chain").use_chain is False
        assert variant_config("wo_learn_des").learn_describe is False
        assert variant_config("wo_refine").use_refinement is False
        assert variant_config("wo_reflection").use_reflection is False
        assert variant_config("ours") == SelfRefineConfig()

    def test_unknown_variant_raises(self):
        with pytest.raises(TrainingError):
            variant_config("wo_everything")


class TestFullTraining:
    def test_report_is_populated(self, trained):
        __, report, __, __ = trained
        assert report.describe_curve, "instruction tuning must run"
        assert report.assess_curve_bootstrap
        assert report.describe_curve[-1] < report.describe_curve[0]

    def test_refinement_produces_pairs(self, trained):
        __, report, __, __ = trained
        assert report.num_description_pairs > 0
        assert report.num_rationale_pairs > 0
        assert report.num_reflection_rounds >= report.num_description_pairs

    def test_trained_model_beats_chance(self, trained):
        model, __, __, test = trained
        from repro.cot.chain import StressChainPipeline

        pipeline = StressChainPipeline(model)
        predictions = np.array([
            pipeline.predict(s.video).label for s in test
        ])
        labels = test.labels
        assert (predictions == labels).mean() > 0.7

    def test_wo_chain_skips_describe(self, micro_split, instruction_pairs):
        train, __ = micro_split
        config = variant_config("wo_chain", SelfRefineConfig(
            describe_epochs=10, assess_epochs=20,
            refine_sample_limit=5, num_trials=2,
            num_rationale_candidates=2, seed=1,
        ))
        __, report = train_stress_model(train, instruction_pairs, config)
        assert report.describe_curve == []
        assert report.num_description_pairs == 0

    def test_wo_refine_skips_dpo(self, micro_split, instruction_pairs):
        train, __ = micro_split
        config = variant_config("wo_refine", SelfRefineConfig(
            describe_epochs=10, assess_epochs=20, seed=1,
        ))
        __, report = train_stress_model(train, instruction_pairs, config)
        assert report.num_description_pairs == 0
        assert report.num_rationale_pairs == 0

    def test_training_is_deterministic(self, micro_split, instruction_pairs):
        train, __ = micro_split
        config = SelfRefineConfig(
            describe_epochs=15, assess_epochs=20,
            refine_sample_limit=5, num_trials=2,
            num_rationale_candidates=2, seed=2,
        )
        model_a, __ = train_stress_model(train, instruction_pairs, config,
                                         seed=2)
        model_b, __ = train_stress_model(train, instruction_pairs, config,
                                         seed=2)
        for name, value in model_a.state_dict().items():
            assert np.allclose(value, model_b.state_dict()[name]), name


class TestSeedPrecedence:
    """train_stress_model must drive the model RNG and every training
    stage from ONE root seed (the historical bug seeded the model from
    the ``seed`` argument while training used ``config.seed``)."""

    CONFIG_KW = dict(
        describe_epochs=4, assess_epochs=6, refine_sample_limit=3,
        num_trials=2, num_rationale_candidates=2,
        dpo_desc_epochs=1, dpo_rationale_epochs=1,
    )

    def test_config_only_uses_config_seed(self, micro_split,
                                          instruction_pairs):
        train, __ = micro_split
        pairs = instruction_pairs[:20]
        config = SelfRefineConfig(seed=9, **self.CONFIG_KW)
        model_a, __ = train_stress_model(train, pairs, config)
        model_b, __ = train_stress_model(train, pairs, config, seed=9)
        for name, value in model_a.state_dict().items():
            assert np.array_equal(value, model_b.state_dict()[name]), name

    def test_explicit_seed_overrides_config_seed(self, micro_split,
                                                 instruction_pairs):
        train, __ = micro_split
        pairs = instruction_pairs[:20]
        conflicted = SelfRefineConfig(seed=1, **self.CONFIG_KW)
        aligned = SelfRefineConfig(seed=9, **self.CONFIG_KW)
        model_a, __ = train_stress_model(train, pairs, conflicted, seed=9)
        model_b, __ = train_stress_model(train, pairs, aligned)
        for name, value in model_a.state_dict().items():
            assert np.array_equal(value, model_b.state_dict()[name]), name

    def test_seed_only_call_pattern(self, micro_split, instruction_pairs):
        train, __ = micro_split
        pairs = instruction_pairs[:20]
        config = SelfRefineConfig(seed=4, **self.CONFIG_KW)
        model_a, __ = train_stress_model(train, pairs, config)
        model_b, __ = train_stress_model(train, pairs, config, seed=4)
        model_c, __ = train_stress_model(train, pairs,
                                         SelfRefineConfig(seed=0,
                                                          **self.CONFIG_KW),
                                         seed=4)
        state_a, state_b, state_c = (model_a.state_dict(),
                                     model_b.state_dict(),
                                     model_c.state_dict())
        for name in state_a:
            assert np.array_equal(state_a[name], state_b[name]), name
            assert np.array_equal(state_a[name], state_c[name]), name
