"""Tests for the experiment registry and shared infrastructure.

Full experiment runs live in ``benchmarks/``; here we verify the
registry wiring, the scale presets, caching, and one end-to-end
micro-scale experiment.
"""

from types import SimpleNamespace

import pytest

from repro.errors import ExperimentError
from repro.experiments import ExperimentOptions, experiment_ids, run_experiment
from repro.experiments import table4_chain_faithfulness as table4
from repro.experiments.common import (
    SCALES,
    Scale,
    clear_caches,
    eval_subset,
    load_dataset,
    load_instruction_pairs,
    trained_model,
)
from repro.experiments.result import ExperimentResult


@pytest.fixture()
def tiny_options():
    scale = Scale(
        name="tiny", uvsd_samples=120, uvsd_subjects=12,
        rsl_samples=100, rsl_subjects=10, disfa_samples=80,
        num_folds=3, refine_sample_limit=20, eval_samples=8,
        explainer_budget=60, sobol_designs=2,
    )
    clear_caches()
    yield ExperimentOptions(scale=scale, seed=1)
    clear_caches()


class TestRegistry:
    def test_all_paper_artifacts_registered(self):
        expected = {
            "table1", "table2", "table3", "table4", "table5", "table6",
            "table7", "table8", "fig6", "fig7", "fig8",
        }
        assert set(experiment_ids()) == expected

    def test_unknown_id_raises(self):
        with pytest.raises(ExperimentError):
            run_experiment("table99")

    def test_scales_defined(self):
        assert set(SCALES) == {"quick", "standard", "full"}
        full = SCALES["full"]
        assert full.uvsd_samples == 2092
        assert full.rsl_samples == 706
        assert full.num_folds == 10
        assert full.explainer_budget == 1000

    def test_options_at_unknown_scale_raises(self):
        with pytest.raises(ExperimentError):
            ExperimentOptions.at("gigantic")


class TestCommon:
    def test_dataset_cached(self, tiny_options):
        assert load_dataset("uvsd", tiny_options) is \
            load_dataset("uvsd", tiny_options)

    def test_unknown_dataset_raises(self, tiny_options):
        with pytest.raises(ExperimentError):
            load_dataset("wesad", tiny_options)

    def test_instruction_pairs_scaled(self, tiny_options):
        pairs = load_instruction_pairs(tiny_options)
        assert len(pairs) == 80

    def test_trained_model_cached(self, tiny_options):
        a = trained_model("uvsd", tiny_options)
        b = trained_model("uvsd", tiny_options)
        assert a[0] is b[0]

    def test_eval_subset_balanced(self, tiny_options):
        dataset = load_dataset("uvsd", tiny_options)
        subset = eval_subset(dataset, 10)
        labels = [s.label for s in subset]
        assert len(subset) == 10
        assert 0 < sum(labels) < 10

    def test_eval_subset_full_dataset(self, tiny_options):
        dataset = load_dataset("uvsd", tiny_options)
        subset = eval_subset(dataset, 10_000)
        assert len(subset) == len(dataset)


class TestMicroExperiment:
    def test_fig6_end_to_end(self, tiny_options):
        result = run_experiment("fig6", tiny_options)
        assert isinstance(result, ExperimentResult)
        assert "Ours" in result.text
        assert result.data.seconds_per_sample["Ours"] < \
            result.data.seconds_per_sample["LIME"]

    def test_fig7_end_to_end(self, tiny_options):
        result = run_experiment("fig7", tiny_options)
        assert "similarity" in result.text
        assert "vision_gap" in result.data


class TestFaithfulnessHeaders:
    def test_tables_iv_and_vi_head_their_blocks_by_numeral(
            self, monkeypatch):
        """Tables IV and VI share one runner; each block is headed by
        its own table's numeral ("Table IV (UVSD)"), like every other
        table.  Training and the deletion metric are stubbed out: only
        the text around them is under test."""
        drops = SimpleNamespace(drops={1: 0.0, 2: 0.0, 3: 0.0})
        monkeypatch.setattr(table4, "trained_model",
                            lambda *args: (None, None, []))
        monkeypatch.setattr(table4, "StressChainPipeline",
                            lambda *args, **kwargs: None)
        monkeypatch.setattr(table4, "rationale_ranker", lambda *args: None)
        monkeypatch.setattr(table4, "deletion_metric",
                            lambda *args, **kwargs: drops)
        for experiment_id, numeral in (("table4", "IV"), ("table6", "VI")):
            text = run_experiment(experiment_id, ExperimentOptions()).text
            headers = [block.splitlines()[0].partition(":")[0]
                       for block in text.split("\n\n")]
            assert headers == [f"Table {numeral} (UVSD)",
                               f"Table {numeral} (RSL)"]
