"""Fault injection: plan determinism, spec parsing, armed sites."""

import numpy as np
import pytest

from repro.errors import ConfigError, FaultInjectedError
from repro.model.foundation import FoundationModel
from repro.model.persistence import save_model
from repro.reliability.faults import (
    FAULT_SITES,
    FaultPlan,
    FaultSpec,
    active_plan,
    configure_from_env,
    fault_point,
    injected,
    install_plan,
    uninstall_plan,
)
from repro.rng import make_rng


@pytest.fixture(autouse=True)
def _no_leaked_plan():
    yield
    uninstall_plan()


class TestFaultSpec:
    def test_unknown_site_rejected(self):
        with pytest.raises(ConfigError):
            FaultSpec(site="model.backward", rate=0.5)

    def test_rate_bounds(self):
        with pytest.raises(ConfigError):
            FaultSpec(site="serve.execute", rate=1.5)
        with pytest.raises(ConfigError):
            FaultSpec(site="serve.execute", rate=-0.1)

    def test_bad_mode(self):
        with pytest.raises(ConfigError):
            FaultSpec(site="serve.execute", rate=0.5, mode="crash")

    def test_duplicate_sites_rejected(self):
        with pytest.raises(ConfigError):
            FaultPlan([FaultSpec(site="model.forward", rate=0.1),
                       FaultSpec(site="model.forward", rate=0.2)])


class TestSpecParsing:
    def test_full_grammar(self):
        plan = FaultPlan.from_spec(
            "seed=9;serve.execute:rate=0.25;"
            "model.forward:rate=1.0,mode=delay,delay_ms=0.5,max=3")
        assert plan.seed == 9
        assert set(plan.sites) == {"serve.execute", "model.forward"}

    def test_missing_rate_rejected(self):
        with pytest.raises(ConfigError):
            FaultPlan.from_spec("serve.execute:mode=error")

    def test_unknown_option_rejected(self):
        with pytest.raises(ConfigError):
            FaultPlan.from_spec("serve.execute:rate=0.5,when=later")

    def test_empty_spec_is_empty_plan(self):
        plan = FaultPlan.from_spec("")
        assert plan.sites == ()

    def test_env_configuration(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "serve.execute:rate=0.5;seed=3")
        plan = configure_from_env()
        assert plan is not None and plan.seed == 3
        assert active_plan() is plan

    def test_env_unset_is_noop(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        uninstall_plan()
        assert configure_from_env() is None
        assert active_plan() is None


class TestDeterminism:
    @staticmethod
    def _schedule(seed: int, hits: int) -> list[bool]:
        plan = FaultPlan([FaultSpec(site="serve.execute", rate=0.3)],
                         seed=seed)
        outcomes = []
        for _ in range(hits):
            try:
                plan.check("serve.execute")
                outcomes.append(False)
            except FaultInjectedError:
                outcomes.append(True)
        return outcomes

    def test_same_seed_same_schedule(self):
        assert self._schedule(5, 200) == self._schedule(5, 200)

    def test_different_seed_different_schedule(self):
        assert self._schedule(5, 200) != self._schedule(6, 200)

    def test_rate_is_respected(self):
        faults = sum(self._schedule(0, 2000))
        assert 450 <= faults <= 750  # ~0.3 * 2000, generous band

    def test_max_faults_cap(self):
        plan = FaultPlan(
            [FaultSpec(site="serve.execute", rate=1.0, max_faults=2)])
        fired = 0
        for _ in range(10):
            try:
                plan.check("serve.execute")
            except FaultInjectedError:
                fired += 1
        assert fired == 2
        counts = plan.counts()["serve.execute"]
        assert counts.hits == 10 and counts.faults == 2

    def test_sites_draw_independent_streams(self):
        # The model.forward stream must not perturb serve.execute's.
        lone = FaultPlan([FaultSpec(site="serve.execute", rate=0.3)], seed=1)
        paired = FaultPlan([FaultSpec(site="serve.execute", rate=0.3),
                            FaultSpec(site="model.forward", rate=0.3)],
                           seed=1)
        lone_faults, paired_faults = 0, 0
        for _ in range(100):
            try:
                lone.check("serve.execute")
            except FaultInjectedError:
                lone_faults += 1
            try:
                paired.check("model.forward")
            except FaultInjectedError:
                pass
            try:
                paired.check("serve.execute")
            except FaultInjectedError:
                paired_faults += 1
        assert lone_faults == paired_faults


class TestArming:
    def test_unarmed_fault_point_is_noop(self):
        uninstall_plan()
        for site in FAULT_SITES:
            fault_point(site)  # must not raise

    def test_injected_context_restores_previous(self):
        outer = FaultPlan([], seed=1)
        install_plan(outer)
        with injected(FaultPlan([], seed=2)) as inner:
            assert active_plan() is inner
        assert active_plan() is outer

    def test_delay_mode_does_not_raise(self, sample_video):
        model = FoundationModel(make_rng(0, "fault-site"))
        plan = FaultPlan([FaultSpec(site="model.forward", rate=1.0,
                                    mode="delay", delay_ms=0.1)])
        with injected(plan):
            assert model.embed_video(sample_video).shape[0] == 1
        assert plan.counts()["model.forward"].faults > 0


class TestCompiledSites:
    def test_model_forward_site(self, sample_video):
        model = FoundationModel(make_rng(0, "fault-site"))
        with injected(FaultPlan(
                [FaultSpec(site="model.forward", rate=1.0)])):
            with pytest.raises(FaultInjectedError):
                model.embed_video(sample_video)
        # Disarmed: same call succeeds.
        assert model.embed_video(sample_video).shape[0] == 1

    def test_persistence_site(self, tmp_path):
        model = FoundationModel(make_rng(0, "fault-site"))
        with injected(FaultPlan(
                [FaultSpec(site="persistence.io", rate=1.0)])):
            with pytest.raises(FaultInjectedError):
                save_model(model, tmp_path / "m.npz")

    def test_cv_fold_site(self, micro_uvsd):
        from repro.evaluation.cross_validation import cross_validate

        def fit(train, fold_index):
            return lambda sample: 0

        with injected(FaultPlan([FaultSpec(site="cv.fold", rate=1.0)])):
            with pytest.raises(FaultInjectedError):
                cross_validate(fit, micro_uvsd, num_folds=2, seed=0)

    def test_faults_off_results_identical(self, trained, sample_video):
        """An armed zero-rate plan must not perturb a single output."""
        from repro.cot.chain import StressChainPipeline

        model, __, __, __ = trained
        pipeline = StressChainPipeline(model)
        baseline = pipeline.predict(sample_video)
        with injected(FaultPlan(
                [FaultSpec(site=site, rate=0.0) for site in FAULT_SITES])):
            armed = pipeline.predict(sample_video)
        assert armed.label == baseline.label
        assert armed.prob_stressed == baseline.prob_stressed
        assert armed.rationale.au_ids == baseline.rationale.au_ids
        assert np.array_equal(
            armed.description.to_vector(), baseline.description.to_vector())
