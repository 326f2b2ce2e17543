"""Tests for the individual Algorithm-1 stages."""

import dataclasses
import os
import threading
from collections import Counter

import numpy as np
import pytest

from repro.errors import TrainingError
from repro.evaluation.parallel import NUM_WORKERS_ENV
from repro.facs.descriptions import FacialDescription
from repro.model.foundation import FoundationModel
from repro.model.generation import GenerationConfig, bernoulli_set_logprob
from repro.nn.optim import Adam
from repro.nn.tensorops import sigmoid
from repro.rng import derive_seed, make_rng
from repro.training import self_refine
from repro.training.dpo import DPOTrainer
from repro.training.faithfulness import rationale_flip_count
from repro.training.helpfulness import ASSESS_TEMPERATURE, helpfulness_score
from repro.training.instruction_tuning import train_assess, train_describe
from repro.training.losses import description_nll
from repro.training.reflection import propose_description, propose_rationales
from repro.training.self_refine import SelfRefineConfig, SelfRefineTrainer
from repro.training.trainer import train_stress_model
from repro.training.verification import (
    VERIFY_TEMPERATURE,
    VerificationPool,
    verification_score,
)
from repro.video import segmentation
from repro.video.frame import Video


def _helpfulness_per_trial(model, video, description, true_label,
                           num_trials, seed):
    """The per-trial loop helpfulness scoring ran before it shared one
    logit across its K draws: one full tempered assessment per trial."""
    hits = 0
    for trial in range(num_trials):
        trial_seed = derive_seed(seed, f"helpfulness:{video.video_id}:{trial}")
        logit = model.assess_logit(video, description)
        rng = np.random.default_rng(trial_seed)
        tempered = float(sigmoid(np.array(logit / ASSESS_TEMPERATURE))[()])
        label = 1 if rng.random() < tempered else 0
        hits += int(label == true_label)
    return hits / num_trials


def _verification_per_trial(model, video, description, pool, num_trials,
                            seed, num_negatives=3):
    """The per-trial loop verification scoring ran before it read the
    pool's logits through a memo: every shown video re-embedded."""
    candidates_pool = [
        v for v in pool
        if v.subject_id != video.subject_id and v.video_id != video.video_id
    ]
    hits = 0
    for trial in range(num_trials):
        trial_seed = derive_seed(seed, f"verify:{video.video_id}:{trial}")
        rng = make_rng(trial_seed, "negatives")
        negatives = [
            candidates_pool[i]
            for i in rng.choice(len(candidates_pool), size=num_negatives,
                                replace=False)
        ]
        candidates = negatives + [video]
        order = rng.permutation(len(candidates))
        shuffled = [candidates[i] for i in order]
        target = int(np.where(order == len(candidates) - 1)[0][0])
        desc_vec = description.to_vector()
        scores = np.array([
            bernoulli_set_logprob(model.au_logits(v), desc_vec)
            for v in shuffled
        ])
        choice_rng = np.random.default_rng(trial_seed)
        gumbel = -np.log(-np.log(choice_rng.random(scores.shape)))
        choice = int(np.argmax(scores / VERIFY_TEMPERATURE + gumbel))
        hits += int(choice == target)
    return hits / num_trials


def _train_describe_serial(model, pairs, epochs, lr=1e-2,
                           feature_noise=0.15, patch_dropout=0.08, seed=0):
    """Stage-1 tuning as it ran before its augmentation draws moved to
    a helper thread: noise and dropout drawn inside the epoch loop."""
    features = model.features_matrix([pair.video for pair in pairs])
    targets = np.stack([pair.description.to_vector() for pair in pairs])
    optimizer = Adam(model.trunk.parameters() + model.au_head.parameters(),
                     lr=lr)
    noise_rng = make_rng(seed, "describe-feature-noise")
    num_patches = features.shape[1] // 2
    curve = []
    for _ in range(epochs):
        optimizer.zero_grad()
        inputs = features
        if feature_noise > 0:
            inputs = features + noise_rng.normal(0.0, feature_noise,
                                                 features.shape)
        if patch_dropout > 0:
            keep = noise_rng.random((inputs.shape[0], num_patches)) >= patch_dropout
            if inputs is features:
                inputs = features.copy()
            inputs[:, :num_patches] *= keep
            inputs[:, num_patches:] *= keep
        logits = model.au_logits_batch(inputs)
        loss, grad = description_nll(logits, targets)
        model.backward_description_batch(grad)
        optimizer.step()
        curve.append(loss)
    optimizer.zero_grad()
    return curve


def _train_assess_serial(model, videos, descriptions, labels, epochs,
                         lr=1e-2, weight_decay=0.01, feature_noise=0.2,
                         patch_dropout=0.14, seed=0):
    """Assessment tuning as it ran before its augmentation draws moved
    to a helper thread."""
    num_aus = model.au_head.bias.value.shape[0]
    features = model.features_matrix(videos)
    desc_vectors = np.stack([
        desc.to_vector() if desc is not None else np.zeros(num_aus)
        for desc in descriptions
    ])
    labels = np.asarray(labels, dtype=np.float64)
    optimizer = Adam(model.assess_head.parameters(), lr=lr,
                     weight_decay=weight_decay)
    noise_rng = make_rng(seed, "assess-feature-noise")
    num_patches = features.shape[1] // 2
    positive_rate = float(labels.mean())
    if 0.0 < positive_rate < 1.0:
        weights = np.where(labels > 0.5, 0.5 / positive_rate,
                           0.5 / (1.0 - positive_rate))
    else:
        weights = np.ones_like(labels)
    curve = []
    for _ in range(epochs):
        optimizer.zero_grad()
        inputs = features
        if feature_noise > 0:
            inputs = features + noise_rng.normal(0.0, feature_noise,
                                                 features.shape)
        if patch_dropout > 0:
            keep = noise_rng.random((inputs.shape[0], num_patches)) >= patch_dropout
            if inputs is features:
                inputs = features.copy()
            inputs[:, :num_patches] *= keep
            inputs[:, num_patches:] *= keep
        logits = model.assess_logits_batch(inputs, desc_vectors)
        loss, grad = description_nll(logits[:, np.newaxis],
                                     labels[:, np.newaxis])
        model.backward_assess_batch(grad[:, 0] * weights)
        optimizer.step()
        curve.append(loss)
    return curve


#: (feature_noise, patch_dropout): both, either one, neither.
AUGMENTATIONS = [(0.15, 0.08), (0.0, 0.08), (0.15, 0.0), (0.0, 0.0)]


class _FailingBackwardModel(FoundationModel):
    """Raises from the third backward pass of either tuning stage."""

    def __init__(self, rng):
        super().__init__(rng)
        self.backward_calls = 0

    def _fail_on_third(self):
        self.backward_calls += 1
        if self.backward_calls == 3:
            raise RuntimeError("injected backward failure")

    def backward_description_batch(self, grad_logits):
        self._fail_on_third()
        super().backward_description_batch(grad_logits)

    def backward_assess_batch(self, grad_logits):
        self._fail_on_third()
        super().backward_assess_batch(grad_logits)


def _scoring_triples(model, train):
    """(video, description, seed) triples: true, sampled and unrelated
    descriptions over several videos and seeds."""
    triples = []
    for index, sample in enumerate(list(train)[:6]):
        truth = sample.true_description()
        sampled = model.describe(
            sample.video, GenerationConfig(temperature=1.0, seed=index))
        unrelated = FacialDescription(tuple(
            au for au in (1, 2, 4, 5, 6, 9, 12) if au not in truth.au_ids))
        for seed, description in enumerate((truth, sampled, unrelated)):
            triples.append((sample, description, 17 * index + seed))
    return triples


class TestInstructionTuning:
    def test_describe_loss_decreases(self, instruction_pairs):
        model = FoundationModel(make_rng(1, "it"))
        curve = train_describe(model, instruction_pairs[:60], epochs=60)
        assert curve[-1] < curve[0] * 0.7

    def test_describe_learns_aus(self, instruction_pairs):
        model = FoundationModel(make_rng(2, "it2"))
        train_describe(model, instruction_pairs[:100], epochs=120)
        hits, total = 0, 0
        for pair in instruction_pairs[100:110]:
            predicted = model.describe(pair.video,
                                       GenerationConfig(temperature=0))
            hits += 12 - predicted.hamming_distance(pair.description)
            total += 12
        assert hits / total > 0.8

    def test_describe_empty_raises(self):
        model = FoundationModel(make_rng(3, "it3"))
        with pytest.raises(TrainingError):
            train_describe(model, [])

    def test_assess_loss_decreases(self, micro_uvsd):
        model = FoundationModel(make_rng(4, "it4"))
        samples = list(micro_uvsd)[:60]
        videos = [s.video for s in samples]
        descriptions = [s.true_description() for s in samples]
        labels = np.array([s.label for s in samples], dtype=float)
        curve = train_assess(model, videos, descriptions, labels, epochs=80)
        assert curve[-1] < curve[0]

    def test_assess_handles_none_descriptions(self, micro_uvsd):
        model = FoundationModel(make_rng(5, "it5"))
        samples = list(micro_uvsd)[:40]
        curve = train_assess(
            model, [s.video for s in samples],
            [None] * len(samples),
            np.array([s.label for s in samples], dtype=float),
            epochs=40,
        )
        assert np.isfinite(curve).all()

    def test_assess_misaligned_raises(self, micro_uvsd):
        model = FoundationModel(make_rng(6, "it6"))
        with pytest.raises(TrainingError):
            train_assess(model, [micro_uvsd[0].video], [], np.array([1.0]))

    @pytest.mark.parametrize("epochs", [0, -1])
    def test_describe_nonpositive_epochs_raise(self, instruction_pairs,
                                               epochs):
        model = FoundationModel(make_rng(3, "it3"))
        with pytest.raises(TrainingError, match="epochs"):
            train_describe(model, instruction_pairs[:4], epochs=epochs)

    @pytest.mark.parametrize("epochs", [0, -1])
    def test_assess_nonpositive_epochs_raise(self, micro_uvsd, epochs):
        model = FoundationModel(make_rng(6, "it6"))
        sample = micro_uvsd[0]
        with pytest.raises(TrainingError, match="epochs"):
            train_assess(model, [sample.video], [None],
                         np.array([float(sample.label)]), epochs=epochs)

    @pytest.mark.parametrize("feature_noise,patch_dropout", AUGMENTATIONS)
    def test_describe_matches_serial_oracle(self, instruction_pairs,
                                            feature_noise, patch_dropout):
        """Drawing one epoch ahead on a helper thread gives bitwise the
        loss curve and weights of drawing inside the loop."""
        pairs = instruction_pairs[:40]
        kwargs = dict(epochs=12, feature_noise=feature_noise,
                      patch_dropout=patch_dropout, seed=4)
        oracle = FoundationModel(make_rng(7, "oracle"))
        model = FoundationModel(make_rng(7, "oracle"))
        want = _train_describe_serial(oracle, pairs, **kwargs)
        got = train_describe(model, pairs, **kwargs)
        assert got == want
        assert model.fingerprint() == oracle.fingerprint()

    @pytest.mark.parametrize("feature_noise,patch_dropout", AUGMENTATIONS)
    def test_assess_matches_serial_oracle(self, micro_uvsd, feature_noise,
                                          patch_dropout):
        samples = list(micro_uvsd)[:40]
        videos = [s.video for s in samples]
        descriptions = [s.true_description() if i % 3 else None
                        for i, s in enumerate(samples)]
        labels = np.array([s.label for s in samples], dtype=float)
        kwargs = dict(epochs=12, feature_noise=feature_noise,
                      patch_dropout=patch_dropout, seed=5)
        oracle = FoundationModel(make_rng(8, "oracle"))
        model = FoundationModel(make_rng(8, "oracle"))
        want = _train_assess_serial(oracle, videos, descriptions, labels,
                                    **kwargs)
        got = train_assess(model, videos, descriptions, labels, **kwargs)
        assert got == want
        assert model.fingerprint() == oracle.fingerprint()

    def test_tuning_leaves_no_helper_thread(self, instruction_pairs,
                                            micro_uvsd):
        before = threading.active_count()
        model = FoundationModel(make_rng(9, "threads"))
        train_describe(model, instruction_pairs[:10], epochs=3)
        assert threading.active_count() == before
        samples = list(micro_uvsd)[:10]
        train_assess(model, [s.video for s in samples], [None] * 10,
                     np.array([s.label for s in samples], dtype=float),
                     epochs=3)
        assert threading.active_count() == before

    def test_failed_step_joins_helper_thread(self, instruction_pairs,
                                             micro_uvsd):
        """A training step that raises propagates, and the augmentation
        helper is joined all the same."""
        before = threading.active_count()
        model = _FailingBackwardModel(make_rng(10, "fails"))
        with pytest.raises(RuntimeError, match="injected"):
            train_describe(model, instruction_pairs[:10], epochs=6)
        assert threading.active_count() == before
        model = _FailingBackwardModel(make_rng(10, "fails"))
        samples = list(micro_uvsd)[:10]
        with pytest.raises(RuntimeError, match="injected"):
            train_assess(model, [s.video for s in samples], [None] * 10,
                         np.array([s.label for s in samples], dtype=float),
                         epochs=6)
        assert threading.active_count() == before


class TestScores:
    def test_helpfulness_bounds(self, trained):
        model, __, train, __ = trained
        sample = train[0]
        description = sample.true_description()
        score = helpfulness_score(model, sample.video, description,
                                  sample.label, num_trials=5)
        assert 0.0 <= score <= 1.0

    def test_helpfulness_deterministic(self, trained):
        model, __, train, __ = trained
        sample = train[0]
        description = sample.true_description()
        a = helpfulness_score(model, sample.video, description,
                              sample.label, num_trials=4, seed=9)
        b = helpfulness_score(model, sample.video, description,
                              sample.label, num_trials=4, seed=9)
        assert a == b

    def test_helpfulness_bad_trials_raises(self, trained):
        model, __, train, __ = trained
        with pytest.raises(ValueError):
            helpfulness_score(model, train[0].video,
                              FacialDescription((1,)), 1, num_trials=0)

    def test_verification_true_description_beats_garbage(self, trained):
        """The oracle description of a video should verify better than
        a description of unrelated actions, on average."""
        model, __, train, __ = trained
        pool = [s.video for s in train]
        true_scores, garbage_scores = [], []
        for sample in list(train)[:8]:
            truth = sample.true_description()
            if not truth.au_ids:
                continue
            garbage = FacialDescription(tuple(
                au for au in (1, 2, 4, 5, 6, 9, 12)
                if au not in truth.au_ids
            ))
            true_scores.append(verification_score(
                model, sample.video, truth, pool, num_trials=4
            ))
            garbage_scores.append(verification_score(
                model, sample.video, garbage, pool, num_trials=4
            ))
        assert np.mean(true_scores) > np.mean(garbage_scores)

    def test_verification_zero_trials_raises(self, trained):
        model, __, train, __ = trained
        sample = train[0]
        pool = [s.video for s in train]
        with pytest.raises(ValueError, match="num_trials must be positive"):
            verification_score(model, sample.video,
                               sample.true_description(), pool,
                               num_trials=0)

    def test_helpfulness_matches_per_trial_loop(self, trained):
        model, __, train, __ = trained
        for sample, description, seed in _scoring_triples(model, train):
            for num_trials in (1, 5):
                assert helpfulness_score(
                    model, sample.video, description, sample.label,
                    num_trials=num_trials, seed=seed,
                ) == _helpfulness_per_trial(
                    model, sample.video, description, sample.label,
                    num_trials, seed,
                )

    def test_verification_matches_per_trial_loop(self, trained):
        model, __, train, __ = trained
        videos = [s.video for s in train]
        # One pool shared by every call, as a refinement pass shares it.
        shared = VerificationPool(model, videos)
        for sample, description, seed in _scoring_triples(model, train):
            expected = _verification_per_trial(
                model, sample.video, description, videos, 5, seed)
            for pool in (videos, shared):
                assert verification_score(
                    model, sample.video, description, pool,
                    num_trials=5, seed=seed,
                ) == expected

    def test_verification_pool_of_another_model_rejected(self, trained,
                                                         fresh_model):
        model, __, train, __ = trained
        sample = train[0]
        pool = VerificationPool(fresh_model, [s.video for s in train])
        with pytest.raises(TrainingError):
            verification_score(model, sample.video,
                               sample.true_description(), pool)

    def test_verification_needs_pool(self, trained):
        model, __, train, __ = trained
        sample = train[0]
        with pytest.raises(TrainingError):
            verification_score(model, sample.video,
                               sample.true_description(),
                               [sample.video], num_trials=2)


class TestFlipCount:
    def test_bounds(self, trained):
        model, __, train, __ = trained
        sample = train[0]
        description = model.describe(sample.video,
                                     GenerationConfig(temperature=0))
        if description.au_ids:
            rationale = model.highlight(sample.video, description, 1)
            count = rationale_flip_count(model, sample.video, description,
                                         rationale)
            assert 1 <= count <= len(rationale) + 1

    def test_empty_rationale_scores_one(self, trained):
        model, __, train, __ = trained
        sample = train[0]
        assert rationale_flip_count(model, sample.video,
                                    FacialDescription(()), ()) == 1


class TestReflection:
    def test_propose_description_differs_over_rounds(self, trained):
        model, __, train, __ = trained
        sample = train[0]
        previous = model.describe(sample.video,
                                  GenerationConfig(temperature=0))
        candidates = {
            propose_description(model, sample.video, previous, i, seed=0,
                                true_label=sample.label).au_ids
            for i in range(6)
        }
        assert len(candidates) >= 1  # draws are valid descriptions

    def test_propose_rationales_count(self, trained):
        model, __, train, __ = trained
        sample = train[0]
        description = FacialDescription((1, 4, 6, 25))
        rationales = propose_rationales(model, sample.video, description,
                                        1, num_candidates=4, seed=0)
        assert len(rationales) == 4
        for rationale in rationales:
            assert set(rationale) <= set(description.au_ids)

    def test_reflection_uses_label_guidance(self, trained):
        """With ground-truth guidance, reflected descriptions shift
        along the assessment head's AU weights."""
        model, __, train, __ = trained
        sample = train[0]
        previous = model.describe(sample.video,
                                  GenerationConfig(temperature=0))
        guided = [
            propose_description(model, sample.video, previous, i, seed=1,
                                true_label=1, use_reflection=True)
            for i in range(6)
        ]
        unguided = [
            propose_description(model, sample.video, previous, i, seed=1,
                                true_label=None, use_reflection=False)
            for i in range(6)
        ]
        weights = model.assess_au_weights()
        def mean_evidence(descs):
            return np.mean([d.to_vector() @ weights for d in descs])
        assert mean_evidence(guided) >= mean_evidence(unguided) - 0.2


class TestFrozenForwardReuse:
    def test_refine_pass_embeds_each_pool_video_once(self, micro_split,
                                                     monkeypatch):
        """One description-refinement pass computes the AU logits of
        each distinct pool video at most once, however many trials and
        candidates verification scores."""
        train, __ = micro_split
        model = FoundationModel(make_rng(11, "refine-memo"))
        trainer = SelfRefineTrainer(
            model, SelfRefineConfig(num_trials=3, refine_sample_limit=12,
                                    seed=5))
        samples = list(train)
        descriptions = [
            model.describe(s.video, GenerationConfig(temperature=1.0, seed=i))
            for i, s in enumerate(samples)
        ]

        # Reflection reads the logits of its own video; a fixed
        # candidate keeps every counted call inside scoring.
        def propose(model, video, previous, round_index, *args, **kwargs):
            return FacialDescription((1, 2, 4)[:round_index + 1])

        monkeypatch.setattr(self_refine, "propose_description", propose)
        calls = Counter()
        au_logits = FoundationModel.au_logits

        def counted(self, video, embed=None):
            calls[video.content_hash] += 1
            return au_logits(self, video, embed)

        monkeypatch.setattr(FoundationModel, "au_logits", counted)
        trainer._refine_descriptions(samples, descriptions, train)
        assert calls
        assert set(calls) <= {s.video.content_hash for s in train}
        assert max(calls.values()) == 1

    def test_training_leaves_no_trunk_gradient(self, micro_split,
                                               instruction_pairs,
                                               micro_config):
        """Only Stage 1 steps the trunk; no later stage backprops into it."""
        train, __ = micro_split
        model, report = train_stress_model(train, instruction_pairs,
                                           micro_config)
        # Every stage ran, description and rationale DPO included.
        assert report.describe_curve and report.assess_curve_final
        assert report.dpo_description_curve and report.dpo_rationale_curve
        for param in model.trunk.parameters():
            assert not param.grad.any(), param.name


def _fresh_samples(samples):
    """The samples over new :class:`Video` objects of the same specs:
    same content, no cached frames or SLIC maps."""
    return [dataclasses.replace(s, video=Video(s.video.spec))
            for s in samples]


class TestRationalePassSegmentation:
    """The rationale pass segments its clips on forked workers and
    installs the maps; no result depends on the worker count."""

    @pytest.fixture()
    def rationale_setup(self, trained):
        model, __, train, __ = trained
        config = SelfRefineConfig(num_rationale_candidates=3,
                                  refine_sample_limit=14, seed=7)
        return model, config, list(train)[:14]

    def test_worker_count_does_not_change_results(self, rationale_setup,
                                                  monkeypatch):
        model, config, samples = rationale_setup
        outcomes = []
        for workers in ("1", "2"):
            monkeypatch.setenv(NUM_WORKERS_ENV, workers)
            clone = model.clone()
            pairs = SelfRefineTrainer(clone, config)._refine_rationales(
                _fresh_samples(samples), [None] * len(samples))
            DPOTrainer(clone, beta=config.beta).train_rationales(pairs,
                                                                epochs=3)
            outcomes.append((
                [(p.video.video_id, p.description, p.assessment, p.winner,
                  p.loser) for p in pairs],
                clone.fingerprint(),
            ))
        assert outcomes[0][0]
        assert outcomes[0] == outcomes[1]

    def test_exactly_the_needed_maps_are_installed(self, rationale_setup,
                                                   monkeypatch):
        """The parent segments nothing itself; it installs one map per
        distinct flip-counted clip, each equal to ``slic_segments``,
        before the first flip count reads it."""
        model, config, samples = rationale_setup
        if not hasattr(os, "fork"):
            pytest.skip("no fork on this platform")
        assert threading.active_count() == 1, "a thread leaked into the test"
        monkeypatch.setenv(NUM_WORKERS_ENV, "2")
        samples = _fresh_samples(samples)
        parent_slic = []
        slic_segments = segmentation.slic_segments

        def counted_slic(*args, **kwargs):
            parent_slic.append(1)  # a forked child appends to its copy
            return slic_segments(*args, **kwargs)

        flip_counted = set()
        flip_count = self_refine.rationale_flip_count

        def checked_flip_count(model, video, *args, **kwargs):
            assert video.has_segmentation(64)
            flip_counted.add(video.content_hash)
            return flip_count(model, video, *args, **kwargs)

        computed = []
        prefetch = self_refine._prefetch_segmentations

        def recorded_prefetch(videos, *args, **kwargs):
            computed.append(prefetch(videos, *args, **kwargs))
            return computed[-1]

        monkeypatch.setattr(segmentation, "slic_segments", counted_slic)
        monkeypatch.setattr(self_refine, "rationale_flip_count",
                            checked_flip_count)
        monkeypatch.setattr(self_refine, "_prefetch_segmentations",
                            recorded_prefetch)
        SelfRefineTrainer(model, config)._refine_rationales(
            samples, [None] * len(samples))
        monkeypatch.undo()

        assert len(flip_counted) >= 2
        assert computed == [len(flip_counted)]
        assert not parent_slic
        for sample in samples:
            video = sample.video
            if video.content_hash in flip_counted:
                expressive, __ = video.keyframes
                want = segmentation.slic_segments(expressive, 64)
                got = video.segmentation(64)
                assert got.dtype == want.dtype
                assert np.array_equal(got, want)
            else:
                assert not video.has_segmentation(64)

    @pytest.mark.parametrize("guard", ["second_thread", "one_worker"])
    def test_serial_cases_never_fork(self, rationale_setup, monkeypatch,
                                     guard):
        model, config, samples = rationale_setup
        forks = []

        def no_fork():
            forks.append(1)
            raise AssertionError("the rationale pass forked")

        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        if guard == "second_thread":
            monkeypatch.setenv(NUM_WORKERS_ENV, "2")
            thread.start()
        else:
            monkeypatch.setenv(NUM_WORKERS_ENV, "1")
        monkeypatch.setattr(os, "fork", no_fork, raising=False)
        try:
            pairs = SelfRefineTrainer(model, config)._refine_rationales(
                _fresh_samples(samples), [None] * len(samples))
        finally:
            release.set()
            if guard == "second_thread":
                thread.join(timeout=10)
        assert not thread.is_alive()
        assert pairs
        assert not forks
