"""Frozen "off-the-shelf" foundation-model proxies.

The paper queries GPT-4o, Claude-3.5 Sonnet and Gemini-1.5 Pro through
their APIs, without any task training.  The proxies here reproduce
that setting: each vendor is a :class:`FoundationModel` *pre-trained on
a generic synthetic emotion corpus* -- broad world knowledge about
facial actions and their link to stress, but never the target datasets
-- then frozen.  Vendors differ in pre-training budget (capability) and
a deterministic per-query logit noise (API-grade variability), which
yields the paper's zero-shot ordering GPT-4o > Claude-3.5 ~ Gemini-1.5,
well below every supervised method.

Because the proxies are frozen, the Table VIII protocol (chain
reasoning + *test-time* self-refinement, no weight updates) applies to
them exactly as the paper describes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.errors import ModelError
from repro.facs.stress_priors import default_stress_prior
from repro.model.foundation import FoundationModel
from repro.nn.optim import Adam
from repro.nn.tensorops import binary_cross_entropy_with_logits
from repro.rng import derive_seed, make_rng
from repro.video.frame import Video


@dataclass(frozen=True)
class VendorProfile:
    """Capability profile of one API vendor."""

    name: str
    au_corpus_size: int        # generic facial-action pre-training budget
    stress_corpus_size: int    # generic stress-knowledge budget
    assess_noise: float        # per-query stress-logit noise
    describe_noise: float      # per-query AU-logit noise


_VENDORS: dict[str, VendorProfile] = {
    "gpt-4o": VendorProfile("gpt-4o", 2400, 1000, 1.7, 1.1),
    "claude-3.5": VendorProfile("claude-3.5", 1200, 600, 1.9, 1.5),
    "gemini-1.5": VendorProfile("gemini-1.5", 1000, 550, 1.85, 1.55),
}


def available_vendors() -> tuple[str, ...]:
    """Vendor keys accepted by :func:`load_offtheshelf`."""
    return tuple(_VENDORS)


class OffTheShelfModel(FoundationModel):
    """A frozen vendor proxy.

    Inference adds deterministic per-(vendor, video) logit noise so
    repeated evaluation is reproducible while capturing the capability
    gap to a supervised model.  All training entry points raise.
    """

    def __init__(self, profile: VendorProfile, seed: int):
        rng = make_rng(seed, f"offtheshelf:{profile.name}")
        super().__init__(rng)
        self.profile = profile
        self._noise_seed = derive_seed(seed, f"noise:{profile.name}")

    def _query_noise(self, kind: str, video: Video, size: int,
                     query_seed: int = 0) -> np.ndarray:
        scope = f"{kind}:{video.video_id}:{video.spec.seed}:{query_seed}"
        return make_rng(self._noise_seed, scope).standard_normal(size)

    def au_logits(self, video: Video, embed=None) -> np.ndarray:
        logits = super().au_logits(video, embed)
        noise = self._query_noise("describe", video, logits.size)
        return logits + self.profile.describe_noise * noise

    def describe(self, video: Video, config=None, session=None, embed=None):
        """Each API query re-draws its noise: re-asking an off-the-shelf
        model to describe the same video yields a differently-wrong
        answer, which is exactly what the paper's test-time
        self-refinement exploits (repeated reflection + verification
        averages the noise out)."""
        from repro.facs.descriptions import FacialDescription
        from repro.model.generation import GenerationConfig, sample_bernoulli_set
        from repro.model.instructions import DESCRIBE_INSTRUCTION

        config = config or GenerationConfig()
        logits = FoundationModel.au_logits(self, video, embed)
        logits = logits + self.profile.describe_noise * self._query_noise(
            "describe", video, logits.size, query_seed=config.seed
        )
        outcome = sample_bernoulli_set(logits, config)
        description = FacialDescription.from_vector(outcome)
        if session is not None:
            session.record(DESCRIBE_INSTRUCTION, description.render())
        return description

    def reflect_description(self, video: Video, previous, config,
                            true_label=None, session=None):
        """Reflection re-queries the API: fresh noise per reflection
        round, decoded at the careful (lower) reflection temperature."""
        from repro.facs.descriptions import FacialDescription
        from repro.model.foundation import (
            _REFLECT_LABEL_GAIN,
            _REFLECT_TEMPERATURE,
            STRESSED,
        )
        from repro.model.generation import GenerationConfig, sample_bernoulli_set

        logits = FoundationModel.au_logits(self, video)
        logits = logits + self.profile.describe_noise * self._query_noise(
            "describe", video, logits.size, query_seed=config.seed
        )
        if true_label is not None:
            direction = 1.0 if true_label == STRESSED else -1.0
            logits = logits + (_REFLECT_LABEL_GAIN * direction
                               * self.assess_au_weights())
        reflect_config = GenerationConfig(
            temperature=_REFLECT_TEMPERATURE * max(config.temperature, 0.1),
            seed=config.seed,
        )
        return FacialDescription.from_vector(
            sample_bernoulli_set(logits, reflect_config)
        )

    def assess_logit(self, video, description, embed=None) -> float:
        logit = super().assess_logit(video, description, embed)
        noise = float(self._query_noise("assess", video, 1)[0])
        return logit + self.profile.assess_noise * noise


def _fit_describe(model: FoundationModel, videos: list[Video],
                  targets: np.ndarray, epochs: int = 120,
                  lr: float = 1e-2) -> None:
    """Plain BCE fit of trunk + AU heads (generic pre-training)."""
    optimizer = Adam(model.trunk.parameters() + model.au_head.parameters(),
                     lr=lr)
    features = model.features_matrix(videos)
    for _ in range(epochs):
        optimizer.zero_grad()
        logits = model.au_logits_batch(features)
        __, grad = binary_cross_entropy_with_logits(logits, targets)
        model.backward_description_batch(grad)
        optimizer.step()


def _fit_assess(model: FoundationModel, videos: list[Video],
                descriptions: list, labels: np.ndarray,
                epochs: int = 150, lr: float = 1e-2) -> None:
    """BCE fit of the assessment head on (V, E?, A) triples.

    Most triples carry a description -- a language model's stress
    knowledge is anchored in verbal descriptions of behaviour -- so
    the chain pathway is the proxy's strong mode and the direct
    "Is the subject stressed?" query (its Table I protocol) is the
    weaker, out-of-habit mode, as the paper observes.
    """
    optimizer = Adam(model.assess_head.parameters(), lr=lr)
    features = model.features_matrix(videos)
    desc_vectors = np.stack([
        descriptions[i].to_vector() if i % 10 < 7
        else np.zeros(len(descriptions[i].to_vector()))
        for i in range(len(descriptions))
    ])
    for _ in range(epochs):
        optimizer.zero_grad()
        logits = model.assess_logits_batch(features, desc_vectors)
        __, grad = binary_cross_entropy_with_logits(logits, labels)
        model.backward_assess_batch(grad)
        optimizer.step()


@lru_cache(maxsize=8)
def load_offtheshelf(vendor: str, seed: int = 0) -> OffTheShelfModel:
    """Build (pre-train and freeze) the proxy for ``vendor``.

    The result is cached per (vendor, seed): construction performs the
    generic pre-training, which takes a few seconds.
    """
    if vendor not in _VENDORS:
        raise ModelError(
            f"unknown vendor {vendor!r}; available: {available_vendors()}"
        )
    profile = _VENDORS[vendor]
    model = OffTheShelfModel(profile, seed)

    # Generic facial-action corpus (DISFA-like, different world slice).
    from repro.datasets.disfa import generate_disfa

    au_corpus = generate_disfa(
        seed=derive_seed(seed, f"au-corpus:{vendor}"),
        num_samples=min(profile.au_corpus_size, 2000),
        num_subjects=40,
    )
    _fit_describe(model, [s.video for s in au_corpus],
                  np.stack([s.true_aus for s in au_corpus]))

    # Generic stress-knowledge corpus: weakly-coupled prior (textbook
    # knowledge, not dataset-specific statistics).
    from repro.datasets.synth import SynthesisConfig, records_to_samples, synthesize_dataset

    config = SynthesisConfig(
        name=f"web-{vendor}",
        num_samples=profile.stress_corpus_size,
        num_subjects=50,
        num_stressed=profile.stress_corpus_size // 2,
        prior=default_stress_prior(coupling=1.2),
        label_noise=0.10,
        noise_scale=0.03,
    )
    corpus = records_to_samples(
        synthesize_dataset(config, derive_seed(seed, f"stress-corpus:{vendor}"))
    )
    _fit_assess(
        model,
        [s.video for s in corpus],
        [s.true_description() for s in corpus],
        np.array([s.label for s in corpus], dtype=np.float64),
    )
    model.frozen = True
    return model
