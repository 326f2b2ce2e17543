"""The trainable vision-language foundation-model simulator.

:class:`FoundationModel` plays the role of the paper's fine-tuned
Qwen-VL.  Architecture:

- a learned *trunk* maps keyframe-pair patch features to an embedding;
- per-AU Bernoulli *description heads* define the distribution the
  Describe step samples from (structured generation: an AU set is the
  description, rendered to text by the FACS templates) -- with exact
  log-probabilities, so instruction tuning and DPO are real;
- an *assessment head* scores Stressed/Unstressed from the embedding
  plus the described AU vector (``p_F(A | V, E, I2)``);
- a *highlight head* scores each described AU; rationales are sampled
  from a Plackett-Luce distribution over those scores, again with
  exact log-probabilities for DPO;
- *verification* reuses the description heads: the candidate video
  whose AU posterior best explains a description wins (Figure 4).

Training contract: every ``*_forward`` method must be immediately
followed by its matching ``backward_*`` call (layers cache one forward
activation), which is how all trainers in :mod:`repro.training` use it.
The trunk trains only in Stage 1 (:meth:`backward_description_batch`);
every other ``backward_*`` stops at the heads, because no later
optimiser steps the trunk.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ModelError
from repro.facs.action_units import NUM_AUS, au_index
from repro.facs.descriptions import FacialDescription
from repro.model.features import (
    feature_dim,
    keyframe_features,
    keyframe_features_batch,
    video_features,
)
from repro.model.generation import (
    GREEDY,
    GenerationConfig,
    bernoulli_set_logprob,
    plackett_luce_logprob,
    plackett_luce_logprob_grad,
    sample_bernoulli,
    sample_bernoulli_set,
    sample_plackett_luce,
)
from repro.model.instructions import VERIFY_INSTRUCTION
from repro.model.session import DialogueSession
from repro.nn.layers import Linear, Module, Parameter
from repro.observability import profiling
from repro.reliability.faults import fault_point
from repro.nn.tensorops import sigmoid
from repro.video.frame import Video

#: Labels the Assess step emits.
UNSTRESSED, STRESSED = 0, 1

#: How strongly reflection lets the ground-truth label steer the
#: description redraw (Section III-C, Figure 3).  Moderate: strong
#: enough that reflected candidates correct factual misses, weak
#: enough that the verification gate can reject label-leaky redraws
#: (overly strong guidance makes refinement hurt on the noisy RSL
#: regime).
_REFLECT_LABEL_GAIN: float = 0.7

#: Temperature of the reflective redraw -- lower than plain sampling,
#: modelling the "watch the video again carefully" re-read.
_REFLECT_TEMPERATURE: float = 0.55


class FoundationModel(Module):
    """Trainable stand-in for the paper's vision-language model.

    Parameters
    ----------
    rng:
        Initialisation randomness.
    embed_dim:
        Trunk embedding width.
    grid:
        Patch grid of the visual front-end (see
        :mod:`repro.model.features`).
    """

    def __init__(self, rng: np.random.Generator, embed_dim: int = 48,
                 grid: int = 12):
        self.embed_dim = embed_dim
        self.grid = grid
        self.trunk = Linear(feature_dim(grid), embed_dim, rng, name="trunk")
        self.au_head = Linear(embed_dim, NUM_AUS, rng, name="au_head")
        self.assess_head = Linear(embed_dim + NUM_AUS, 1, rng, name="assess_head")
        # Highlight pathway: initialised small so the introspective
        # component (the assessment head's own AU weights, see
        # highlight_scores) dominates the initial ranking; rationale
        # DPO then tunes the learned terms with causal flip evidence.
        self.highlight_proj = Linear(embed_dim, NUM_AUS, rng,
                                     name="highlight_proj")
        self.highlight_proj.weight.value *= 0.3
        self.highlight_bias = Parameter("highlight_bias",
                                        rng.normal(0.0, 0.12, NUM_AUS))
        self.highlight_assess = Parameter("highlight_assess",
                                          rng.normal(0.0, 0.12, NUM_AUS))
        self.frozen = False

    # ------------------------------------------------------------------
    # Features / embedding
    # ------------------------------------------------------------------

    def features(self, video: Video) -> np.ndarray:
        """Patch features of a video's keyframe pair.

        They are weight-independent, so the clip keeps them
        (:func:`~repro.model.features.video_features`), not the model:
        a model holds no per-clip state, and every model reading a
        clip -- each CV fold's fresh one, a clone -- computes its
        features at most once.  They are computed from the clip's own
        frames, which the working set keys on its content hash, so no
        two clips with different specs ever share features.
        """
        return video_features(video, self.grid)

    def frame_pair_features(self, expressive: np.ndarray,
                            neutral: np.ndarray) -> np.ndarray:
        """Features of an explicit (possibly perturbed) keyframe pair."""
        return keyframe_features(expressive, neutral, self.grid)

    def _embed(self, features: np.ndarray) -> np.ndarray:
        return self.trunk.forward(features[np.newaxis, :])

    def embed_video(self, video: Video) -> np.ndarray:
        """Trunk embedding of a video's keyframe pair, shape (1, D).

        This is the shared state of the whole reasoning chain: the
        Describe, Assess, and Highlight heads all read the same
        embedding, so the chain computes it once per run and passes it
        to each stage method as ``embed`` -- bitwise-identically,
        because the per-head math is unchanged.
        """
        # The model.forward fault site: one check per trunk pass, the
        # unit of work every served request spends.
        fault_point("model.forward")
        if profiling.enabled():
            profiling.count(profiling.EMBED)
        return self._embed(self.features(video))

    # ------------------------------------------------------------------
    # Describe (instruction I1)
    # ------------------------------------------------------------------

    def au_logits(self, video: Video,
                  embed: np.ndarray | None = None) -> np.ndarray:
        """Per-AU description logits, shape (12,).

        ``embed`` is the video's :meth:`embed_video` when the caller
        already holds it (the stage methods below take it the same
        way, so a chain run pays for one trunk pass).
        """
        if embed is None:
            embed = self.embed_video(video)
        return self.au_head.forward(embed)[0]

    def _describe_logits(self, video: Video, config: GenerationConfig,
                         embed: np.ndarray | None = None) -> np.ndarray:
        """The AU logits one Describe query under ``config`` samples
        from (a subclass may make them depend on the query)."""
        return self.au_logits(video, embed)

    def describe(self, video: Video, config: GenerationConfig | None = None,
                 embed: np.ndarray | None = None) -> FacialDescription:
        """Sample a facial-action description (the Describe step)."""
        config = config or GenerationConfig()
        outcome = sample_bernoulli_set(
            self._describe_logits(video, config, embed), config)
        return FacialDescription.from_vector(outcome)

    def backward_description(self, grad_logits: np.ndarray) -> None:
        """Backprop a gradient w.r.t. the AU logits of the *last*
        ``au_logits``/``describe`` forward into the AU head only: the
        trunk trains only in Stage 1 (:meth:`backward_description_batch`),
        and description DPO never steps it."""
        self._check_trainable()
        self.au_head.backward(np.atleast_2d(grad_logits))

    def reflect_description(
        self,
        video: Video,
        previous: FacialDescription,
        config: GenerationConfig,
        true_label: int | None = None,
    ) -> FacialDescription:
        """Self-reflection on a description (Figure 3).

        The redraw differs mechanically from plain resampling in two
        ways that give reflection its edge (Table V "w/o reflection"):
        it decodes at a lower temperature (a careful second look), and
        when the ground-truth label is available (training time) the
        per-AU logits are nudged along the assessment head's AU
        weights toward the true class -- "predict the stress level
        based on the ground truth".
        """
        logits = self._describe_logits(video, config)
        if true_label is not None:
            direction = 1.0 if true_label == STRESSED else -1.0
            logits = logits + (_REFLECT_LABEL_GAIN * direction
                               * self.assess_au_weights())
        reflect_config = GenerationConfig(
            temperature=_REFLECT_TEMPERATURE * max(config.temperature, 0.1),
            seed=config.seed,
        )
        return FacialDescription.from_vector(
            sample_bernoulli_set(logits, reflect_config))

    # ------------------------------------------------------------------
    # Assess (instruction I2)
    # ------------------------------------------------------------------

    def _assess_input_from_embed(
            self, embed: np.ndarray,
            description: FacialDescription | None) -> np.ndarray:
        desc_vec = (description.to_vector() if description is not None
                    else np.zeros(NUM_AUS))
        return np.concatenate([embed[0], desc_vec])[np.newaxis, :]

    def assess_logit(self, video: Video,
                     description: FacialDescription | None,
                     embed: np.ndarray | None = None) -> float:
        """Raw stress logit; ``description=None`` is the paper's
        "w/o Chain" direct query."""
        if embed is None:
            embed = self.embed_video(video)
        return float(
            self.assess_head.forward(
                self._assess_input_from_embed(embed, description)
            )[0, 0]
        )

    def chain_prob_from_frames(self, expressive: np.ndarray,
                               neutral: np.ndarray) -> float:
        """Full-chain stress probability on an explicit keyframe pair:
        greedy-describe from the (possibly perturbed) frames, then
        assess conditioned on that description.

        This is the black-box function the post-hoc explainers and the
        deletion metric query -- perturbing the frame changes what the
        model "sees", hence what it describes, hence its assessment.
        Describe and Assess share one feature extraction and one trunk
        pass; the result equals the separate Describe and Assess
        forwards of ``tests/foundation_reference.py`` bitwise.
        """
        embed = self._embed(self.frame_pair_features(expressive, neutral))
        logits = self.au_head.forward(embed)[0]
        description = FacialDescription.from_vector(
            (logits > 0).astype(np.float64)
        )
        logit = self.assess_head.forward(
            self._assess_input_from_embed(embed, description))[0, 0]
        return float(sigmoid(np.array(logit))[()])

    def frame_pair_features_batch(self, expressive: np.ndarray,
                                  neutral: np.ndarray) -> np.ndarray:
        """Features of a ``(N, H, W)`` stack of (possibly perturbed)
        expressive frames against one clean neutral frame."""
        return keyframe_features_batch(expressive, neutral, self.grid)

    def chain_prob_from_frames_batch(self, expressive: np.ndarray,
                                     neutral: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`chain_prob_from_frames`: greedy-describe
        and assess a whole stack of perturbed frames in one NumPy pass.

        This is the batched engine behind the post-hoc explainers and
        the deletion metric -- feature extraction, the AU heads and the
        assessment head each run once over the stack instead of once
        per frame.  Returns stress probabilities, shape (N,).
        """
        features = self.frame_pair_features_batch(expressive, neutral)
        embed = self.trunk.forward(features)
        au_logits = self.au_head.forward(embed)
        desc_matrix = (au_logits > 0).astype(np.float64)
        logits = self.assess_head.forward(
            np.concatenate([embed, desc_matrix], axis=1)
        )[:, 0]
        return sigmoid(logits)

    def assess(self, video: Video, description: FacialDescription | None,
               config: GenerationConfig | None = None) -> tuple[int, float]:
        """The Assess step: returns ``(label, p_stressed)``.

        Greedy decoding thresholds the probability at 0.5; positive
        temperature draws the label from the tempered Bernoulli
        (:func:`~repro.model.generation.sample_bernoulli`), which is
        what the paper's K-seed helpfulness scoring repeats.
        """
        config = config or GREEDY
        logit = self.assess_logit(video, description)
        prob = float(sigmoid(np.array(logit))[()])
        return sample_bernoulli(logit, config), prob

    def assess_au_weights(self) -> np.ndarray:
        """The assessment head's weight on each described AU -- the
        model's *true* per-AU decision influence, shape (12,)."""
        return self.assess_head.weight.value[self.embed_dim:, 0].copy()

    def au_patch_sensitivity(self, au_id: int) -> np.ndarray:
        """Where the model *looks* when reading ``au_id``: the squared
        effective patch weights of that AU's describe pathway, folded
        over the two feature channels, shape ``(grid, grid)``.

        This is the simulator's analog of the attention map a VLM
        carries for a facial action, and is what grounds a highlighted
        action to frame segments (Section IV-H's landmark lookup).
        """
        effective = self.trunk.weight.value @ self.au_head.weight.value
        column = effective[:, au_index(au_id)]
        per_patch = column[: self.grid**2] ** 2 + column[self.grid**2:] ** 2
        return per_patch.reshape(self.grid, self.grid)

    # ------------------------------------------------------------------
    # Highlight (instruction I3)
    # ------------------------------------------------------------------

    def highlight_scores_from_embed(self, embed: np.ndarray,
                                    description: FacialDescription,
                                    assessment: int) -> np.ndarray:
        """:meth:`highlight_scores` from a precomputed embedding."""
        direction = 1.0 if assessment == STRESSED else -1.0
        scores = (self.highlight_proj.forward(embed)[0]
                  + self.highlight_bias.value
                  + direction * (self.highlight_assess.value
                                 + self.assess_au_weights()))
        masked = np.full(NUM_AUS, -np.inf)
        for au_id in description:
            idx = au_index(au_id)
            masked[idx] = scores[idx]
        return masked

    def highlight_scores(self, video: Video, description: FacialDescription,
                         assessment: int) -> np.ndarray:
        """Attribution score for each *described* AU (12-dim; silent
        AUs are ``-inf`` so they can never be highlighted).

        The score carries two assessment-signed components: the
        model's *introspected* decision influence (its own assessment
        head's AU weights, read as a constant feature -- the wiring
        that lets a model report what drove it) plus a learned
        correction ``highlight_assess`` that rationale DPO tunes with
        causal flip-count evidence.
        """
        return self.highlight_scores_from_embed(self.embed_video(video),
                                                description, assessment)

    def highlight(self, video: Video, description: FacialDescription,
                  assessment: int,
                  config: GenerationConfig | None = None,
                  top_k: int | None = None,
                  embed: np.ndarray | None = None) -> tuple[int, ...]:
        """The Highlight step: an importance-ordered tuple of AU ids.

        ``assessment`` is accepted for interface fidelity with
        ``p_F(R | A, E, V, I3)``; the score pathway conditions on the
        same video evidence that produced the assessment.
        """
        if embed is None:
            embed = self.embed_video(video)
        if assessment not in (STRESSED, UNSTRESSED):
            raise ModelError(f"assessment must be 0 or 1, got {assessment}")
        if not description.au_ids:
            return ()
        config = config or GREEDY
        active = [au_index(au_id) for au_id in description.au_ids]
        scores = self.highlight_scores_from_embed(
            embed, description, assessment)[active]
        ordering = sample_plackett_luce(scores, config, top_k=top_k)
        return tuple(description.au_ids[i] for i in ordering)

    def reflect_rationale(self, video: Video, description: FacialDescription,
                          assessment: int, config: GenerationConfig,
                          top_k: int | None = None) -> tuple[int, ...]:
        """Self-reflection on a rationale (Figure 5): "do the
        highlighted cues really matter to me?".

        Mechanically the reflective redraw augments the highlight
        scores with the model's *introspected* decision influence --
        the magnitude of each AU's weight in its own assessment head --
        before Plackett-Luce sampling.  This is what distinguishes
        reflection from plain resampling (the paper's "w/o reflection"
        ablation): the reflected candidates concentrate around AUs
        that truly drive the decision, so the best-of-n rationale is
        more faithful.
        """
        if not description.au_ids:
            return ()
        direction = 1.0 if assessment == STRESSED else -1.0
        active = [au_index(au_id) for au_id in description.au_ids]
        scores = self.highlight_scores(video, description, assessment)[active]
        # Introspected decision influence: the assessment head's weight
        # on each AU, signed by the emitted decision, so cues that
        # *support* the decision float to the top.
        introspection = direction * self.assess_au_weights()[active]
        scale = np.abs(scores).mean() + 1e-6
        intro_scale = np.abs(introspection).mean() + 1e-6
        reflected = scores + (scale / intro_scale) * introspection
        ordering = sample_plackett_luce(reflected, config, top_k=top_k)
        return tuple(description.au_ids[i] for i in ordering)

    def rationale_logprob(self, video: Video, description: FacialDescription,
                          rationale: tuple[int, ...],
                          assessment: int) -> float:
        """Exact log p_F(R | V, E, A, I3) under the Plackett-Luce
        highlight distribution."""
        active = list(description.au_ids)
        scores = self.highlight_scores(video, description, assessment)[
            [au_index(au_id) for au_id in active]
        ]
        ordering = tuple(active.index(au_id) for au_id in rationale)
        return plackett_luce_logprob(scores, ordering)

    def backward_rationale(self, video: Video, description: FacialDescription,
                           rationale: tuple[int, ...], assessment: int,
                           grad_scale: float) -> None:
        """Accumulate ``grad_scale * d logprob(R)/d params`` for the
        highlight pathway (re-runs its forward internally).

        The gradient stops at the highlight parameters: the trunk
        trains only in Stage 1 (:meth:`backward_description_batch`),
        and rationale DPO never steps it.
        """
        self._check_trainable()
        direction = 1.0 if assessment == STRESSED else -1.0
        active = list(description.au_ids)
        active_idx = [au_index(au_id) for au_id in active]
        embed = self._embed(self.features(video))
        scores_full = (self.highlight_proj.forward(embed)[0]
                       + self.highlight_bias.value
                       + direction * (self.highlight_assess.value
                                      + self.assess_au_weights()))
        ordering = tuple(active.index(au_id) for au_id in rationale)
        grad_active = plackett_luce_logprob_grad(scores_full[active_idx],
                                                 ordering)
        grad_full = np.zeros(NUM_AUS)
        grad_full[active_idx] = grad_scale * grad_active
        self.highlight_bias.grad += grad_full
        self.highlight_assess.grad += direction * grad_full
        self.highlight_proj.backward(grad_full[np.newaxis, :])

    # ------------------------------------------------------------------
    # Batched training hooks (used by repro.training)
    # ------------------------------------------------------------------

    def features_matrix(self, videos: list[Video]) -> np.ndarray:
        """Stacked features for a list of videos, shape (N, F)."""
        return np.stack([self.features(video) for video in videos])

    def au_logits_batch(self, features: np.ndarray) -> np.ndarray:
        """Per-AU logits for a feature matrix, shape (N, 12)."""
        return self.au_head.forward(self.trunk.forward(features))

    def backward_description_batch(self, grad_logits: np.ndarray) -> None:
        """Backprop through the last :meth:`au_logits_batch` call, into
        the AU head and the trunk: Stage 1, the one stage that trains
        the trunk."""
        self._check_trainable()
        self.trunk.backward(self.au_head.backward(grad_logits))

    def assess_logits_batch(self, features: np.ndarray,
                            desc_vectors: np.ndarray) -> np.ndarray:
        """Stress logits for feature/description matrices, shape (N,)."""
        embed = self.trunk.forward(features)
        return self.assess_head.forward(
            np.concatenate([embed, desc_vectors], axis=1)
        )[:, 0]

    def backward_assess_batch(self, grad_logits: np.ndarray) -> None:
        """Backprop through the last :meth:`assess_logits_batch` call
        into the assessment head only: the trunk trains only in Stage 1
        (:meth:`backward_description_batch`), and assessment tuning
        never steps it."""
        self._check_trainable()
        self.assess_head.backward(grad_logits[:, np.newaxis])

    # ------------------------------------------------------------------
    # Self-verification (Figure 4)
    # ------------------------------------------------------------------

    def verify(self, description: FacialDescription, videos: list[Video],
               config: GenerationConfig, session: DialogueSession,
               au_logits: list[np.ndarray] | None = None) -> int:
        """Pick which of ``videos`` the description refers to.

        Must run in a fresh session (the paper's no-cheating rule).
        The match score of each candidate is the log-likelihood of the
        described AU set under that video's AU posterior; positive
        temperature adds Gumbel noise so repeated verification with
        different seeds measures confidence.  ``au_logits`` holds each
        candidate's :meth:`au_logits` when the caller already has them
        (self-verification reads a whole pool's logits once per pass).
        """
        session.require_fresh("self-verification")
        if len(videos) < 2:
            raise ModelError("verification needs at least 2 candidate videos")
        if au_logits is None:
            au_logits = [self.au_logits(video) for video in videos]
        elif len(au_logits) != len(videos):
            raise ModelError(
                f"need one logit vector per candidate ({len(videos)}), "
                f"got {len(au_logits)}"
            )
        desc_vec = description.to_vector()
        scores = np.array([
            bernoulli_set_logprob(logits, desc_vec) for logits in au_logits
        ])
        if config.temperature == 0.0:
            choice = int(np.argmax(scores))
        else:
            rng = np.random.default_rng(config.seed)
            gumbel = -np.log(-np.log(rng.random(scores.shape)))
            choice = int(np.argmax(scores / config.temperature + gumbel))
        session.record(
            VERIFY_INSTRUCTION, f"Video {choice + 1}"
        )
        return choice

    # ------------------------------------------------------------------
    # Housekeeping
    # ------------------------------------------------------------------

    def _check_trainable(self) -> None:
        if self.frozen:
            raise ModelError(
                "this model is frozen (off-the-shelf proxy); its parameters "
                "cannot be updated"
            )

    def clone(self) -> "FoundationModel":
        """Deep copy (used for the frozen DPO reference model)."""
        return self.copy()

    def fingerprint(self) -> str:
        """SHA-256 over the architecture and every parameter byte.

        Equal fingerprints imply the two models compute bitwise-equal
        forward passes; the registry and the replica pool use this to
        assert which weights a replica is actually serving.
        """
        import hashlib

        digest = hashlib.sha256()
        digest.update(f"{self.embed_dim}:{self.grid}".encode())
        for name in sorted(state := self.state_dict()):
            value = np.ascontiguousarray(state[name], dtype=np.float64)
            digest.update(name.encode())
            digest.update(str(value.shape).encode())
            digest.update(value.tobytes())
        return digest.hexdigest()


def _render_rationale(rationale: tuple[int, ...]) -> str:
    """Render a rationale AU ordering as text."""
    from repro.facs.action_units import au_by_id

    if not rationale:
        return "No single facial expression stands out."
    lines = [
        f"{rank + 1}. {au_by_id(au_id).region}: {au_by_id(au_id).phrase}"
        for rank, au_id in enumerate(rationale)
    ]
    return "The critical facial expressions are:\n" + "\n".join(lines)
