"""Algorithm 1: the full self-refine chain-reasoning learning process.

Stages (matching the paper's Algorithm 1, run stage-wise over the
training set rather than per-sample for tractability -- the losses are
expectations over D, so the optimum is unchanged):

1. *Learn to describe* on DISFA+ instruction pairs (Eq. 2).
2. Generate an initial description ``E_o`` per training sample and
   bootstrap the assessment head (Eq. 4) so helpfulness scoring is
   meaningful.
3. *Description refinement loop*: reflect, score helpfulness ``h`` and
   verification faithfulness ``f``, accept ``E'`` only when both are
   at least as good, repeat until no candidate is accepted; learn the
   accepted preferences via DPO (Eq. 3).
4. Re-train the assessment head on the refined descriptions (Eq. 4).
5. *Rationale refinement*: generate a rationale, reflect ``n``
   alternatives, rank them by flip-count faithfulness, and learn the
   best-vs-worst preference via DPO (Eq. 5).

Every ablation in the paper's Tables III-VI is a switch here:
``use_chain=False`` ("w/o Chain"), ``learn_describe=False``
("w/o learn des."), ``use_refinement=False`` ("w/o Refine") and
``use_reflection=False`` ("w/o Reflection").
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.datasets.base import Sample, StressDataset
from repro.datasets.instruction import InstructionPair
from repro.errors import TrainingError
from repro.reliability.checkpoint import (
    TrainingCheckpointer,
    training_fingerprint,
)
from repro.facs.descriptions import FacialDescription
from repro.model.foundation import FoundationModel
from repro.model.generation import GREEDY, GenerationConfig
from repro.observability import profiling
from repro.observability.metrics import global_metrics
from repro.observability.tracing import span
from repro.rng import derive_seed
from repro.training.dpo import (
    DescriptionPreference,
    DPOTrainer,
    RationalePreference,
)
from repro.training.faithfulness import (
    FLIP_COUNT_SEGMENTS,
    rationale_flip_count,
)
from repro.training.helpfulness import helpfulness_score
from repro.training.instruction_tuning import train_assess, train_describe
from repro.training.reflection import propose_description, propose_rationales
from repro.training.verification import VerificationPool, verification_score
from repro.video.frame import Video


@dataclass(frozen=True)
class SelfRefineConfig:
    """Hyper-parameters and ablation switches of Algorithm 1.

    Defaults follow Section IV-H: DPO beta 0.1, K = 5 scoring trials,
    n = 4 reflected rationales.
    """

    use_chain: bool = True
    learn_describe: bool = True
    use_refinement: bool = True
    use_reflection: bool = True
    num_trials: int = 5                 # K
    num_rationale_candidates: int = 4   # n
    max_reflection_rounds: int = 3
    beta: float = 0.1
    describe_epochs: int = 150
    assess_epochs: int = 200
    dpo_desc_epochs: int = 5
    dpo_desc_lr: float = 2e-3
    dpo_rationale_epochs: int = 12
    dpo_rationale_lr: float = 4e-3
    refine_sample_limit: int | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_trials < 1 or self.num_rationale_candidates < 1:
            raise TrainingError("K and n must be positive")
        if self.max_reflection_rounds < 1:
            raise TrainingError("max_reflection_rounds must be positive")
        if self.describe_epochs < 1 or self.assess_epochs < 1:
            raise TrainingError(
                "describe_epochs and assess_epochs must be positive")


@dataclass
class TrainingReport:
    """What happened during one :meth:`SelfRefineTrainer.fit` run."""

    describe_curve: list[float] = field(default_factory=list)
    assess_curve_bootstrap: list[float] = field(default_factory=list)
    assess_curve_final: list[float] = field(default_factory=list)
    dpo_description_curve: list[float] = field(default_factory=list)
    dpo_rationale_curve: list[float] = field(default_factory=list)
    num_description_pairs: int = 0
    num_rationale_pairs: int = 0
    num_reflection_rounds: int = 0


class SelfRefineTrainer:
    """Trains a :class:`FoundationModel` per Algorithm 1."""

    def __init__(self, model: FoundationModel, config: SelfRefineConfig):
        self.model = model
        self.config = config

    # ------------------------------------------------------------------

    def fit(self, train_data: StressDataset,
            instruction_pairs: list[InstructionPair],
            checkpoint_dir: str | Path | None = None) -> TrainingReport:
        """Run all stages on ``train_data``; returns a report.

        With ``checkpoint_dir`` set, a checkpoint (model parameters,
        partial report, per-sample descriptions) is written after every
        completed stage, and a later ``fit`` against the same
        directory, config, and data resumes from the last completed
        stage -- producing a final model and report **bitwise
        identical** to an uninterrupted run.  Bitwise identity holds
        because no RNG state crosses a stage boundary: every stream is
        freshly derived from ``config.seed`` at its point of use (see
        :mod:`repro.reliability.checkpoint`).  A checkpoint written by
        a different config or dataset is rejected with
        :class:`~repro.errors.CheckpointError`.
        """
        config = self.config
        report = TrainingReport()
        checkpointer: TrainingCheckpointer | None = None
        completed = -1
        descriptions: list[FacialDescription | None] = []
        if checkpoint_dir is not None:
            checkpointer = TrainingCheckpointer(
                checkpoint_dir,
                training_fingerprint(config, train_data, instruction_pairs),
                seed=config.seed,
            )
            latest = checkpointer.latest_stage()
            if latest is not None:
                restored = checkpointer.load_stage(latest, self.model, report)
                if restored is not None:
                    descriptions = restored
                completed = latest

        samples = list(train_data)
        labels = np.array([s.label for s in samples], dtype=np.float64)
        videos = [s.video for s in samples]

        def save(stage_index: int) -> None:
            if checkpointer is not None:
                checkpointer.save_stage(stage_index, self.model, report,
                                        descriptions)

        # Stage 1: learn to describe facial actions (Eq. 2).
        if completed < 0 and config.use_chain and config.learn_describe:
            report.describe_curve = train_describe(
                self.model, instruction_pairs, epochs=config.describe_epochs
            )
            save(0)

        # Stage 2: initial descriptions + bootstrap assessment head.
        if completed < 1:
            descriptions = self._initial_descriptions(samples)
            report.assess_curve_bootstrap = train_assess(
                self.model, videos, descriptions, labels,
                epochs=config.assess_epochs,
            )
            save(1)

        # Stages 3-4: description refinement + DPO + assess re-train.
        if config.use_chain and config.use_refinement:
            if completed < 2:
                with span("train.description_refinement") as sp:
                    descriptions, pairs, rounds = self._refine_descriptions(
                        samples, descriptions, train_data
                    )
                    report.num_description_pairs = len(pairs)
                    report.num_reflection_rounds = rounds
                    sp.set("accepted_pairs", len(pairs))
                    sp.set("reflection_rounds", rounds)
                    if pairs:
                        dpo = DPOTrainer(self.model, beta=config.beta,
                                         lr=config.dpo_desc_lr)
                        report.dpo_description_curve = dpo.train_descriptions(
                            pairs, epochs=config.dpo_desc_epochs
                        )
                metrics = global_metrics()
                metrics.counter("training.description_pairs").inc(len(pairs))
                metrics.counter("training.reflection_rounds").inc(rounds)
                save(2)
            if completed < 3:
                # The re-train condition survives a resume through the
                # report: num_description_pairs is exactly len(pairs).
                if report.num_description_pairs:
                    # The assess re-train emits its own
                    # train.assess_tuning span, so it stays outside the
                    # refinement span.
                    report.assess_curve_final = train_assess(
                        self.model, videos, descriptions, labels,
                        epochs=config.assess_epochs,
                    )
                save(3)

        # Stage 5: rationale refinement + DPO.
        if config.use_refinement and completed < 4:
            with span("train.rationale_refinement") as sp:
                rationale_pairs = self._refine_rationales(samples,
                                                          descriptions)
                report.num_rationale_pairs = len(rationale_pairs)
                sp.set("pairs", len(rationale_pairs))
                if rationale_pairs:
                    dpo = DPOTrainer(self.model, beta=config.beta,
                                     lr=config.dpo_rationale_lr)
                    report.dpo_rationale_curve = dpo.train_rationales(
                        rationale_pairs, epochs=config.dpo_rationale_epochs
                    )
            global_metrics().counter("training.rationale_pairs").inc(
                len(rationale_pairs))
            save(4)
        return report

    # ------------------------------------------------------------------
    # Stage helpers
    # ------------------------------------------------------------------

    def _initial_descriptions(
        self, samples: list[Sample]
    ) -> list[FacialDescription | None]:
        """Sampled E_o per sample; ``None`` for the w/o-Chain variant."""
        if not self.config.use_chain:
            return [None] * len(samples)
        descriptions = []
        for sample in samples:
            config = GenerationConfig(
                temperature=1.0,
                seed=derive_seed(self.config.seed,
                                 f"describe:{sample.sample_id}"),
            )
            descriptions.append(self.model.describe(sample.video, config))
        return descriptions

    def _refine_limit(self, total: int) -> int:
        limit = self.config.refine_sample_limit
        return total if limit is None else min(limit, total)

    def _refine_descriptions(
        self,
        samples: list[Sample],
        descriptions: list[FacialDescription | None],
        train_data: StressDataset,
    ) -> tuple[list[FacialDescription | None],
               list[DescriptionPreference], int]:
        """The do-while reflection loop of Algorithm 1 (lines 4-9).

        The loop is inference only (the DPO update on its pairs runs
        after it returns), so one :class:`VerificationPool` serves the
        whole pass and every pool video's AU logits are computed once.
        """
        config = self.config
        pool = VerificationPool(self.model, [s.video for s in train_data])
        refined = list(descriptions)
        pairs: list[DescriptionPreference] = []
        total_rounds = 0
        accepted = rejected_helpfulness = rejected_verification = 0
        limit = self._refine_limit(len(samples))
        for index in range(limit):
            sample = samples[index]
            original = refined[index]
            if original is None:
                continue
            current = original
            score_seed = derive_seed(config.seed, f"score:{sample.sample_id}")
            current_h = helpfulness_score(
                self.model, sample.video, current, sample.label,
                num_trials=config.num_trials, seed=score_seed,
            )
            current_f = verification_score(
                self.model, sample.video, current, pool,
                num_trials=config.num_trials, seed=score_seed,
            )
            for round_index in range(config.max_reflection_rounds):
                total_rounds += 1
                candidate = propose_description(
                    self.model, sample.video, current, round_index,
                    config.seed, true_label=sample.label,
                    use_reflection=config.use_reflection,
                )
                if candidate == current:
                    break
                cand_seed = derive_seed(
                    score_seed, f"cand:{round_index}"
                )
                cand_h = helpfulness_score(
                    self.model, sample.video, candidate, sample.label,
                    num_trials=config.num_trials, seed=cand_seed,
                )
                cand_f = verification_score(
                    self.model, sample.video, candidate, pool,
                    num_trials=config.num_trials, seed=cand_seed,
                )
                if cand_h >= current_h and cand_f >= current_f:
                    accepted += 1
                    current, current_h, current_f = candidate, cand_h, cand_f
                else:
                    # A candidate may fail either gate (or both); the
                    # split tells an operator *which* signal is doing
                    # the rejecting on this dataset.
                    if cand_h < current_h:
                        rejected_helpfulness += 1
                    if cand_f < current_f:
                        rejected_verification += 1
                    break
            if current != original:
                refined[index] = current
                pairs.append(DescriptionPreference(
                    video=sample.video, winner=current, loser=original,
                ))
        metrics = global_metrics()
        metrics.counter("training.refine_accepted").inc(accepted)
        metrics.counter(
            "training.refine_rejected_helpfulness").inc(rejected_helpfulness)
        metrics.counter(
            "training.refine_rejected_verification").inc(rejected_verification)
        profiling.count("refine.accepted", accepted)
        profiling.count("refine.rejected_helpfulness", rejected_helpfulness)
        profiling.count("refine.rejected_verification", rejected_verification)
        return refined, pairs, total_rounds

    def _refine_rationales(
        self,
        samples: list[Sample],
        descriptions: list[FacialDescription | None],
    ) -> list[RationalePreference]:
        """Best/worst rationale selection (Algorithm 1 lines 11-14).

        The pass is inference only (the DPO update on its pairs runs
        after it returns), and every candidate's seed derives from its
        sample, so it runs in phases without changing a result: each
        sample's description, assessment and unique candidates; then
        the SLIC maps the flip counts will read, on forked workers
        (:func:`_prefetch_segmentations`); then the flip counts,
        serially in sample order.
        """
        config = self.config
        to_rank = []
        limit = self._refine_limit(len(samples))
        for index in range(limit):
            sample = samples[index]
            description = descriptions[index]
            if description is None:
                # w/o Chain still highlights: it reads its own greedy AU
                # estimate off the video at rationale time.
                description = self.model.describe(sample.video, GREEDY)
            if not description.au_ids:
                continue
            assessment, __ = self.model.assess(sample.video, description)
            base_config = GenerationConfig(
                temperature=1.0,
                seed=derive_seed(config.seed,
                                 f"rationale:{sample.sample_id}"),
            )
            base = self.model.highlight(sample.video, description,
                                        assessment, base_config)
            candidates = [base] + propose_rationales(
                self.model, sample.video, description, assessment,
                config.num_rationale_candidates, config.seed,
                use_reflection=config.use_reflection,
            )
            unique = list(dict.fromkeys(candidates))
            if len(unique) >= 2:
                to_rank.append((sample.video, description, assessment,
                               unique))

        _prefetch_segmentations([video for video, *__ in to_rank])
        pairs: list[RationalePreference] = []
        for video, description, assessment, unique in to_rank:
            flips = [
                rationale_flip_count(self.model, video, description,
                                     rationale)
                for rationale in unique
            ]
            best = unique[int(np.argmin(flips))]
            worst = unique[int(np.argmax(flips))]
            if best != worst and min(flips) < max(flips):
                pairs.append(RationalePreference(
                    video=video, description=description,
                    assessment=assessment, winner=best, loser=worst,
                ))
        return pairs


def _prefetch_segmentations(videos: list[Video],
                            num_segments: int = FLIP_COUNT_SEGMENTS) -> int:
    """Segment each distinct clip among ``videos`` whose map is not
    cached yet on forked workers, and install the maps in the callers'
    :class:`Video` objects; returns the number of maps computed.

    A child computes ``Video.segmentation``, a pure function of the
    clip's pixels, and equal content hashes imply equal pixels: an
    installed map is bitwise the one the flip count would compute.
    The parent installs it without calling ``Video.segmentation``, so
    its only calls stay the flip counts', each now a cache hit.

    Computes nothing, and never forks, when ``REPRO_NUM_WORKERS`` is 1,
    when the platform has no ``os.fork``, when another thread is alive
    (forking a multi-threaded process can deadlock the child), or when
    fewer than two maps are missing: each map is then segmented
    serially, on first use.
    """
    # Imported here: repro.evaluation's package init imports the chain
    # pipeline, which imports this package.
    from repro.evaluation.parallel import parallel_map, resolve_num_workers

    workers = resolve_num_workers()
    if (workers < 2 or not hasattr(os, "fork")
            or threading.active_count() > 1):
        return 0
    pending: dict[str, list[Video]] = {}
    for video in videos:
        if not video.has_segmentation(num_segments):
            pending.setdefault(video.content_hash, []).append(video)
    clips = list(pending.values())
    if len(clips) < 2:  # one map gains nothing from a worker
        return 0
    maps = parallel_map(lambda same: same[0].segmentation(num_segments),
                        clips, num_workers=workers)
    for same, labels in zip(clips, maps):
        for video in same:
            video.install_segmentation(labels, num_segments)
    return len(clips)
