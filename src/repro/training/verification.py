"""Self-verification of facial descriptions (Section III-C, Figure 4).

"we also randomly select 3 video samples from other subjects as
negative samples, and prompt the model to select the correct sample
that E describes out of the 4 videos ... the self-verification is
started in another dialogue session."
"""

from __future__ import annotations

import numpy as np

from repro.errors import TrainingError
from repro.facs.descriptions import FacialDescription
from repro.model.foundation import FoundationModel
from repro.model.generation import GenerationConfig
from repro.model.session import DialogueSession
from repro.rng import derive_seed, make_rng
from repro.video.frame import Video

#: Temperature of the verification choice; positive so K repetitions
#: measure confidence rather than a single argmax.
VERIFY_TEMPERATURE: float = 1.0


class VerificationPool:
    """The verification pool of one pass under fixed weights.

    Every trial of every candidate description draws its negatives
    from the query video's other-subject pool videos and scores each
    shown video by its AU logits.  Within one pass of Algorithm 1's
    description-refinement loop (inference only: its DPO update runs
    after the loop) the weights do not move, so this object builds
    each query video's other-subject list once and computes each pool
    video's logits once, through :meth:`FoundationModel.au_logits`.

    The caller owns the pool and drops it when the pass ends.  It is
    never a model attribute: concurrent servers share one model, so a
    model-level memo would outlive the weights it was computed under
    and be visible across requests.  Logits are keyed on
    :attr:`Video.content_hash`, which digests every spec field, ids
    included, so the reuse is exact for every model.
    """

    def __init__(self, model: FoundationModel, videos: list[Video]):
        self.model = model
        self.videos = list(videos)
        self._others: dict[tuple[str, str], list[Video]] = {}
        self._logits: dict[str, np.ndarray] = {}

    def others(self, video: Video) -> list[Video]:
        """Pool videos of subjects other than ``video``'s."""
        # The filter reads exactly these two fields of the query.
        key = (video.subject_id, video.video_id)
        others = self._others.get(key)
        if others is None:
            others = self._others[key] = _other_subject_videos(
                self.videos, video)
        return others

    def au_logits(self, video: Video) -> np.ndarray:
        """``model.au_logits(video)``, computed once per distinct clip."""
        logits = self._logits.get(video.content_hash)
        if logits is None:
            logits = self._logits[video.content_hash] = (
                self.model.au_logits(video))
        return logits


def verification_score(
    model: FoundationModel,
    video: Video,
    description: FacialDescription,
    pool: list[Video] | VerificationPool,
    num_trials: int = 5,
    num_negatives: int = 3,
    seed: int = 0,
) -> float:
    """Fraction of K multiple-choice trials where the model picks the
    described video out of ``1 + num_negatives`` candidates.

    Negatives are drawn (per trial) from pool videos of *other*
    subjects; every trial runs in a fresh dialogue session.  A
    :class:`VerificationPool` for ``model`` lets repeated calls within
    one pass share the pool's logits; a plain list of videos computes
    every shown video's logits afresh.
    """
    if num_trials < 1:
        raise ValueError("num_trials must be positive")
    if isinstance(pool, VerificationPool):
        if pool.model is not model:
            raise TrainingError("the verification pool belongs to another model")
        candidates_pool = pool.others(video)
        logits_of = pool.au_logits
    else:
        candidates_pool = _other_subject_videos(pool, video)
        logits_of = model.au_logits
    if len(candidates_pool) < num_negatives:
        raise TrainingError(
            f"need at least {num_negatives} other-subject videos for "
            f"verification, got {len(candidates_pool)}"
        )
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
        session = DialogueSession()
        choice = model.verify(
            description, shuffled,
            GenerationConfig(temperature=VERIFY_TEMPERATURE, seed=trial_seed),
            session,
            au_logits=[logits_of(candidate) for candidate in shuffled],
        )
        hits += int(choice == target)
    return hits / num_trials


def _other_subject_videos(pool: list[Video], video: Video) -> list[Video]:
    return [
        v for v in pool
        if v.subject_id != video.subject_id and v.video_id != video.video_id
    ]
