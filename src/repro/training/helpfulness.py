"""Helpfulness scoring of facial descriptions (Section III-C).

"helpfulness evaluates whether model F can accurately predict the
stress level A with E ... We prompt the model to answer I2 based on E
[...] K times with different random seeds, and obtain accuracy scores
h and h'."
"""

from __future__ import annotations

from repro.facs.descriptions import FacialDescription
from repro.model.foundation import FoundationModel
from repro.model.generation import GenerationConfig, sample_bernoulli
from repro.rng import derive_seed
from repro.video.frame import Video

#: Sampling temperature of the repeated assessments; positive so the K
#: draws genuinely differ, moderate so the score reflects confidence.
ASSESS_TEMPERATURE: float = 0.7


def helpfulness_score(
    model: FoundationModel,
    video: Video,
    description: FacialDescription,
    true_label: int,
    num_trials: int = 5,
    seed: int = 0,
) -> float:
    """Fraction of K tempered assessments that hit the true label.

    The K assessments differ only in their seed, so they share one
    stress logit: it is computed once and the K labels are drawn from
    it, exactly as K :meth:`FoundationModel.assess` calls would draw
    them.
    """
    if num_trials < 1:
        raise ValueError("num_trials must be positive")
    logit = model.assess_logit(video, description)
    hits = 0
    for trial in range(num_trials):
        config = GenerationConfig(
            temperature=ASSESS_TEMPERATURE,
            seed=derive_seed(seed, f"helpfulness:{video.video_id}:{trial}"),
        )
        hits += int(sample_bernoulli(logit, config) == true_label)
    return hits / num_trials
