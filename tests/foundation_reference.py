"""Reference Describe and Assess forwards on an explicit keyframe pair.

:meth:`repro.model.foundation.FoundationModel.chain_prob_from_frames`
runs Describe and Assess over one shared feature extraction and trunk
pass.  The two functions below run each step on its own, from the
frames, the way the model computed them before the steps were fused.
They are kept only as test oracles: the fused frames path must equal
them bitwise, and on a clip's own keyframes they must equal the video
path (``au_logits`` / ``assess_logit``).
"""

from __future__ import annotations

import numpy as np

from repro.facs.action_units import NUM_AUS
from repro.facs.descriptions import FacialDescription


def _embed(model, expressive: np.ndarray, neutral: np.ndarray) -> np.ndarray:
    features = model.frame_pair_features(expressive, neutral)
    return model.trunk.forward(features[np.newaxis, :])


def au_logits_from_frames(model, expressive: np.ndarray,
                          neutral: np.ndarray) -> np.ndarray:
    """Per-AU logits computed on an explicit keyframe pair, shape (12,)."""
    return model.au_head.forward(_embed(model, expressive, neutral))[0]


def assess_logit_from_frames(model, expressive: np.ndarray,
                             neutral: np.ndarray,
                             description: FacialDescription | None) -> float:
    """Stress logit on an explicit keyframe pair; ``description=None``
    is the direct query."""
    embed = _embed(model, expressive, neutral)
    desc_vec = (description.to_vector() if description is not None
                else np.zeros(NUM_AUS))
    assess_input = np.concatenate([embed[0], desc_vec])[np.newaxis, :]
    return float(model.assess_head.forward(assess_input)[0, 0])
