"""Flip-count faithfulness of rationales (Section III-D).

"we remove the facial part reported by the rationale one by one until
the model decision is flipped.  The least inputs removed that can flip
the model decision is recorded as faithfulness score f.  The lower f
is, the more faithful rationale R is."

Removing a "facial part" means destroying the visual evidence of the
highlighted action unit in the most-expressive keyframe: the segment
the action grounds to (through the model's own sensitivity map) is
overwritten, cumulatively, and the *full chain* is re-queried after
every removal -- the model re-reads the perturbed frame, so a removed
action also disappears from the description it assesses with, exactly
as in the paper's mosaic test.
"""

from __future__ import annotations

from repro.facs.descriptions import FacialDescription
from repro.model.foundation import FoundationModel
from repro.video.frame import Video

#: SLIC superpixels per keyframe in the flip-count protocol (§IV-H).
FLIP_COUNT_SEGMENTS: int = 64


def rationale_flip_count(
    model: FoundationModel,
    video: Video,
    description: FacialDescription,
    rationale: tuple[int, ...],
    num_segments: int = FLIP_COUNT_SEGMENTS,
    fill: float = 0.5,
) -> int:
    """Number of highlighted facial parts that must be removed (in
    rationale order) before the chain's assessment flips.

    Returns a value in ``[1, len(rationale)]``, or
    ``len(rationale) + 1`` when removing every highlighted part leaves
    the decision unchanged (a maximally unfaithful rationale).  An
    empty rationale scores ``1`` by convention (nothing claimed,
    nothing to falsify).
    """
    if not rationale:
        return 1
    from repro.cot.rationale import Rationale

    expressive, neutral = video.keyframes
    labels = video.segmentation(num_segments)
    base_label = model.chain_prob_from_frames(expressive, neutral) > 0.5
    frame = expressive.copy()
    for count, au_id in enumerate(rationale, start=1):
        segments = Rationale((au_id,)).model_segment_ranking(
            model, labels, per_au=1
        )
        frame[labels == segments[0]] = fill
        prob = model.chain_prob_from_frames(frame, neutral)
        if (prob > 0.5) != base_label:
            return count
    return len(rationale) + 1
