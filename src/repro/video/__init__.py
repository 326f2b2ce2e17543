"""Synthetic face-video substrate.

The paper's pipeline consumes real face video; this package supplies
the closest synthetic equivalent (see DESIGN.md section 2): a
parametric face renderer whose frames carry spatially-localised
action-unit evidence, plus everything the evaluation protocol needs on
top of raw frames -- most/least-expressive keyframe extraction, SLIC
superpixel segmentation, region/segment perturbation, and a landmark
model for grounding highlighted facial actions to segments.
"""

from repro.video.face_synth import FaceRenderer, default_renderer
from repro.video.frame import Video, VideoSpec
from repro.video.keyframes import expressiveness, extract_keyframes
from repro.video.landmarks import segments_for_au
from repro.video.perturb import (
    gaussian_perturb_segments,
    mosaic_region,
    zero_segments,
)
from repro.video.segmentation import slic_segments

__all__ = [
    "FaceRenderer",
    "Video",
    "VideoSpec",
    "default_renderer",
    "expressiveness",
    "extract_keyframes",
    "gaussian_perturb_segments",
    "mosaic_region",
    "segments_for_au",
    "slic_segments",
    "zero_segments",
]
