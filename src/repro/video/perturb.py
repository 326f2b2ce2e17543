"""Frame perturbation primitives.

Two protocols in the paper remove visual evidence from a frame:

- the *deletion metric* (Section IV-H) places Gaussian noise on the
  top-scoring SLIC segments named by an explainer
  (:func:`gaussian_perturb_segments`);
- the *rationale self-verification* (Section III-D) places a mosaic on
  the facial region named by a highlighted description
  (:func:`mosaic_region`).

All functions return new arrays; inputs are never modified.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from repro.errors import ExplainerError
from repro.facs.regions import FacialRegion


def _validate_frame(frame: np.ndarray) -> np.ndarray:
    frame = np.asarray(frame, dtype=np.float64)
    if frame.ndim != 2:
        raise ExplainerError(f"expected a 2-D frame, got shape {frame.shape}")
    return frame


def gaussian_perturb_segments(
    frame: np.ndarray,
    labels: np.ndarray,
    segment_ids: Iterable[int],
    rng: np.random.Generator,
    noise_scale: float = 0.35,
    mode: str = "replace",
) -> np.ndarray:
    """Place Gaussian noise on the pixels of the given SLIC segments.

    Parameters
    ----------
    frame:
        ``(H, W)`` image in ``[0, 1]``.
    labels:
        SLIC label map from :func:`repro.video.segmentation.slic_segments`.
    segment_ids:
        Segment labels to disturb.
    rng:
        Noise source (callers pass a scoped generator so evaluation is
        reproducible).
    noise_scale:
        Noise standard deviation.
    mode:
        ``"replace"`` (default) overwrites the segment with mid-gray
        plus noise -- the *deletion* semantics of the Table II
        protocol, where disturbing a segment destroys its information.
        ``"additive"`` adds noise on top of the original pixels.
    """
    frame = _validate_frame(frame)
    if labels.shape != frame.shape:
        raise ExplainerError("labels must have the same shape as the frame")
    if mode not in ("replace", "additive"):
        raise ExplainerError(f"unknown perturbation mode {mode!r}")
    mask = np.isin(labels, np.fromiter(segment_ids, dtype=np.int64))
    perturbed = frame.copy()
    noise = rng.normal(0.0, noise_scale, int(mask.sum()))
    if mode == "replace":
        perturbed[mask] = 0.5 + noise
    else:
        perturbed[mask] += noise
    return np.clip(perturbed, 0.0, 1.0)


def zero_segments(frame: np.ndarray, labels: np.ndarray,
                  segment_ids: Iterable[int], fill: float = 0.5) -> np.ndarray:
    """Replace the given segments with a flat ``fill`` value.

    Used by the mask-based explainers (LIME / SHAP / SOBOL), which
    evaluate the model on frames with feature subsets switched off.
    """
    frame = _validate_frame(frame)
    if labels.shape != frame.shape:
        raise ExplainerError("labels must have the same shape as the frame")
    mask = np.isin(labels, np.fromiter(segment_ids, dtype=np.int64))
    blanked = frame.copy()
    blanked[mask] = fill
    return blanked


def apply_mask(frame: np.ndarray, labels: np.ndarray, keep: np.ndarray,
               fill: float = 0.5) -> np.ndarray:
    """Blank every segment whose entry in ``keep`` is falsy.

    ``keep`` is a per-segment boolean/0-1 vector, the natural encoding
    for perturbation-based explainers.
    """
    frame = _validate_frame(frame)
    keep = np.asarray(keep)
    num_labels = int(labels.max()) + 1
    if keep.shape != (num_labels,):
        raise ExplainerError(
            f"keep must have one entry per segment ({num_labels}), "
            f"got shape {keep.shape}"
        )
    dropped = np.where(keep <= 0.5)[0]
    if dropped.size == 0:
        return frame.copy()
    return zero_segments(frame, labels, dropped, fill=fill)


def apply_masks_batch(frame: np.ndarray, labels: np.ndarray,
                      keeps: np.ndarray, fill: float = 0.5) -> np.ndarray:
    """Vectorized :func:`apply_mask` over a ``(N, S)`` keep matrix.

    Returns a ``(N, H, W)`` stack where row ``i`` equals
    ``apply_mask(frame, labels, keeps[i], fill)``.  Building the whole
    perturbation batch in one broadcast is what lets the explainers
    submit their masks to the model in a single batched call.
    """
    frame = _validate_frame(frame)
    keeps = np.atleast_2d(np.asarray(keeps))
    num_labels = int(labels.max()) + 1
    if keeps.shape[1] != num_labels:
        raise ExplainerError(
            f"keeps must have one column per segment ({num_labels}), "
            f"got shape {keeps.shape}"
        )
    kept = keeps[:, labels] > 0.5          # (N, H, W) per-pixel keep map
    return np.where(kept, frame[np.newaxis, :, :], fill)


def mosaic_region(frame: np.ndarray, region: FacialRegion,
                  block_size: int = 8) -> np.ndarray:
    """Pixelate (mosaic) a facial region, as in the paper's Figure 5
    self-verification: "place mosaic on the exact region of each
    frame"."""
    frame = _validate_frame(frame)
    if block_size < 1:
        raise ExplainerError("block_size must be positive")
    mask = region.mask(frame.shape[0])
    mosaicked = frame.copy()
    rows, cols = np.where(mask)
    r0, r1 = rows.min(), rows.max() + 1
    c0, c1 = cols.min(), cols.max() + 1
    for br in range(r0, r1, block_size):
        for bc in range(c0, c1, block_size):
            block = mosaicked[br:min(br + block_size, r1),
                              bc:min(bc + block_size, c1)]
            block[...] = block.mean()
    return mosaicked
