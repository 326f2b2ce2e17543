"""Parametric synthetic face renderer.

The renderer turns a :class:`~repro.video.frame.VideoSpec` plus a frame
index into a ``(H, W)`` grayscale image.  Its one essential property
(DESIGN.md section 2) is that *action-unit evidence is spatially
localised*: each AU contributes a fixed smooth deformation pattern
confined to that AU's facial region, scaled by the per-frame intensity
and the subject's expressivity.  Masking a region therefore genuinely
removes the corresponding AU's evidence, which is what makes the
deletion-metric faithfulness protocol (paper Table II) and the
rationale mosaic test (Section III-D) behave as they do on real video.

The "physics" of the synthetic world -- the base face, identity bases
and AU deformation patterns -- are generated once from a fixed world
seed that is deliberately *not* configurable: every dataset and model
in the library shares the same visual world.

The world's smoothing is :func:`_gaussian_filter`, a NumPy copy of
``scipy.ndimage.gaussian_filter`` that reproduces it bit for bit: the
world, and so every rendered frame, every cache key's pixels and every
pinned result, stays what it was when SciPy built it, while rendering
no longer needs SciPy loaded.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.facs.action_units import AU_IDS, NUM_AUS
from repro.facs.regions import FRAME_SIZE, REGIONS, region_for_au
from repro.rng import make_rng
from repro.video.frame import IDENTITY_DIM, VideoSpec

#: Seed of the shared visual world (base face, AU patterns).
_WORLD_SEED: int = 727

#: Peak contribution of a fully-active AU, in intensity units.
_AU_GAIN: float = 0.38

#: Peak contribution of the identity embedding.
_IDENTITY_GAIN: float = 0.06


def _gaussian_filter(image: np.ndarray, sigma: float) -> np.ndarray:
    """``scipy.ndimage.gaussian_filter(image, sigma)`` of a 2-D float64
    image, bit for bit.

    SciPy's defaults are mirrored exactly: radius ``int(4 * sigma +
    0.5)``, weights ``exp(-x**2 / (2 sigma**2))`` over their sum,
    ``reflect`` edges (NumPy's ``symmetric`` pad), axis 0 then axis 1.
    So is its accumulation order for a symmetric kernel: the centre tap
    first, then ``(left + right) * weight`` from the farthest pair to
    the nearest.  Any other order rounds differently.
    """
    radius = int(4.0 * sigma + 0.5)
    taps = np.arange(-radius, radius + 1)
    weights = np.exp(-0.5 / (sigma * sigma) * taps**2)
    weights = weights / weights.sum()
    out = image
    for __ in range(2):  # filter axis 0, then (transposed) axis 1
        length = out.shape[0]
        padded = np.pad(out, ((radius, radius), (0, 0)), mode="symmetric")
        acc = padded[radius:radius + length] * weights[radius]
        for j in range(radius, 0, -1):
            acc += (padded[radius - j:radius - j + length]
                    + padded[radius + j:radius + j + length]) * weights[radius - j]
        out = acc.T
    # C order: a reduction over the result (its mean) sums in memory
    # order, as it does over SciPy's output.
    return np.ascontiguousarray(out)


def _smooth_pattern(rng: np.random.Generator, shape: tuple[int, int],
                    sigma: float) -> np.ndarray:
    """A zero-mean, unit-peak smooth random pattern."""
    raw = rng.standard_normal(shape)
    smooth = _gaussian_filter(raw, sigma)
    smooth -= smooth.mean()
    peak = np.abs(smooth).max()
    if peak > 0:
        smooth /= peak
    return smooth


def _base_face(size: int) -> np.ndarray:
    """Canonical neutral face: an elliptical face blob with darker
    eye/brow/mouth zones, on a mid-gray background."""
    rows, cols = np.mgrid[0:size, 0:size].astype(np.float64)
    center_r, center_c = size * 0.52, size * 0.5
    face = ((rows - center_r) / (size * 0.46)) ** 2 + (
        (cols - center_c) / (size * 0.38)
    ) ** 2
    image = np.full((size, size), 0.25)
    image[face <= 1.0] = 0.75
    scale = size / FRAME_SIZE
    for key in ("eyebrow", "lid", "lips"):
        region = REGIONS[key]
        mask = region.mask(size)
        image[mask] -= 0.18
    # Slight nose shading.
    image[REGIONS["nose"].mask(size)] -= 0.08
    return _gaussian_filter(image, 1.2 * scale)


class FaceRenderer:
    """Renders video specs into grayscale frames.

    Parameters
    ----------
    frame_size:
        Side length of rendered frames (the paper resizes to 96).
    """

    def __init__(self, frame_size: int = FRAME_SIZE):
        if frame_size < 16:
            raise ValueError("frame_size must be at least 16 pixels")
        self.frame_size = frame_size
        world = make_rng(_WORLD_SEED, f"face-world-{frame_size}")
        self._base = _base_face(frame_size)
        sigma = 2.0 * frame_size / FRAME_SIZE
        # Identity bases: smooth whole-face appearance modes.
        self._identity_basis = np.stack([
            _smooth_pattern(world, (frame_size, frame_size), sigma * 2.5)
            for _ in range(IDENTITY_DIM)
        ])
        # AU deformation patterns: a smooth pattern concentrated in a
        # compact blob around the AU's landmark point inside its
        # region.  Compactness matters: on a real face each action
        # unit manifests at a localised landmark (inner brow, lip
        # corner, ...), which is what lets the paper ground one
        # highlighted action to one SLIC segment.
        self._au_patterns = np.zeros((NUM_AUS, frame_size, frame_size))
        self._au_anchors: dict[int, tuple[int, int]] = {}
        rows, cols = np.mgrid[0:frame_size, 0:frame_size].astype(np.float64)
        blob_sigma = 5.0 * frame_size / FRAME_SIZE
        for i, au_id in enumerate(AU_IDS):
            region = region_for_au(au_id)
            mask = region.mask(frame_size)
            scale_f = frame_size / FRAME_SIZE
            margin = 4 * scale_f
            anchor_r = world.uniform(region.row_start * scale_f + margin,
                                     region.row_stop * scale_f - margin)
            anchor_c = world.uniform(region.col_start * scale_f + margin,
                                     region.col_stop * scale_f - margin)
            self._au_anchors[au_id] = (int(anchor_r), int(anchor_c))
            window = np.exp(
                -((rows - anchor_r) ** 2 + (cols - anchor_c) ** 2)
                / (2.0 * blob_sigma**2)
            )
            pattern = _smooth_pattern(world, (frame_size, frame_size), sigma)
            pattern = pattern * window * mask
            peak = np.abs(pattern).max()
            if peak > 0:
                pattern /= peak
            self._au_patterns[i] = pattern

    # -- public API ----------------------------------------------------

    def render(self, spec: VideoSpec, frame_index: int) -> np.ndarray:
        """Render frame ``frame_index`` of ``spec`` as ``(H, W)`` float64
        in ``[0, 1]``."""
        if not 0 <= frame_index < spec.num_frames:
            raise IndexError(
                f"frame index {frame_index} out of range [0, {spec.num_frames})"
            )
        frame = self._base.copy()
        # Identity appearance.
        frame += _IDENTITY_GAIN * np.tensordot(
            spec.identity, self._identity_basis, axes=1
        )
        # Action-unit deformations.
        intensities = spec.au_intensities[frame_index]
        frame += _AU_GAIN * np.tensordot(intensities, self._au_patterns, axes=1)
        # Lighting gradient (left-to-right).
        if spec.lighting:
            gradient = np.linspace(-0.5, 0.5, self.frame_size)
            frame += spec.lighting * gradient[np.newaxis, :]
        # Per-frame capture noise and occlusion, seeded by the spec.
        rng = make_rng(spec.seed, f"render:{spec.video_id}:{frame_index}")
        if spec.noise_scale > 0:
            frame += rng.normal(0.0, spec.noise_scale, frame.shape)
        if spec.occlusion_rate > 0 and rng.random() < spec.occlusion_rate:
            frame = self._occlude(frame, rng)
        return np.clip(frame, 0.0, 1.0)

    def au_pattern(self, au_id: int) -> np.ndarray:
        """The (read-only) deformation pattern of ``au_id``."""
        pattern = self._au_patterns[AU_IDS.index(au_id)]
        view = pattern.view()
        view.flags.writeable = False
        return view

    # -- internals -----------------------------------------------------

    def _occlude(self, frame: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Overlay a flat occluder patch (hand, microphone, caption bar)."""
        size = self.frame_size
        height = int(rng.integers(size // 8, size // 4))
        width = int(rng.integers(size // 6, size // 3))
        row = int(rng.integers(0, size - height))
        col = int(rng.integers(0, size - width))
        occluded = frame.copy()
        occluded[row:row + height, col:col + width] = 0.5
        return occluded


@lru_cache(maxsize=4)
def _shared_renderer(frame_size: int) -> FaceRenderer:
    return FaceRenderer(frame_size)


def default_renderer(frame_size: int = FRAME_SIZE) -> FaceRenderer:
    """The process-wide shared renderer for ``frame_size``.

    Sharing matters: AU patterns are the world's physics, and building
    them is the only expensive part of rendering.
    """
    return _shared_renderer(frame_size)
