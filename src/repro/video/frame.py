"""Video value types.

A :class:`VideoSpec` is the *latent* description of a synthetic clip --
per-frame action-unit intensities, subject identity, capture-noise
parameters -- and a :class:`Video` couples a spec with a renderer so
frames are produced lazily.  Datasets store specs (cheap) and render
pixels only when a consumer needs them, which keeps the full
2092-sample UVSD corpus in memory at trivial cost while every consumer
still works on genuine pixel arrays.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.facs.action_units import NUM_AUS

#: Dimensionality of the identity embedding used by the renderer.
IDENTITY_DIM: int = 8

#: Default number of frames per synthetic clip.
DEFAULT_NUM_FRAMES: int = 12


@dataclass(frozen=True)
class VideoSpec:
    """Latent description of one synthetic face clip.

    Attributes
    ----------
    video_id:
        Unique id within its dataset, e.g. ``"uvsd-0042"``.
    subject_id:
        Id of the recorded subject (used for subject-aware splits).
    au_intensities:
        ``(num_frames, 12)`` array of per-frame AU intensities in
        ``[0, 1]``.
    identity:
        ``(IDENTITY_DIM,)`` identity embedding controlling the base
        face appearance.
    lighting:
        Strength of the lighting gradient across the face.
    noise_scale:
        Standard deviation of additive sensor noise.
    occlusion_rate:
        Probability that a frame carries a partial occlusion patch
        (non-zero for the in-the-wild RSL dataset).
    seed:
        Render seed; together with the spec it fully determines every
        pixel.
    """

    video_id: str
    subject_id: str
    au_intensities: np.ndarray
    identity: np.ndarray
    lighting: float = 0.0
    noise_scale: float = 0.02
    occlusion_rate: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        au = np.asarray(self.au_intensities, dtype=np.float64)
        if au.ndim != 2 or au.shape[1] != NUM_AUS:
            raise ValueError(
                f"au_intensities must be (num_frames, {NUM_AUS}), got {au.shape}"
            )
        if not np.isfinite(au).all():
            raise ValueError("au_intensities must be finite")
        if np.any(au < 0.0) or np.any(au > 1.0):
            raise ValueError("au_intensities must lie in [0, 1]")
        identity = np.asarray(self.identity, dtype=np.float64)
        if identity.shape != (IDENTITY_DIM,):
            raise ValueError(
                f"identity must be ({IDENTITY_DIM},), got {identity.shape}"
            )
        if self.noise_scale < 0.0:
            raise ValueError("noise_scale must be non-negative")
        if not 0.0 <= self.occlusion_rate <= 1.0:
            raise ValueError("occlusion_rate must lie in [0, 1]")
        object.__setattr__(self, "au_intensities", au)
        object.__setattr__(self, "identity", identity)

    @property
    def num_frames(self) -> int:
        return self.au_intensities.shape[0]


class Video:
    """A lazily-rendered synthetic face clip.

    Frames are rendered on first access and cached; rendering is fully
    deterministic given the spec (including its seed).
    """

    def __init__(self, spec: VideoSpec, renderer: "FaceRenderer | None" = None):
        from repro.video.face_synth import default_renderer

        self.spec = spec
        self._renderer = renderer if renderer is not None else default_renderer()
        self._frame_cache: dict[int, np.ndarray] = {}
        self._slic_cache: dict[int, np.ndarray] = {}

    # -- identity ------------------------------------------------------

    @property
    def video_id(self) -> str:
        return self.spec.video_id

    @property
    def subject_id(self) -> str:
        return self.spec.subject_id

    @property
    def num_frames(self) -> int:
        return self.spec.num_frames

    @property
    def frame_size(self) -> int:
        return self._renderer.frame_size

    @cached_property
    def content_hash(self) -> str:
        """:func:`video_content_hash` of this clip, computed once."""
        return video_content_hash(self)

    # -- rendering -----------------------------------------------------

    def frame(self, index: int) -> np.ndarray:
        """Render (and cache) frame ``index`` as ``(H, W)`` float64."""
        if not 0 <= index < self.num_frames:
            raise IndexError(
                f"frame index {index} out of range [0, {self.num_frames})"
            )
        cached = self._frame_cache.get(index)
        if cached is None:
            cached = self._renderer.render(self.spec, index)
            self._frame_cache[index] = cached
        return cached

    def frames(self) -> np.ndarray:
        """Render all frames as ``(T, H, W)``."""
        return np.stack([self.frame(t) for t in range(self.num_frames)])

    @cached_property
    def keyframes(self) -> tuple[np.ndarray, np.ndarray]:
        """The (most-expressive, least-expressive) frame pair.

        The paper feeds only this pair to the model ("we extract the
        frame with the most expressive face f_e, and the frame with
        the least expressive face f_l following Zhang et al.").
        """
        from repro.video.keyframes import extract_keyframes

        expressive_idx, neutral_idx = extract_keyframes(self.spec)
        return self.frame(expressive_idx), self.frame(neutral_idx)

    def segmentation(self, num_segments: int = 64) -> np.ndarray:
        """SLIC segmentation of the most-expressive keyframe (cached:
        it is deterministic, and every faithfulness protocol reuses
        it)."""
        cached = self._slic_cache.get(num_segments)
        if cached is None:
            from repro.video.segmentation import slic_segments

            expressive, __ = self.keyframes
            cached = slic_segments(expressive, num_segments)
            self._slic_cache[num_segments] = cached
        return cached

    def has_segmentation(self, num_segments: int = 64) -> bool:
        """Whether :meth:`segmentation` would answer from its cache."""
        return num_segments in self._slic_cache

    def install_segmentation(self, labels: np.ndarray,
                             num_segments: int = 64) -> None:
        """Cache a label map computed elsewhere, e.g. in a forked
        worker, so :meth:`segmentation` returns it without segmenting.

        ``labels`` must be :meth:`segmentation` of a clip with this
        clip's :attr:`content_hash`: SLIC is a pure function of the
        pixels, so that map is the one this clip would compute.
        """
        self._slic_cache[num_segments] = labels

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Video(id={self.video_id!r}, subject={self.subject_id!r}, "
            f"frames={self.num_frames})"
        )


def video_content_hash(video: Video) -> str:
    """Hex digest of everything that determines the video's pixels.

    Digests the latent spec -- per-frame AU intensities, identity
    embedding, capture parameters, render seed -- plus the renderer's
    frame size.  Rendering is deterministic given exactly these inputs
    (see :class:`Video`), so equal digests imply pixel-identical clips.
    The ``video_id`` is not part of the content.
    """
    spec = video.spec
    digest = hashlib.sha1()
    au = np.ascontiguousarray(spec.au_intensities, dtype=np.float64)
    digest.update(struct.pack("<qq", *au.shape))
    digest.update(au.tobytes())
    digest.update(
        np.ascontiguousarray(spec.identity, dtype=np.float64).tobytes()
    )
    digest.update(struct.pack(
        "<dddqq", spec.lighting, spec.noise_scale, spec.occlusion_rate,
        spec.seed, video.frame_size,
    ))
    return digest.hexdigest()
