"""Video value types.

A :class:`VideoSpec` is the *latent* description of a synthetic clip --
per-frame action-unit intensities, subject identity, capture-noise
parameters -- and a :class:`Video` couples a spec with a renderer so
frames are produced lazily.  Datasets store specs (cheap) and render
pixels only when a consumer needs them, which keeps the full
2092-sample UVSD corpus in memory at trivial cost while every consumer
still works on genuine pixel arrays.

A clip keeps what its consumers derive from pixels, not the pixels:

- **Frames** live in one small process-wide working set, an LRU of the
  last :data:`FRAME_WORKING_SET` rendered frames.  A frame is a pure
  function of the spec and the frame size, so its key is the content
  hash and the frame index, and clips with equal specs share it.  A
  consumer that reads a clip's frames back to back hits it; one that
  comes back after other clips re-renders, bitwise the same.
- **Derived values** -- the model's keyframe features, the baselines'
  per-frame and landmark features, the SLIC map -- are small and
  weight-independent, so each is computed once and kept on the clip
  (:meth:`Video.derive`).  A 96-pixel clip holds about 22 KiB of them,
  against 864 KiB for its twelve frames.
"""

from __future__ import annotations

import hashlib
import os
import struct
import threading
from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Hashable

import numpy as np

from repro.facs.action_units import NUM_AUS

#: Dimensionality of the identity embedding used by the renderer.
IDENTITY_DIM: int = 8

#: Default number of frames per synthetic clip.
DEFAULT_NUM_FRAMES: int = 12

#: Frames the process-wide working set keeps (least recently used go
#: first): 2.3 MiB of 96-pixel frames.  It holds a few clips' frames,
#: enough for every consumer that reads one clip's frames back to back
#: -- a training pass's flip counts over a clip's candidates, a
#: baseline's per-frame features -- to render each frame once.
FRAME_WORKING_SET: int = 32

_frames: OrderedDict[tuple[str, int], np.ndarray] = OrderedDict()
_frames_lock = threading.Lock()


def _new_frames_lock() -> None:
    # A forked child inherits the lock in whatever state another
    # parent thread held it; its copy of the working set is valid.
    global _frames_lock
    _frames_lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_new_frames_lock)


def clear_frame_working_set() -> None:
    """Drop every frame the working set holds."""
    with _frames_lock:
        _frames.clear()


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

    Rendering is fully deterministic given the spec (including its
    seed) and the frame size.  A clip retains no frames: they come
    from the process-wide working set (see the module docstring), and
    what consumers derive from them is kept on the clip
    (:meth:`derive`).
    """

    def __init__(self, spec: VideoSpec, renderer: "FaceRenderer | None" = None):
        from repro.video.face_synth import default_renderer

        self.spec = spec
        self._renderer = renderer if renderer is not None else default_renderer()
        self._derived: dict[Hashable, object] = {}

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
        """Frame ``index`` as a read-only ``(H, W)`` float64 array.

        The one render entry point: answered from the process-wide
        working set, or rendered into it.  Concurrent callers may both
        render a missing frame; the working set keeps the first, so
        every caller observes the same array.
        """
        if not 0 <= index < self.num_frames:
            raise IndexError(
                f"frame index {index} out of range [0, {self.num_frames})"
            )
        key = (self.content_hash, index)
        with _frames_lock:
            cached = _frames.get(key)
            if cached is not None:
                _frames.move_to_end(key)
                return cached
        rendered = self._renderer.render(self.spec, index)
        # Shared by every clip with this spec: nobody may write it.
        rendered.flags.writeable = False
        with _frames_lock:
            cached = _frames.get(key)
            if cached is not None:
                _frames.move_to_end(key)
                return cached
            while len(_frames) >= FRAME_WORKING_SET:
                _frames.popitem(last=False)
            _frames[key] = rendered
        return rendered

    def frames(self) -> np.ndarray:
        """Render all frames as ``(T, H, W)``."""
        return np.stack([self.frame(t) for t in range(self.num_frames)])

    @property
    def keyframes(self) -> tuple[np.ndarray, np.ndarray]:
        """The (most-expressive, least-expressive) frame pair.

        The paper feeds only this pair to the model ("we extract the
        frame with the most expressive face f_e, and the frame with
        the least expressive face f_l following Zhang et al.").
        """
        from repro.video.keyframes import extract_keyframes

        expressive_idx, neutral_idx = extract_keyframes(self.spec)
        return self.frame(expressive_idx), self.frame(neutral_idx)

    # -- derived values --------------------------------------------------

    def derive(self, key: Hashable, compute: Callable[[], object]):
        """``compute()``, computed once per clip and kept on it.

        For small, weight-independent values derived from this clip's
        pixels (features, label maps): a clip keeps those instead of
        its frames.  ``key`` names the value, parameters included.
        Concurrent callers may both compute a missing value;
        ``setdefault`` (atomic under the GIL) keeps the first, so every
        caller observes the same object.
        """
        value = self._derived.get(key)
        if value is None:
            value = self._derived.setdefault(key, compute())
        return value

    def segmentation(self, num_segments: int = 64) -> np.ndarray:
        """SLIC segmentation of the most-expressive keyframe, as int64
        labels (computed once per clip: it is deterministic, and every
        faithfulness protocol reuses it)."""
        def segment() -> np.ndarray:
            from repro.video.keyframes import extract_keyframes
            from repro.video.segmentation import slic_segments

            # Only f_e is segmented: render it alone.
            expressive, __ = extract_keyframes(self.spec)
            return _compact_labels(
                slic_segments(self.frame(expressive), num_segments))

        return self.derive(("slic", num_segments), segment).astype(np.int64)

    def has_segmentation(self, num_segments: int = 64) -> bool:
        """Whether :meth:`segmentation` would answer without segmenting."""
        return ("slic", num_segments) in self._derived

    def install_segmentation(self, labels: np.ndarray,
                             num_segments: int = 64) -> None:
        """Keep a label map computed elsewhere, e.g. in a forked
        worker, so :meth:`segmentation` returns it without segmenting.

        ``labels`` must be :meth:`segmentation` of a clip with this
        clip's :attr:`content_hash`: equal hashes imply equal pixels,
        and SLIC is a pure function of the pixels, so that map is the
        one this clip would compute.
        """
        self._derived[("slic", num_segments)] = _compact_labels(labels)

    def __reduce__(self):
        # A clip crosses a process boundary as its spec and frame size:
        # the renderer is a pure function of its frame size (the world
        # seed is fixed), so the receiver rebuilds the shared one and
        # renders what it needs.  Derived values stay behind; the
        # content hash is recomputed equal.
        return _rebuild_video, (self.spec, self.frame_size)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Video(id={self.video_id!r}, subject={self.subject_id!r}, "
            f"frames={self.num_frames})"
        )


def _compact_labels(labels: np.ndarray) -> np.ndarray:
    """A non-negative label map in the smallest unsigned dtype that
    holds its labels (uint8 for the protocols' 64 segments: 9 KiB
    against 72 KiB of int64 at 96 pixels)."""
    labels = np.asarray(labels)
    return labels.astype(np.min_scalar_type(int(labels.max())))


def _rebuild_video(spec: VideoSpec, frame_size: int) -> Video:
    """Unpickle a :class:`Video` (see :meth:`Video.__reduce__`)."""
    from repro.video.face_synth import default_renderer

    return Video(spec, default_renderer(frame_size))


def video_content_hash(video: Video) -> str:
    """Hex digest of everything that determines the video's pixels and
    every answer about it.

    Digests every :class:`VideoSpec` field -- ids, per-frame AU
    intensities, identity embedding, capture parameters, render seed
    -- plus the renderer's frame size.  Rendering is deterministic
    given exactly these inputs (see :class:`Video`; the capture noise
    is seeded from the video id), so equal digests imply
    pixel-identical clips, and no consumer needs to pair the digest
    with an id.  Strings are digested length-prefixed, as UTF-8.
    """
    spec = video.spec
    digest = hashlib.sha1()
    for text in (spec.video_id, spec.subject_id):
        data = text.encode("utf-8")
        digest.update(struct.pack("<q", len(data)))
        digest.update(data)
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
