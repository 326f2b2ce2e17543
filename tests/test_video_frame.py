"""Tests for Video / VideoSpec."""

import os
import pickle
import signal
import time

import numpy as np
import pytest

from repro.baselines.features import (
    landmark_features,
    per_frame_features,
    region_intensity_features,
)
from repro.experiments.common import clear_caches
from repro.model.foundation import FoundationModel
from repro.rng import make_rng
from repro.video import frame as frame_module
from repro.video import segmentation
from repro.video.face_synth import FaceRenderer, default_renderer
from repro.video.frame import (
    DEFAULT_NUM_FRAMES,
    FRAME_WORKING_SET,
    IDENTITY_DIM,
    Video,
    VideoSpec,
    clear_frame_working_set,
)
from repro.video.segmentation import slic_segments


def retained_arrays(video: Video) -> list[np.ndarray]:
    """Every array a clip holds beyond its spec and the shared
    renderer: what it keeps of its pixels and what it derived."""
    def walk(value):
        if isinstance(value, np.ndarray):
            yield value
        elif isinstance(value, dict):
            for item in value.values():
                yield from walk(item)
        elif isinstance(value, (tuple, list)):
            for item in value:
                yield from walk(item)

    return [array for name, value in vars(video).items()
            if name not in ("spec", "_renderer") for array in walk(value)]


class CountingRenderer:
    """The shared renderer, recording each frame it actually renders
    (a working-set hit renders nothing)."""

    def __init__(self) -> None:
        self._inner = default_renderer()
        self.frame_size = self._inner.frame_size
        self.renders: list[tuple[str, int]] = []

    def render(self, spec: VideoSpec, index: int) -> np.ndarray:
        self.renders.append((spec.video_id, index))
        return self._inner.render(spec, index)


def _spec(**overrides):
    defaults = dict(
        video_id="v0",
        subject_id="s0",
        au_intensities=np.full((DEFAULT_NUM_FRAMES, 12), 0.3),
        identity=np.zeros(IDENTITY_DIM),
        seed=1,
    )
    defaults.update(overrides)
    return VideoSpec(**defaults)


class TestVideoSpec:
    def test_valid_construction(self):
        spec = _spec()
        assert spec.num_frames == DEFAULT_NUM_FRAMES

    def test_rejects_bad_au_shape(self):
        with pytest.raises(ValueError):
            _spec(au_intensities=np.zeros((12, 5)))

    def test_rejects_out_of_range_intensities(self):
        with pytest.raises(ValueError):
            _spec(au_intensities=np.full((12, 12), 1.5))

    def test_rejects_bad_identity(self):
        with pytest.raises(ValueError):
            _spec(identity=np.zeros(3))

    def test_rejects_negative_noise(self):
        with pytest.raises(ValueError):
            _spec(noise_scale=-0.1)

    def test_rejects_bad_occlusion_rate(self):
        with pytest.raises(ValueError):
            _spec(occlusion_rate=1.5)


class TestVideo:
    def test_frames_deterministic(self):
        a = Video(_spec()).frame(0)
        b = Video(_spec()).frame(0)
        assert np.array_equal(a, b)

    def test_frame_range_checked(self):
        video = Video(_spec())
        with pytest.raises(IndexError):
            video.frame(99)

    def test_frames_stack(self):
        video = Video(_spec())
        frames = video.frames()
        assert frames.shape == (DEFAULT_NUM_FRAMES, 96, 96)
        assert frames.min() >= 0.0 and frames.max() <= 1.0

    def test_keyframes_cached_and_consistent(self):
        video = Video(_spec())
        fe1, fl1 = video.keyframes
        fe2, fl2 = video.keyframes
        assert fe1 is fe2 and fl1 is fl2

    def test_drop_cache_rerenders_identically(self):
        # A frame depends only on the spec and its index, not on which
        # frames the clip rendered before it.
        warm = Video(_spec())
        warm.frames()
        assert np.array_equal(warm.frame(3), Video(_spec()).frame(3))

    def test_segmentation_cached(self, monkeypatch):
        """Segmented once per clip, kept in the smallest unsigned dtype
        that holds the labels, and widened back to int64 on read."""
        calls = []

        def counting(image, num_segments):
            calls.append(num_segments)
            return slic_segments(image, num_segments)

        monkeypatch.setattr(segmentation, "slic_segments", counting)
        video = Video(_spec())
        labels1 = video.segmentation(32)
        labels2 = video.segmentation(32)
        assert calls == [32]
        assert labels1.dtype == labels2.dtype == np.int64
        assert labels1.shape == (96, 96)
        assert np.array_equal(labels1, labels2)
        assert np.array_equal(labels1,
                              slic_segments(video.keyframes[0], 32))
        (kept,) = retained_arrays(video)
        assert kept.dtype == np.uint8


class TestRetention:
    """A clip keeps what consumers derive from its pixels, not the
    pixels: frames live in one bounded process-wide working set."""

    def test_derived_features_stay_small(self):
        """After the model's features, every baseline's pixel features
        and the SLIC map, a clip holds under 32 KiB (its twelve frames
        alone are 864 KiB)."""
        video = Video(_spec(au_intensities=np.random.default_rng(5).random(
            (DEFAULT_NUM_FRAMES, 12))))
        FoundationModel(make_rng(0, "retention")).features(video)
        per_frame_features(video)
        landmark_features(video)
        region_intensity_features(video)
        video.segmentation()
        arrays = retained_arrays(video)
        assert not any(array.shape == (96, 96) and array.dtype == np.float64
                       for array in arrays)
        assert sum(array.nbytes for array in arrays) < 32 * 1024

    def test_working_set_is_bounded_and_lru(self):
        clear_frame_working_set()
        renderer = CountingRenderer()
        clips = [Video(_spec(seed=seed), renderer) for seed in range(3)]
        for clip in clips:
            clip.frames()
        assert len(renderer.renders) == 3 * DEFAULT_NUM_FRAMES
        assert len(frame_module._frames) <= FRAME_WORKING_SET
        # 36 frames rendered into 32 slots: the newest are kept and
        # handed out as the same array, the oldest four are gone.
        assert clips[2].frame(11) is clips[2].frame(11)
        assert len(renderer.renders) == 3 * DEFAULT_NUM_FRAMES
        clips[0].frame(0)
        assert len(renderer.renders) == 3 * DEFAULT_NUM_FRAMES + 1

    def test_frames_are_shared_by_spec_and_read_only(self):
        first = Video(_spec()).frame(2)
        assert Video(_spec()).frame(2) is first
        with pytest.raises(ValueError):
            first[0, 0] = 0.0

    def test_twin_ids_get_their_own_frames(self):
        """The render noise is seeded from the video id, which the
        content hash digests: a clip with the same spec under another
        id must not be handed this clip's pixels."""
        first = Video(_spec())
        twin = Video(_spec(video_id="twin"))
        assert twin.content_hash != first.content_hash
        kept = first.frame(2)
        clear_frame_working_set()
        alone = twin.frame(2)
        clear_frame_working_set()
        first.frame(2)
        assert np.array_equal(twin.frame(2), alone)
        assert not np.array_equal(alone, kept)

    def test_clear_caches_drops_the_working_set(self):
        Video(_spec()).frame(0)
        assert frame_module._frames
        clear_caches()
        assert not frame_module._frames

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_renders_while_the_parent_holds_the_lock(self):
        """A fork taken while another thread holds the working set's
        lock must not leave the child waiting on it forever."""
        video = Video(_spec(seed=77))
        with frame_module._frames_lock:
            pid = os.fork()
            if pid == 0:  # pragma: no cover - runs in the child
                code = 1
                try:
                    video.frame(0)
                    code = 0
                finally:
                    os._exit(code)
        deadline = time.monotonic() + 30.0
        while True:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                break
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                pytest.fail("the forked child hung on the frame lock")
            time.sleep(0.01)
        assert os.waitstatus_to_exitcode(status) == 0


class TestPickle:
    """A clip crosses a process boundary (a forked pool replica's pipe)
    as its spec and frame size, not as its renderer's arrays or its
    cached frames."""

    @pytest.mark.parametrize("frame_size", [None, 32])
    def test_round_trip_keeps_content_and_frames(self, frame_size):
        renderer = (FaceRenderer(frame_size=frame_size)
                    if frame_size is not None else None)
        spec = _spec(au_intensities=np.random.default_rng(3).random((12, 12)),
                     noise_scale=0.05, occlusion_rate=0.5)
        video = Video(spec, renderer)
        frames = video.frames()
        copy = pickle.loads(pickle.dumps(video))
        assert copy.video_id == video.video_id
        assert copy.frame_size == video.frame_size
        assert copy.content_hash == video.content_hash
        assert np.array_equal(copy.frames(), frames)
        assert copy.frames().tobytes() == frames.tobytes()

    def test_pickled_size_is_bounded_by_the_spec(self):
        video = Video(_spec())
        video.frames()
        video.segmentation()
        assert len(pickle.dumps(video)) < 8 * 1024
