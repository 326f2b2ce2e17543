"""Tests for Video / VideoSpec."""

import pickle

import numpy as np
import pytest

from repro.video.face_synth import FaceRenderer
from repro.video.frame import DEFAULT_NUM_FRAMES, IDENTITY_DIM, Video, VideoSpec


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

    def test_segmentation_cached(self):
        video = Video(_spec())
        labels1 = video.segmentation(32)
        labels2 = video.segmentation(32)
        assert labels1 is labels2
        assert labels1.shape == (96, 96)


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
