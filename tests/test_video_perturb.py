"""Tests for frame perturbation primitives."""

import numpy as np
import pytest

from repro.errors import ExplainerError
from repro.rng import make_rng
from repro.video.perturb import (
    apply_mask,
    gaussian_perturb_segments,
    zero_segments,
)


@pytest.fixture()
def frame_and_labels():
    frame = np.linspace(0, 1, 96 * 96).reshape(96, 96)
    labels = np.zeros((96, 96), dtype=np.int64)
    labels[:48, :] = 0
    labels[48:, :48] = 1
    labels[48:, 48:] = 2
    return frame, labels


class TestGaussianPerturb:
    def test_only_selected_segments_change(self, frame_and_labels):
        frame, labels = frame_and_labels
        out = gaussian_perturb_segments(frame, labels, [1],
                                        make_rng(0, "t"))
        changed = out != frame
        assert changed[labels == 1].any()
        assert not changed[labels == 0].any()
        assert not changed[labels == 2].any()

    def test_replace_mode_destroys_signal(self, frame_and_labels):
        frame, labels = frame_and_labels
        out = gaussian_perturb_segments(frame, labels, [2],
                                        make_rng(0, "t"),
                                        noise_scale=0.1, mode="replace")
        # Replaced region centres near 0.5 regardless of original values.
        assert abs(out[labels == 2].mean() - 0.5) < 0.05

    def test_additive_mode_preserves_mean_signal(self, frame_and_labels):
        frame, labels = frame_and_labels
        out = gaussian_perturb_segments(frame, labels, [2],
                                        make_rng(0, "t"),
                                        noise_scale=0.05, mode="additive")
        assert abs(out[labels == 2].mean() - frame[labels == 2].mean()) < 0.05

    def test_input_not_modified(self, frame_and_labels):
        frame, labels = frame_and_labels
        original = frame.copy()
        gaussian_perturb_segments(frame, labels, [0], make_rng(0, "t"))
        assert np.array_equal(frame, original)

    def test_unknown_mode_raises(self, frame_and_labels):
        frame, labels = frame_and_labels
        with pytest.raises(ExplainerError):
            gaussian_perturb_segments(frame, labels, [0], make_rng(0, "t"),
                                      mode="sparkle")

    def test_shape_mismatch_raises(self, frame_and_labels):
        frame, __ = frame_and_labels
        with pytest.raises(ExplainerError):
            gaussian_perturb_segments(frame, np.zeros((4, 4), dtype=int),
                                      [0], make_rng(0, "t"))


class TestZeroAndMask:
    def test_zero_segments_fill(self, frame_and_labels):
        frame, labels = frame_and_labels
        out = zero_segments(frame, labels, [0], fill=0.25)
        assert np.all(out[labels == 0] == 0.25)

    def test_apply_mask_keeps_all(self, frame_and_labels):
        frame, labels = frame_and_labels
        out = apply_mask(frame, labels, np.ones(3))
        assert np.array_equal(out, frame)

    def test_apply_mask_drops_some(self, frame_and_labels):
        frame, labels = frame_and_labels
        out = apply_mask(frame, labels, np.array([1.0, 0.0, 1.0]))
        assert np.all(out[labels == 1] == 0.5)
        assert np.array_equal(out[labels == 0], frame[labels == 0])

    def test_apply_mask_wrong_length_raises(self, frame_and_labels):
        frame, labels = frame_and_labels
        with pytest.raises(ExplainerError):
            apply_mask(frame, labels, np.ones(5))

