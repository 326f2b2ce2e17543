"""Property-based equivalence of the batched prediction engine.

Hypothesis drives ``chain_prob_from_frames_batch`` against its
per-frame counterpart over arbitrary frame stacks: random contents,
float32/float64 inputs, and batch sizes from 0 (the empty-stack edge)
through small stacks.

Frames are generated from a hypothesis-chosen RNG seed rather than
element-by-element -- same coverage of the input space, orders of
magnitude cheaper per example.  Tolerances follow the repo convention
for stacked-GEMM vs single-row math (``rtol=0, atol=1e-12``): BLAS
does not guarantee row-wise bitwise equality across batch shapes,
which is exactly why the *serving* path never routes per-request math
through this entry point (see DESIGN.md section 10).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.errors import ModelError
from repro.facs.action_units import NUM_AUS
from repro.model.foundation import FoundationModel
from repro.rng import make_rng
from repro.video.frame import Video, VideoSpec
from tests.foundation_reference import au_logits_from_frames

FRAME = 96  # must divide into the model's 12x12 patch grid

_MODEL = FoundationModel(make_rng(123, "property-model"))

batch_sizes = st.integers(min_value=0, max_value=5)
seeds = st.integers(min_value=0, max_value=2**32 - 1)
dtypes = st.sampled_from([np.float64, np.float32])


def _frames(n: int, seed: int, dtype) -> tuple[np.ndarray, np.ndarray]:
    """A deterministic (N, 96, 96) stack and neutral frame in [0, 1]."""
    rng = np.random.default_rng(seed)
    stack = rng.random((n, FRAME, FRAME)).astype(dtype)
    neutral = rng.random((FRAME, FRAME)).astype(dtype)
    return stack, neutral


class TestChainProbBatch:
    @given(n=batch_sizes, seed=seeds, dtype=dtypes)
    def test_matches_per_frame_loop(self, n, seed, dtype):
        frames, neutral = _frames(n, seed, dtype)
        batched = _MODEL.chain_prob_from_frames_batch(frames, neutral)
        assert batched.shape == (n,)
        looped = np.array([
            _MODEL.chain_prob_from_frames(frame, neutral) for frame in frames
        ])
        np.testing.assert_allclose(batched, looped, rtol=0, atol=1e-12)
        if n:
            assert float(batched.min()) >= 0.0
            assert float(batched.max()) <= 1.0


class TestEmptyBatchEdges:
    """Batch size 0 is legal everywhere and returns empty outputs."""

    def test_empty_stack(self):
        frames, neutral = _frames(0, 3, np.float64)
        assert _MODEL.chain_prob_from_frames_batch(
            frames, neutral).shape == (0,)

    def test_batch_of_one_matches_single(self):
        frames, neutral = _frames(1, 5, np.float64)
        np.testing.assert_allclose(
            _MODEL.chain_prob_from_frames_batch(frames, neutral)[0],
            _MODEL.chain_prob_from_frames(frames[0], neutral),
            rtol=0, atol=1e-12,
        )

    def test_non_stack_input_rejected(self):
        __, neutral = _frames(0, 3, np.float64)
        with pytest.raises(ModelError):
            _MODEL.chain_prob_from_frames_batch(neutral, neutral)


class TestVideoPathConsistency:
    """The frames-based reference forward agrees with the video-based
    chain when fed a video's own keyframes."""

    @given(seed=st.integers(min_value=0, max_value=100))
    def test_au_logits_match_video_path(self, seed):
        rng = np.random.default_rng(seed)
        curves = np.clip(rng.random((12, NUM_AUS)), 0, 1)
        video = Video(VideoSpec(
            video_id=f"prop-{seed}", subject_id=f"prop-subj-{seed}",
            au_intensities=curves, identity=rng.standard_normal(8),
            seed=10_000 + seed,
        ))
        expressive, neutral = video.keyframes
        np.testing.assert_allclose(
            au_logits_from_frames(_MODEL, expressive, neutral),
            _MODEL.au_logits(video),
            rtol=0, atol=1e-12,
        )
