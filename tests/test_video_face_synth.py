"""Tests for the synthetic face renderer."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.facs.action_units import AU_IDS
from repro.facs.regions import FRAME_SIZE, region_for_au
from repro.video.face_synth import (
    FaceRenderer,
    _gaussian_filter,
    default_renderer,
)
from repro.video.frame import IDENTITY_DIM, VideoSpec


def _spec(au_intensities, **overrides):
    defaults = dict(
        video_id="v0", subject_id="s0",
        au_intensities=au_intensities,
        identity=np.zeros(IDENTITY_DIM),
        noise_scale=0.0, seed=1,
    )
    defaults.update(overrides)
    return VideoSpec(**defaults)


class TestRenderer:
    def test_shared_renderer_is_cached(self):
        assert default_renderer() is default_renderer()

    def test_small_frame_size_rejected(self):
        with pytest.raises(ValueError):
            FaceRenderer(frame_size=8)

    def test_output_range(self):
        frame = default_renderer().render(_spec(np.zeros((4, 12))), 0)
        assert frame.min() >= 0.0 and frame.max() <= 1.0

    def test_au_evidence_is_localised(self):
        """Activating one AU changes pixels only inside its region."""
        renderer = default_renderer()
        for au_index_, au_id in enumerate(AU_IDS):
            neutral = renderer.render(_spec(np.zeros((1, 12))), 0)
            active_curves = np.zeros((1, 12))
            active_curves[0, au_index_] = 1.0
            active = renderer.render(_spec(active_curves), 0)
            diff = np.abs(active - neutral)
            outside = diff * ~region_for_au(au_id).mask(96)
            assert outside.max() < 1e-9, f"AU{au_id} leaked outside region"
            assert diff.max() > 0.05, f"AU{au_id} has no visible effect"

    def test_au_pattern_is_readonly(self):
        pattern = default_renderer().au_pattern(4)
        with pytest.raises(ValueError):
            pattern[0, 0] = 1.0

    def test_identity_changes_appearance(self):
        renderer = default_renderer()
        a = renderer.render(_spec(np.zeros((1, 12))), 0)
        b = renderer.render(
            _spec(np.zeros((1, 12)), identity=np.ones(IDENTITY_DIM)), 0
        )
        assert not np.array_equal(a, b)

    def test_lighting_gradient(self):
        renderer = default_renderer()
        lit = renderer.render(_spec(np.zeros((1, 12)), lighting=0.3), 0)
        flat = renderer.render(_spec(np.zeros((1, 12))), 0)
        delta = lit - flat
        assert delta[:, -1].mean() > delta[:, 0].mean()

    def test_noise_is_seeded(self):
        spec = _spec(np.zeros((2, 12)), noise_scale=0.05)
        renderer = default_renderer()
        assert np.array_equal(renderer.render(spec, 0), renderer.render(spec, 0))
        assert not np.array_equal(renderer.render(spec, 0),
                                  renderer.render(spec, 1))

    def test_occlusion_occurs_at_high_rate(self):
        clean = _spec(np.zeros((1, 12)))
        occluded = _spec(np.zeros((1, 12)), occlusion_rate=1.0)
        renderer = default_renderer()
        diff = np.abs(renderer.render(occluded, 0) - renderer.render(clean, 0))
        assert (diff > 0.01).sum() > 20


def _assert_matches_scipy(image, sigma):
    ndimage = pytest.importorskip("scipy.ndimage")
    got = _gaussian_filter(image, sigma)
    want = ndimage.gaussian_filter(image, sigma=sigma)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert got.flags.c_contiguous


class TestGaussianFilter:
    """``_gaussian_filter`` is ``scipy.ndimage.gaussian_filter`` bit for
    bit; the renderer's world depends on every bit."""

    @pytest.mark.parametrize("size", [16, 24, 32, 48, 64, 80, 96, 112, 128])
    @pytest.mark.parametrize("factor", [1.2, 2.0, 5.0])
    def test_renderer_sigmas_match_scipy(self, size, factor):
        # The renderer smooths with 1.2, 2.0 and 2.0 * 2.5 times its
        # scale (base face, AU patterns, identity bases).
        image = np.random.default_rng(size).standard_normal((size, size))
        _assert_matches_scipy(image, factor * size / FRAME_SIZE)

    @given(
        seed=st.integers(0, 2**32 - 1),
        height=st.integers(1, 40),
        width=st.integers(1, 40),
        sigma=st.floats(0.05, 12.0),
    )
    def test_property_random_inputs_match_scipy(self, seed, height, width,
                                                sigma):
        # Includes radii wider than the image: edges reflect repeatedly.
        image = np.random.default_rng(seed).uniform(-1, 1, (height, width))
        _assert_matches_scipy(image, sigma)


#: SHA-256 of the renderer world (base face, identity bases, AU
#: patterns and anchors), recorded when SciPy's gaussian_filter built
#: it.  Every rendered frame, and so every pinned result, rests on it.
_WORLD_SHA256 = {
    48: "7bb94f73096eb5a076da041aa7e3aed37d5795bf674977a3680b876012f8beb6",
    96: "9aefbea62cb687c71def29fd1b630ff1a1931904e69cd356be94085174fc5d93",
}


@pytest.mark.parametrize("frame_size", sorted(_WORLD_SHA256))
def test_renderer_world_is_pinned(frame_size):
    renderer = FaceRenderer(frame_size)
    digest = hashlib.sha256()
    for array in (renderer._base, renderer._identity_basis,
                  renderer._au_patterns):
        digest.update(np.ascontiguousarray(array).tobytes())
    digest.update(repr(sorted(renderer._au_anchors.items())).encode())
    assert digest.hexdigest() == _WORLD_SHA256[frame_size]
