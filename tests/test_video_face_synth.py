"""Tests for the synthetic face renderer."""

import numpy as np
import pytest

from repro.facs.action_units import AU_IDS
from repro.facs.regions import region_for_au
from repro.video.face_synth import FaceRenderer, default_renderer
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
