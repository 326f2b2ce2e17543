"""Tests for keyframe extraction and landmark grounding."""

import numpy as np
import pytest

from repro.facs.action_units import AU_IDS
from repro.facs.regions import region_for_au
from repro.video.frame import IDENTITY_DIM, Video, VideoSpec
from repro.video.keyframes import expressiveness, extract_keyframes
from repro.video.landmarks import (
    au_landmark,
    segments_for_au,
)


def _spec(curves):
    return VideoSpec(
        video_id="v0", subject_id="s0", au_intensities=curves,
        identity=np.zeros(IDENTITY_DIM), seed=0,
    )


class TestKeyframes:
    def test_expressiveness_is_row_sum(self):
        curves = np.zeros((4, 12))
        curves[2, :] = 0.5
        assert np.allclose(expressiveness(_spec(curves)),
                           [0, 0, 6.0, 0])

    def test_extract_most_and_least(self):
        curves = np.zeros((5, 12))
        curves[3, :] = 0.9
        curves[1, 0] = 0.2
        expressive, neutral = extract_keyframes(_spec(curves))
        assert expressive == 3
        assert neutral == 0  # earliest among ties

    def test_tie_resolution_deterministic(self):
        curves = np.full((4, 12), 0.5)
        assert extract_keyframes(_spec(curves)) == (0, 0)


class TestLandmarks:
    def test_au_landmark_inside_region(self):
        for au_id in AU_IDS:
            row, col = au_landmark(au_id, 96)
            assert region_for_au(au_id).contains(row, col)

    def test_segments_for_au_covers_blob(self):
        """The ranked segments must carry the AU's pattern energy: the
        top segment overlaps the AU's region, and the landmark pixel's
        own segment ranks within the top three."""
        from repro.video.face_synth import default_renderer

        video = Video(_spec(np.full((4, 12), 0.2)))
        labels = video.segmentation(64)
        for au_id in AU_IDS:
            segments = segments_for_au(au_id, labels, max_segments=3)
            assert segments, f"no segment found for AU{au_id}"
            pattern = np.abs(default_renderer(96).au_pattern(au_id))
            top_energy = pattern[labels == segments[0]].sum()
            assert top_energy > 0, f"AU{au_id} top segment carries no energy"
            row, col = au_landmark(au_id, 96)
            assert labels[row, col] in segments

    def test_max_segments_respected(self):
        video = Video(_spec(np.full((4, 12), 0.2)))
        labels = video.segmentation(64)
        assert len(segments_for_au(4, labels, max_segments=1)) == 1
