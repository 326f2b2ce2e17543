"""Tests for facial-action descriptions (render/parse round-trip)."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.errors import GenerationError
from repro.facs.action_units import AU_IDS, NUM_AUS
from repro.facs.descriptions import HEADER, NEUTRAL_LINE, FacialDescription

au_subsets = st.frozensets(st.sampled_from(AU_IDS), max_size=NUM_AUS)


class TestConstruction:
    def test_canonical_ordering(self):
        assert FacialDescription((26, 1, 6)).au_ids == (1, 6, 26)

    def test_duplicates_collapse(self):
        assert FacialDescription((4, 4, 4)).au_ids == (4,)

    def test_from_vector(self):
        vector = np.zeros(NUM_AUS)
        vector[0] = 1.0
        vector[-1] = 1.0
        assert FacialDescription.from_vector(vector).au_ids == (1, 26)

    def test_from_vector_bad_shape(self):
        with pytest.raises(ValueError):
            FacialDescription.from_vector(np.zeros(5))

    def test_to_vector_roundtrip(self):
        description = FacialDescription((2, 9, 25))
        assert FacialDescription.from_vector(description.to_vector()) == description


class TestRenderParse:
    def test_render_header(self):
        assert FacialDescription((1,)).render().startswith(HEADER)

    def test_neutral_render(self):
        assert NEUTRAL_LINE in FacialDescription(()).render()

    def test_neutral_roundtrip(self):
        empty = FacialDescription(())
        assert FacialDescription.parse(empty.render()) == empty

    def test_paper_example(self):
        """The Section IV-A example: AU1 + AU5 + AU6."""
        text = FacialDescription((1, 5, 6)).render()
        assert "-eyebrow: inner portions of the eyebrows raising" in text
        assert "-lid: upper lid raising" in text
        assert "-cheek: raised" in text

    @given(au_subsets)
    def test_roundtrip_property(self, au_ids):
        description = FacialDescription(tuple(au_ids))
        assert FacialDescription.parse(description.render()) == description

    def test_parse_rejects_missing_header(self):
        with pytest.raises(GenerationError):
            FacialDescription.parse("-cheek: raised")

    def test_parse_rejects_unknown_phrase(self):
        with pytest.raises(GenerationError):
            FacialDescription.parse(f"{HEADER}\n-cheek: doing a backflip")

    def test_parse_rejects_garbage_line(self):
        with pytest.raises(GenerationError):
            FacialDescription.parse(f"{HEADER}\nnot a description line")


class TestBehaviour:
    def test_contains_and_len(self):
        description = FacialDescription((4, 12))
        assert 4 in description
        assert 5 not in description
        assert len(description) == 2

    def test_regions_deduplicated(self):
        # AU12, AU15 both live on the lips.
        assert FacialDescription((12, 15)).regions() == ("lips",)
