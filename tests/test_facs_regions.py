"""Tests for facial-region geometry."""

import numpy as np
import pytest

from repro.facs.action_units import AU_IDS
from repro.facs.regions import (
    FRAME_SIZE,
    FacialRegion,
    REGIONS,
    region_for_au,
)


class TestFacialRegion:
    def test_mask_shape_and_area(self):
        region = REGIONS["lips"]
        mask = region.mask()
        assert mask.shape == (FRAME_SIZE, FRAME_SIZE)
        assert mask.sum() == region.area

    def test_mask_rescales(self):
        region = REGIONS["lips"]
        small = region.mask(48)
        assert small.shape == (48, 48)
        assert small.any()

    def test_center_inside_region(self):
        for region in REGIONS.values():
            row, col = region.center
            assert region.contains(row, col)

    def test_invalid_bounds_raise(self):
        with pytest.raises(ValueError):
            FacialRegion("bad", 50, 40, 0, 10)
        with pytest.raises(ValueError):
            FacialRegion("bad", 0, 10, 90, 200)

    def test_regions_are_disjoint(self):
        total = np.zeros((FRAME_SIZE, FRAME_SIZE), dtype=int)
        for region in REGIONS.values():
            total += region.mask().astype(int)
        assert total.max() == 1, "facial regions must not overlap"


class TestLookups:
    def test_region_for_every_au(self):
        for au_id in AU_IDS:
            assert isinstance(region_for_au(au_id), FacialRegion)

    def test_unknown_key_raises(self):
        with pytest.raises(KeyError):
            region_for_au(3)
