"""Tests for the action-unit registry."""

import pytest

from repro.facs.action_units import (
    AU_IDS,
    NUM_AUS,
    au_by_id,
    au_index,
)
from repro.facs.regions import REGIONS


class TestRegistry:
    def test_twelve_disfa_aus(self):
        assert NUM_AUS == 12
        assert AU_IDS == (1, 2, 4, 5, 6, 9, 12, 15, 17, 20, 25, 26)

    def test_lookup_by_id(self):
        assert au_by_id(4).name == "Brow Lowerer"
        assert au_by_id(12).name == "Lip Corner Puller"

    def test_unknown_id_raises(self):
        with pytest.raises(KeyError):
            au_by_id(99)

    def test_index_roundtrip(self):
        for i, au_id in enumerate(AU_IDS):
            assert au_index(au_id) == i

    def test_unknown_index_raises(self):
        with pytest.raises(KeyError):
            au_index(3)

    def test_every_au_region_exists(self):
        for au_id in AU_IDS:
            assert au_by_id(au_id).region in REGIONS

    def test_phrases_are_unique_per_region(self):
        seen = set()
        for unit in map(au_by_id, AU_IDS):
            key = (unit.region, unit.phrase)
            assert key not in seen, f"duplicate phrase for {key}"
            seen.add(key)
