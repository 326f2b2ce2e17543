"""Tests for SLIC segmentation.

``TestOracle`` pins the bitwise contract: the vectorised
:func:`slic_segments` and :func:`_enforce_connectivity` return exactly
what the frozen per-pixel implementation in ``tests/slic_reference.py``
returns (values, shape and ``int64`` dtype).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ExplainerError
from repro.video.segmentation import (
    _enforce_connectivity,
    segment_masks,
    slic_segments,
)
from tests import slic_reference


def _snake(height: int, width: int) -> np.ndarray:
    """A one-pixel-wide serpentine of label 1 on 0: every second row,
    joined at alternating ends.  Its raster order runs against the
    path, so labelling it takes long pointer chains."""
    labels = np.zeros((height, width), dtype=np.int64)
    labels[::2] = 1
    for row in range(1, height, 2):
        labels[row, -1 if row % 4 == 1 else 0] = 1
    return labels


@st.composite
def _label_maps(draw):
    """Label maps for the connectivity oracle: 1xN, Nx1 and 2-D shapes
    of random, single, all-distinct and snake labels."""
    height, width = draw(st.one_of(
        st.tuples(st.just(1), st.integers(1, 40)),
        st.tuples(st.integers(1, 40), st.just(1)),
        st.tuples(st.integers(2, 30), st.integers(2, 30)),
    ))
    kind = draw(st.sampled_from(["random", "single", "distinct", "snake"]))
    if kind == "random":
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        return rng.integers(0, draw(st.integers(1, 6)), (height, width))
    if kind == "single":
        return np.full((height, width), draw(st.integers(0, 99)),
                       dtype=np.int64)
    if kind == "distinct":
        return np.arange(height * width, dtype=np.int64).reshape(height, width)
    labels = _snake(height, width)
    labels = np.rot90(labels, draw(st.integers(0, 3)))
    if draw(st.booleans()):
        labels = labels[:, ::-1]
    return np.ascontiguousarray(labels)


def _gradient_image(size=48):
    rows, cols = np.mgrid[0:size, 0:size]
    return (rows + cols) / (2.0 * (size - 1))


class TestSlic:
    def test_label_map_shape(self):
        labels = slic_segments(_gradient_image(), num_segments=16)
        assert labels.shape == (48, 48)

    def test_labels_contiguous_from_zero(self):
        labels = slic_segments(_gradient_image(), num_segments=16)
        unique = np.unique(labels)
        assert unique[0] == 0
        assert np.array_equal(unique, np.arange(unique.size))

    def test_segment_count_near_target(self):
        labels = slic_segments(_gradient_image(64), num_segments=64)
        count = labels.max() + 1
        assert 48 <= count <= 80

    def test_segments_are_connected(self):
        labels = slic_segments(_gradient_image(), num_segments=9)
        for mask in segment_masks(labels):
            assert _is_connected(mask)

    def test_rejects_non_finite_input(self):
        image = np.random.default_rng(0).uniform(size=(48, 48))
        image[17, 30] = np.nan
        with pytest.raises(ExplainerError, match="finite"):
            slic_segments(image, 16)
        for value in (np.inf, -np.inf):
            with pytest.raises(ExplainerError, match="finite"):
                slic_segments(np.full((48, 48), value), 16)

    def test_rejects_bad_input(self):
        with pytest.raises(ExplainerError):
            slic_segments(np.zeros((4, 4, 3)))
        with pytest.raises(ExplainerError):
            slic_segments(_gradient_image(), num_segments=0)
        with pytest.raises(ExplainerError):
            slic_segments(np.zeros((4, 4)), num_segments=100)

    def test_deterministic(self):
        a = slic_segments(_gradient_image(), num_segments=16)
        b = slic_segments(_gradient_image(), num_segments=16)
        assert np.array_equal(a, b)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=4, max_value=30))
    def test_every_pixel_labelled(self, num_segments):
        labels = slic_segments(_gradient_image(), num_segments=num_segments)
        assert labels.min() >= 0


def _keyframes(dataset, count=6):
    return [sample.video.keyframes[0] for sample in dataset.samples[:count]]


def _assert_matches_oracle(labels, expected):
    assert labels.dtype == expected.dtype == np.int64
    assert labels.shape == expected.shape
    assert np.array_equal(labels, expected)


class TestLabelMapPromises:
    """What the docstring promises holds on real keyframes; the label
    count may exceed the target, because connectivity enforcement
    splits clusters."""

    @pytest.mark.parametrize("dataset", ["micro_uvsd", "micro_rsl"])
    def test_contiguous_and_connected_on_keyframes(self, dataset, request):
        for image in _keyframes(request.getfixturevalue(dataset)):
            labels = slic_segments(image, 64)
            assert labels.dtype == np.int64
            assert np.array_equal(np.unique(labels),
                                  np.arange(labels.max() + 1))
            for mask in segment_masks(labels):
                assert _is_connected(mask)


class TestOracle:
    @pytest.mark.parametrize("num_segments", [1, 4, 16, 64, 100])
    @pytest.mark.parametrize("dataset", ["micro_uvsd", "micro_rsl"])
    def test_keyframes(self, dataset, num_segments, request):
        for image in _keyframes(request.getfixturevalue(dataset), 3):
            _assert_matches_oracle(
                slic_segments(image, num_segments),
                slic_reference.slic_segments(image, num_segments),
            )

    @pytest.mark.parametrize("num_segments", [1, 4, 16, 64, 100])
    @pytest.mark.parametrize("kind", ["noise", "non_square", "constant"])
    def test_synthetic_images(self, kind, num_segments):
        rng = np.random.default_rng(num_segments)
        image = {
            "noise": rng.uniform(size=(48, 48)),
            "non_square": rng.uniform(size=(37, 53)),
            "constant": np.full((40, 40), 0.5),
        }[kind]
        _assert_matches_oracle(
            slic_segments(image, num_segments),
            slic_reference.slic_segments(image, num_segments),
        )

    @given(
        seed=st.integers(0, 2**32 - 1),
        height=st.integers(1, 40),
        width=st.integers(1, 40),
        levels=st.sampled_from([0, 2, 5]),
        compactness=st.sampled_from([0.05, 0.2, 1.0]),
        num_iters=st.integers(1, 5),
        data=st.data(),
    )
    def test_property_random_images_match_oracle(
        self, seed, height, width, levels, compactness, num_iters, data
    ):
        image = np.random.default_rng(seed).uniform(size=(height, width))
        if levels:  # few grey levels: many exact distance ties
            image = np.round(image * levels) / levels
        num_segments = data.draw(st.integers(1, min(100, height * width)))
        _assert_matches_oracle(
            slic_segments(image, num_segments, compactness, num_iters),
            slic_reference.slic_segments(
                image, num_segments, compactness, num_iters),
        )

    @given(labels=_label_maps())
    def test_property_connectivity_matches_oracle(self, labels):
        _assert_matches_oracle(_enforce_connectivity(labels),
                               slic_reference._enforce_connectivity(labels))

    def test_split_label_becomes_two_segments(self):
        labels = np.zeros((6, 6), dtype=np.int64)
        labels[:, 2:4] = 1
        expected = np.repeat([[0, 0, 1, 1, 2, 2]], 6, axis=0)
        out = _enforce_connectivity(labels)
        _assert_matches_oracle(out, slic_reference._enforce_connectivity(labels))
        assert np.array_equal(out, expected)

    def test_orphan_pixel_joins_its_dominant_neighbour(self):
        labels = np.zeros((6, 6), dtype=np.int64)
        labels[:, 3:] = 1
        labels[2, 3] = 2  # neighbours: up, down, right in 1; left in 0
        expected = np.zeros((6, 6), dtype=np.int64)
        expected[:, 3:] = 1
        out = _enforce_connectivity(labels)
        _assert_matches_oracle(out, slic_reference._enforce_connectivity(labels))
        assert np.array_equal(out, expected)

    def test_neighbour_tie_goes_to_the_first_neighbour_seen(self):
        rows, cols = np.mgrid[0:6, 0:6]
        labels = (rows + cols >= 5).astype(np.int64)
        labels[2, 3] = 2  # up and left in 0, down and right in 1
        expected = (rows + cols >= 5).astype(np.int64)
        expected[2, 3] = 0  # up is scanned first
        out = _enforce_connectivity(labels)
        _assert_matches_oracle(out, slic_reference._enforce_connectivity(labels))
        assert np.array_equal(out, expected)


def _is_connected(mask: np.ndarray) -> bool:
    rows, cols = np.where(mask)
    if rows.size == 0:
        return True
    seen = np.zeros_like(mask, dtype=bool)
    stack = [(rows[0], cols[0])]
    seen[rows[0], cols[0]] = True
    count = 1
    while stack:
        r, c = stack.pop()
        for nr, nc in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
            if (0 <= nr < mask.shape[0] and 0 <= nc < mask.shape[1]
                    and mask[nr, nc] and not seen[nr, nc]):
                seen[nr, nc] = True
                count += 1
                stack.append((nr, nc))
    return count == rows.size
