"""Tests for the eight supervised baselines."""

import numpy as np
import pytest

from repro.baselines import baseline_zoo, make_baseline
from repro.baselines.base import SupervisedBaseline
from repro.baselines.features import landmark_point_features
from repro.datasets import generate_uvsd
from repro.errors import ModelError
from repro.experiments.common import SCALES
from repro.facs.regions import REGIONS


@pytest.fixture(scope="module")
def small_split(micro_uvsd):
    from repro.datasets import train_test_split

    return train_test_split(micro_uvsd, test_fraction=0.3, seed=1)


class TestZoo:
    def test_eight_baselines(self):
        assert len(baseline_zoo()) == 8

    def test_unknown_key_raises(self):
        with pytest.raises(ModelError):
            make_baseline("alexnet")

    def test_fresh_instances(self):
        assert make_baseline("tsdnet") is not make_baseline("tsdnet")


@pytest.mark.parametrize("key", list(baseline_zoo()))
class TestEachBaseline:
    def test_fit_predict_beats_chance(self, key, small_split):
        train, test = small_split
        baseline = make_baseline(key)
        baseline.fit(train, seed=0)
        predictions = np.array([baseline.predict(s.video) for s in test])
        labels = test.labels
        accuracy = (predictions == labels).mean()
        assert accuracy > 0.55, f"{key} at {accuracy:.2f} is chance-level"

    def test_predict_proba_in_range(self, key, small_split):
        train, test = small_split
        baseline = make_baseline(key)
        baseline.fit(train, seed=0)
        prob = baseline.predict_proba(test[0].video)
        assert 0.0 <= prob <= 1.0

    def test_predict_before_fit_raises(self, key, small_split):
        __, test = small_split
        baseline = make_baseline(key)
        with pytest.raises(ModelError):
            baseline.predict(test[0].video)

    def test_fit_is_deterministic(self, key, small_split):
        train, test = small_split
        a, b = make_baseline(key), make_baseline(key)
        a.fit(train, seed=3)
        b.fit(train, seed=3)
        video = test[0].video
        assert a.predict_proba(video) == pytest.approx(b.predict_proba(video))


class TestInterface:
    def test_all_are_supervised_baselines(self):
        for key in baseline_zoo():
            assert isinstance(make_baseline(key), SupervisedBaseline)

    def test_names_are_distinct(self):
        names = [make_baseline(key).name for key in baseline_zoo()]
        assert len(set(names)) == len(names)


def _landmark_loop(frame, points_per_region=7):
    """The per-point loop :func:`landmark_point_features` replaced,
    kept as its oracle."""
    size = frame.shape[0]
    values = []
    for region in REGIONS.values():
        rows = np.linspace(region.row_start, region.row_stop - 1,
                           points_per_region) * size / 96.0
        cols = np.linspace(region.col_start, region.col_stop - 1,
                           points_per_region) * size / 96.0
        for r, c in zip(rows.astype(int), cols.astype(int)):
            values.append(frame[r, c])
    return (np.asarray(values) - 0.5) * 4.0


class TestLandmarkPointFeatures:
    def test_equal_to_the_loop_on_every_quick_uvsd_keyframe(self):
        scale = SCALES["quick"]
        data = generate_uvsd(0, scale.uvsd_samples, scale.uvsd_subjects)
        for sample in data.samples:
            for frame in sample.video.keyframes:
                got = landmark_point_features(frame)
                want = _landmark_loop(frame)
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("size", [16, 48, 97])
    @pytest.mark.parametrize("points_per_region", [1, 3, 7])
    def test_equal_to_the_loop_at_other_sizes(self, size, points_per_region):
        frame = np.random.default_rng(size).uniform(size=(size, size))
        got = landmark_point_features(frame, points_per_region)
        assert got.tobytes() == _landmark_loop(frame, points_per_region).tobytes()
