"""Tests for the extension modules: ANN indexes, persistence, RISE,
visualization."""

import numpy as np
import pytest

from repro.errors import ExplainerError, ModelError
from repro.explainers.rise import RiseExplainer
from repro.explainers.visualize import (
    ascii_heatmap,
    attribution_overlay,
    load_pgm,
    save_pgm,
    segment_score_map,
)
from repro.model.persistence import (
    load_model,
    load_pipeline,
    save_model,
    save_pipeline,
)
from repro.retrieval.index import (
    ExactIndex,
    IVFFlatIndex,
    LSHIndex,
    recall_at_k,
)
from repro.rng import make_rng


@pytest.fixture(scope="module")
def vector_pool():
    rng = make_rng(0, "index-test")
    # Clustered vectors so ANN structure is meaningful.
    centers = rng.standard_normal((8, 32)) * 3
    vectors = np.concatenate([
        center + rng.standard_normal((25, 32)) for center in centers
    ])
    queries = centers + rng.standard_normal((8, 32)) * 0.1
    return vectors, queries


class TestIndexes:
    def test_exact_index_finds_self(self, vector_pool):
        vectors, __ = vector_pool
        index = ExactIndex(vectors)
        assert index.search(vectors[17], k=1)[0] == 17

    def test_lsh_recall(self, vector_pool):
        vectors, queries = vector_pool
        exact = ExactIndex(vectors)
        lsh = LSHIndex(vectors, num_tables=10, num_bits=8, seed=1)
        assert recall_at_k(lsh, exact, queries, k=5) >= 0.7

    def test_ivf_recall(self, vector_pool):
        vectors, queries = vector_pool
        exact = ExactIndex(vectors)
        ivf = IVFFlatIndex(vectors, num_cells=8, nprobe=2, seed=1)
        assert recall_at_k(ivf, exact, queries, k=5) >= 0.7

    def test_ivf_probes_fewer_than_all(self, vector_pool):
        vectors, __ = vector_pool
        ivf = IVFFlatIndex(vectors, num_cells=8, nprobe=1, seed=1)
        sizes = [len(lst) for lst in ivf._lists]
        assert max(sizes) < len(vectors)

    def test_empty_pool_rejected(self):
        from repro.retrieval.index import IndexError_

        with pytest.raises(IndexError_):
            ExactIndex(np.zeros((0, 4)))

    def test_bad_params_rejected(self, vector_pool):
        from repro.retrieval.index import IndexError_

        vectors, __ = vector_pool
        with pytest.raises(IndexError_):
            LSHIndex(vectors, num_tables=0)
        with pytest.raises(IndexError_):
            IVFFlatIndex(vectors, num_cells=0)

    def test_indexed_retriever_matches_exact_mostly(self, trained):
        from repro.retrieval import DescriptionRetriever
        from repro.retrieval.retriever import IndexedDescriptionRetriever

        model, __, train, test = trained
        pool = list(train)[:60]
        exact = DescriptionRetriever(model, pool, seed=0)
        indexed = IndexedDescriptionRetriever(model, pool, seed=0,
                                              index_kind="ivf")
        agree = 0
        queries = list(test)[:10]
        for sample in queries:
            description = model.describe(sample.video)
            a = exact.retrieve(sample.video, description)
            b = indexed.retrieve(sample.video, description)
            agree += int(a[0].label == b[0].label)
        assert agree >= 6

    def test_unknown_index_kind(self, trained):
        from repro.retrieval.retriever import IndexedDescriptionRetriever

        model, __, train, __ = trained
        with pytest.raises(ModelError):
            IndexedDescriptionRetriever(model, list(train)[:10],
                                        index_kind="btree")


class TestPersistence:
    def test_model_roundtrip(self, trained, tmp_path, sample_video):
        model, __, __, __ = trained
        path = tmp_path / "model.npz"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.assess_logit(sample_video, None) == pytest.approx(
            model.assess_logit(sample_video, None)
        )
        assert np.allclose(loaded.au_logits(sample_video),
                           model.au_logits(sample_video))

    def test_pipeline_roundtrip(self, trained, tmp_path, sample_video):
        from repro.cot.chain import StressChainPipeline

        model, __, __, __ = trained
        pipeline = StressChainPipeline(model, use_chain=True, seed=9)
        path = tmp_path / "pipeline.npz"
        save_pipeline(pipeline, path)
        loaded = load_pipeline(path)
        assert loaded.use_chain and loaded.seed == 9
        assert loaded.predict(sample_video).label == \
            pipeline.predict(sample_video).label

    def test_pipeline_archive_is_model_archive_plus_options(self, tmp_path):
        from repro.cot.chain import StressChainPipeline
        from repro.model.foundation import FoundationModel

        model = FoundationModel(make_rng(0, "persistence-keys"))
        save_model(model, tmp_path / "model.npz")
        save_pipeline(StressChainPipeline(model, use_chain=False, seed=7),
                      tmp_path / "pipeline.npz")
        with np.load(tmp_path / "model.npz") as bare, \
                np.load(tmp_path / "pipeline.npz") as full:
            assert set(full.files) == set(bare.files) | {
                "pipeline/use_chain", "pipeline/seed"}
            for name in bare.files:
                assert np.array_equal(full[name], bare[name]), name
            assert int(full["pipeline/use_chain"]) == 0
            assert int(full["pipeline/seed"]) == 7

    def test_load_rejects_random_npz(self, tmp_path):
        path = tmp_path / "junk.npz"
        np.savez(path, a=np.zeros(3))
        with pytest.raises(ModelError):
            load_model(path)

    def test_load_pipeline_rejects_bare_model(self, trained, tmp_path):
        model, __, __, __ = trained
        path = tmp_path / "bare.npz"
        save_model(model, path)
        with pytest.raises(ModelError):
            load_pipeline(path)


class TestRise:
    def test_finds_important_segment(self):
        rng = make_rng(3, "rise-test")
        frame = rng.random((48, 48)) * 0.2 + 0.4
        from repro.video.segmentation import slic_segments

        labels = slic_segments(frame, num_segments=9)
        target = int(labels.max())

        def predict(perturbed):
            mask = labels == target
            intact = 1.0 - np.abs(perturbed[mask] - frame[mask]).mean() / 0.5
            return float(np.clip(0.5 + 0.5 * (intact - 0.5), 0, 1))

        attribution = RiseExplainer(num_samples=400).attribute(
            frame, labels, predict, seed=0
        )
        assert attribution.ranking()[0] == target

    def test_bad_params(self):
        with pytest.raises(ValueError):
            RiseExplainer(num_samples=2)
        with pytest.raises(ValueError):
            RiseExplainer(keep_prob=1.0)


class TestVisualize:
    def test_segment_score_map(self):
        labels = np.array([[0, 1], [1, 0]])
        out = segment_score_map(labels, np.array([0.2, 0.8]))
        assert out[0, 0] == 0.2 and out[0, 1] == 0.8

    def test_score_shape_checked(self):
        with pytest.raises(ExplainerError):
            segment_score_map(np.zeros((2, 2), dtype=int), np.zeros(5))

    def test_ascii_heatmap_renders(self):
        values = np.linspace(0, 1, 96 * 96).reshape(96, 96)
        art = ascii_heatmap(values, width=32)
        lines = art.splitlines()
        assert all(len(line) == 32 for line in lines)
        assert art[0] == _first_char(art)

    def test_ascii_constant_input(self):
        art = ascii_heatmap(np.full((10, 10), 0.5), width=8)
        assert set(art.replace("\n", "")) == {" "}

    def test_overlay_bounds(self):
        frame = np.random.default_rng(0).random((8, 8))
        labels = np.zeros((8, 8), dtype=int)
        labels[4:, :] = 1
        overlay = attribution_overlay(frame, labels, np.array([0.0, 1.0]))
        assert overlay.min() >= 0.0 and overlay.max() <= 1.0

    def test_pgm_roundtrip(self, tmp_path):
        image = np.random.default_rng(1).random((12, 20))
        path = tmp_path / "out.pgm"
        save_pgm(image, path)
        loaded = load_pgm(path)
        assert loaded.shape == image.shape
        assert np.allclose(loaded, image, atol=1 / 255)

    def test_pgm_rejects_bad_file(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P6\n1 1\n255\n\x00")
        with pytest.raises(ExplainerError):
            load_pgm(path)


def _first_char(art: str) -> str:
    return art[0]
