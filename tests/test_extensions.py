"""Tests for the extension modules: ANN indexes and persistence."""

import numpy as np
import pytest

from repro.errors import ModelError
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

