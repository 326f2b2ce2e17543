"""Parallel evaluation: bitwise determinism and config resolution.

Parallelism must change *when* a fold runs, never *what* it computes:
``cross_validate`` has to return bitwise-identical metrics for every
backend and worker count.  ``ClassificationMetrics`` is a frozen
dataclass of floats, so plain ``==`` is exactly that assertion.
"""

import os
import tempfile

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.evaluation import (
    cross_validate,
    evaluate_baseline,
    parallel_map,
    resolve_backend,
    resolve_num_workers,
)
from repro.evaluation.parallel import BACKEND_ENV, NUM_WORKERS_ENV


def _cheap_fit(train, fold_index):
    """Threshold on mean AU intensity, calibrated on the train labels.

    Touches only the latent AU curves (no frame rendering), so the
    determinism matrix below stays fast while still producing
    non-trivial float metrics.
    """
    intensities = np.array([
        sample.video.spec.au_intensities.mean() for sample in train
    ])
    labels = train.labels
    threshold = 0.5 * (intensities[labels == 1].mean()
                       + intensities[labels == 0].mean())
    return lambda sample: int(
        sample.video.spec.au_intensities.mean() > threshold
    )


class TestBitwiseDeterminism:
    @pytest.fixture(scope="class")
    def serial_result(self, micro_uvsd):
        return cross_validate(_cheap_fit, micro_uvsd, num_folds=5,
                              backend="serial")

    @pytest.mark.parametrize("backend", ["thread", "process"])
    @pytest.mark.parametrize("num_workers", [1, 2, 4])
    def test_cross_validate_matches_serial(self, micro_uvsd, serial_result,
                                           backend, num_workers):
        mean, per_fold = cross_validate(
            _cheap_fit, micro_uvsd, num_folds=5,
            backend=backend, num_workers=num_workers,
        )
        serial_mean, serial_folds = serial_result
        assert mean == serial_mean
        assert per_fold == serial_folds

    def test_evaluate_baseline_matches_serial(self, micro_uvsd):
        serial = evaluate_baseline("fdassnn", micro_uvsd, num_folds=3,
                                   backend="serial")
        parallel = evaluate_baseline("fdassnn", micro_uvsd, num_folds=3,
                                     backend="process", num_workers=2)
        assert serial == parallel


class TestParallelMap:
    def test_preserves_item_order(self):
        out = parallel_map(lambda x: x * x, range(9),
                           backend="thread", num_workers=3)
        assert out == [x * x for x in range(9)]

    def test_process_backend_forks(self):
        if not hasattr(os, "fork"):
            pytest.skip("no fork on this platform")
        pids = parallel_map(lambda _: os.getpid(), range(4),
                            backend="process", num_workers=2)
        assert all(pid != os.getpid() for pid in pids)

    def test_process_backend_runs_closures(self):
        # The whole point of the fork pool: closures (unpicklable)
        # work as worker functions.
        offset = 10
        out = parallel_map(lambda x: x + offset, range(5),
                           backend="process", num_workers=2)
        assert out == [10, 11, 12, 13, 14]

    def test_empty_items(self):
        assert parallel_map(lambda x: x, [], backend="process") == []

    def test_thread_worker_exception_propagates(self):
        def boom(x):
            raise ValueError(f"bad item {x}")

        with pytest.raises(ValueError, match="bad item"):
            parallel_map(boom, range(4), backend="thread", num_workers=2)

    def test_process_worker_exception_propagates(self):
        if not hasattr(os, "fork"):
            pytest.skip("no fork on this platform")

        def boom(x):
            raise ValueError(f"bad item {x}")

        with pytest.raises(RuntimeError, match="bad item"):
            parallel_map(boom, range(4), backend="process", num_workers=2)

    def test_failed_fork_reaps_started_children(self, monkeypatch,
                                                tmp_path):
        """A fork that fails after others succeeded leaves no child
        unreaped and no result file behind."""
        if not hasattr(os, "fork"):
            pytest.skip("no fork on this platform")
        real_fork = os.fork
        pids = []

        def fork_once():
            if pids:
                raise OSError("injected fork failure")
            pid = real_fork()
            pids.append(pid)
            return pid

        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        monkeypatch.setattr(os, "fork", fork_once)
        with pytest.raises(OSError, match="injected"):
            parallel_map(lambda x: x, range(4), backend="process",
                         num_workers=2)
        monkeypatch.undo()
        with pytest.raises(ChildProcessError):
            os.waitpid(pids[0], os.WNOHANG)
        assert not list(tmp_path.glob("repro-fork-*.pkl"))


class TestConfigResolution:
    def test_backend_defaults_to_serial(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV, raising=False)
        assert resolve_backend() == "serial"

    def test_backend_env_var(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "thread")
        assert resolve_backend() == "thread"

    def test_explicit_backend_wins_over_env(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "thread")
        assert resolve_backend("serial") == "serial"

    def test_unknown_backend_rejected(self, monkeypatch):
        with pytest.raises(ConfigError):
            resolve_backend("celery")
        monkeypatch.setenv(BACKEND_ENV, "mpi")
        with pytest.raises(ConfigError):
            resolve_backend()

    def test_num_workers_env_var(self, monkeypatch):
        monkeypatch.setenv(NUM_WORKERS_ENV, "3")
        assert resolve_num_workers() == 3

    def test_explicit_num_workers_wins_over_env(self, monkeypatch):
        monkeypatch.setenv(NUM_WORKERS_ENV, "3")
        assert resolve_num_workers(2) == 2

    def test_num_workers_defaults_to_cpu_count(self, monkeypatch):
        monkeypatch.delenv(NUM_WORKERS_ENV, raising=False)
        assert resolve_num_workers() == (os.cpu_count() or 1)

    def test_bad_num_workers_rejected(self, monkeypatch):
        monkeypatch.setenv(NUM_WORKERS_ENV, "lots")
        with pytest.raises(ConfigError):
            resolve_num_workers()
        monkeypatch.delenv(NUM_WORKERS_ENV)
        with pytest.raises(ConfigError):
            resolve_num_workers(0)

    def test_env_workers_reach_cross_validate(self, micro_uvsd,
                                              monkeypatch):
        monkeypatch.setenv(NUM_WORKERS_ENV, "2")
        monkeypatch.setenv(BACKEND_ENV, "thread")
        mean, per_fold = cross_validate(_cheap_fit, micro_uvsd, num_folds=4)
        monkeypatch.delenv(NUM_WORKERS_ENV)
        monkeypatch.setenv(BACKEND_ENV, "serial")
        serial_mean, serial_folds = cross_validate(_cheap_fit, micro_uvsd,
                                                   num_folds=4)
        assert mean == serial_mean
        assert per_fold == serial_folds
