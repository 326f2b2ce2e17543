"""The fork map, and folds that run one way.

``parallel_map`` is the fork map training's SLIC prefetch fans out
over: it returns results in item order, runs closures, re-raises a
child's failure and reaps every child it started.  Cross-validation
does not use it: ``cross_validate`` and the three ``evaluate_*``
protocols run their folds one after another in the calling process,
and no argument or environment variable selects another way.
"""

import os
import tempfile

import numpy as np
import pytest

from repro.config import ENV_VARS, NUM_WORKERS_ENV, env_value
from repro.errors import ConfigError
from repro.evaluation import (
    cross_validate,
    evaluate_baseline,
    evaluate_offtheshelf,
    evaluate_ours,
    parallel_map,
    resolve_num_workers,
)


def _cheap_fit(train, fold_index):
    """Threshold on mean AU intensity, calibrated on the train labels.

    Touches only the latent AU curves (no frame rendering), so a fold
    costs next to nothing while still producing non-trivial metrics.
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


class TestParallelMap:
    def test_preserves_item_order(self):
        # Three forked workers are dealt items round-robin; the results
        # still come back in item order.
        out = parallel_map(lambda x: x * x, range(9), num_workers=3)
        assert out == [x * x for x in range(9)]

    def test_process_backend_forks(self):
        if not hasattr(os, "fork"):
            pytest.skip("no fork on this platform")
        pids = parallel_map(lambda _: os.getpid(), range(4), num_workers=2)
        assert all(pid != os.getpid() for pid in pids)

    def test_process_backend_runs_closures(self):
        # The whole point of the fork pool: closures (unpicklable)
        # work as worker functions.
        offset = 10
        out = parallel_map(lambda x: x + offset, range(5), num_workers=2)
        assert out == [10, 11, 12, 13, 14]

    def test_empty_items(self):
        assert parallel_map(lambda x: x, []) == []

    def test_process_worker_exception_propagates(self):
        if not hasattr(os, "fork"):
            pytest.skip("no fork on this platform")

        def boom(x):
            raise ValueError(f"bad item {x}")

        with pytest.raises(RuntimeError, match="bad item"):
            parallel_map(boom, range(4), num_workers=2)

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
            parallel_map(lambda x: x, range(4), num_workers=2)
        monkeypatch.undo()
        with pytest.raises(ChildProcessError):
            os.waitpid(pids[0], os.WNOHANG)
        assert not list(tmp_path.glob("repro-fork-*.pkl"))


class TestConfigResolution:
    def test_backend_defaults_to_serial(self, micro_uvsd, monkeypatch):
        """Serial is the only way folds run: every fold runs in the
        caller's process, in fold order, even with the deleted backend
        variable asking for processes and workers to spare."""
        monkeypatch.setenv("REPRO_PARALLEL_BACKEND", "process")
        monkeypatch.setenv(NUM_WORKERS_ENV, "2")
        calls = []

        def fit(train, fold_index):
            calls.append((os.getpid(), fold_index))
            return _cheap_fit(train, fold_index)

        cross_validate(fit, micro_uvsd, num_folds=4)
        assert calls == [(os.getpid(), index) for index in range(4)]

    def test_backend_env_var(self, monkeypatch):
        """``REPRO_PARALLEL_BACKEND`` is gone: it is not a registered
        variable, so it is not read, even set."""
        monkeypatch.setenv("REPRO_PARALLEL_BACKEND", "process")
        assert "REPRO_PARALLEL_BACKEND" not in ENV_VARS
        with pytest.raises(ConfigError, match="unknown configuration"):
            env_value("REPRO_PARALLEL_BACKEND")

    def test_unknown_backend_rejected(self, micro_uvsd, instruction_pairs,
                                      micro_config):
        """Every backend is unknown now: ``backend=`` is not a
        parameter of any CV entry point."""
        with pytest.raises(TypeError, match="backend"):
            cross_validate(_cheap_fit, micro_uvsd, num_folds=2,
                           backend="thread")
        with pytest.raises(TypeError, match="backend"):
            evaluate_offtheshelf("gpt-4o", micro_uvsd, num_folds=2,
                                 backend="thread")
        with pytest.raises(TypeError, match="backend"):
            evaluate_baseline("fdassnn", micro_uvsd, num_folds=2,
                              backend="thread")
        with pytest.raises(TypeError, match="backend"):
            evaluate_ours(micro_uvsd, instruction_pairs, num_folds=2,
                          config=micro_config, backend="thread")

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
