"""Chaos suite: concurrent serving under injected faults, breaker
behaviour, and SIGKILL-grade training interruption.

The liveness contract under chaos: with a seeded :class:`FaultPlan`
armed and concurrent clients running, **every** submitted future
resolves -- to a result or to a typed library error -- no worker dies,
expired requests are shed without executor work, and the counters stay
consistent.  With faults off (or a zero-rate plan armed), everything
is bitwise what it always was.
"""

import dataclasses
import os
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.cot.chain import ChainResult, StressChainPipeline
from repro.errors import (
    CircuitOpenError,
    DeadlineExceededError,
    FaultInjectedError,
)
from repro.reliability.breaker import BreakerConfig, CLOSED, OPEN
from repro.reliability.faults import (
    FaultPlan,
    FaultSpec,
    injected,
    uninstall_plan,
)
from repro.serving.executor import ChainBatchExecutor
from repro.serving.service import ServiceConfig, StressService


@pytest.fixture(autouse=True)
def _no_leaked_plan():
    yield
    uninstall_plan()


@pytest.fixture()
def pipeline(trained):
    model, __, __, __ = trained
    return StressChainPipeline(model)


@pytest.fixture()
def video_pool(trained):
    __, __, __, test = trained
    return [sample.video for sample in list(test)[:8]]


# ----------------------------------------------------------------------
# Serving chaos
# ----------------------------------------------------------------------


class TestConcurrentChaos:
    def test_every_future_resolves_under_faults(self, pipeline, video_pool):
        plan = FaultPlan([
            FaultSpec(site="serve.execute", rate=0.15),
            FaultSpec(site="model.forward", rate=0.05),
        ], seed=1234)
        config = ServiceConfig(max_batch_size=4)
        futures, futures_lock = [], threading.Lock()

        with injected(plan), StressService(pipeline, config) as service:

            def client(worker: int):
                for i in range(8):
                    video = video_pool[(worker + i) % len(video_pool)]
                    # Every fourth request carries an (effectively
                    # already expired) deadline to exercise shedding
                    # amid the fault storm.
                    deadline_ms = 0.01 if i % 4 == 3 else None
                    future = service.submit(video, deadline_ms=deadline_ms)
                    with futures_lock:
                        futures.append(future)

            threads = [threading.Thread(target=client, args=(n,))
                       for n in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
                assert not t.is_alive()

            # Liveness: every single future resolves, each to a chain
            # result or a *typed* reliability error -- nothing hangs,
            # nothing leaks a bare RuntimeError.
            results = failures = 0
            for future in futures:
                exc = future.exception(timeout=30)
                if exc is None:
                    result = future.result(timeout=0)
                    assert isinstance(result, ChainResult)
                    assert result.label in (0, 1)
                    results += 1
                else:
                    assert isinstance(
                        exc, (FaultInjectedError, DeadlineExceededError))
                    failures += 1
            assert results > 0  # chaos did not take the service down

            snapshot = service.stats()
            assert snapshot.requests == len(futures) == 48
            assert (snapshot.completed + snapshot.failed + snapshot.shed
                    == snapshot.requests)
            assert snapshot.rejected == 0
            assert service.close(timeout=10) is True

        # The plan actually fired (the seed guarantees it at these
        # rates and volumes).
        assert any(c.faults for c in plan.counts().values())

    def test_shed_requests_spend_no_executor_work(self, pipeline,
                                                  video_pool):
        with StressService(pipeline) as service:
            with pytest.raises(DeadlineExceededError):
                # A zero budget has always expired by shed time.
                service.predict(video_pool[0], timeout=10, deadline_ms=0)
            snapshot = service.stats()
        assert snapshot.shed == 1
        assert snapshot.completed == 0 and snapshot.failed == 0
        assert snapshot.batches == 0  # no batch ever reached the executor

    def test_default_deadline_sheds_and_explicit_overrides(
            self, pipeline, video_pool):
        config = ServiceConfig(default_deadline_ms=5.0)
        with StressService(pipeline, config) as service:
            # Hold the worker on a first request so the next two wait
            # in the queue well past the 5 ms default.
            busy, release = threading.Event(), threading.Event()
            real_run_batch = service.executor.run_batch

            def gated_run_batch(videos):
                busy.set()
                release.wait(30)
                return real_run_batch(videos)

            service.executor.run_batch = gated_run_batch
            held = service.submit(video_pool[0], deadline_ms=60_000)
            assert busy.wait(30)
            defaulted = service.submit(video_pool[1])
            overridden = service.submit(video_pool[2], deadline_ms=60_000)
            time.sleep(0.05)
            release.set()
            held.result(30)
            assert isinstance(defaulted.exception(30), DeadlineExceededError)
            served = overridden.result(30)
            snapshot = service.stats()
        assert served.prob_stressed == pipeline.predict(
            video_pool[2]).prob_stressed
        assert snapshot.shed == 1
        assert snapshot.completed == 2 and snapshot.failed == 0

    def test_fault_schedule_is_deterministic(self, pipeline, video_pool):
        def signature(seed: int) -> list:
            out = []
            executor = ChainBatchExecutor(pipeline)
            with injected(FaultPlan(
                    [FaultSpec(site="serve.execute", rate=0.4)], seed=seed)):
                for video in video_pool:
                    outcomes, __ = executor.run_batch([video])
                    outcome = outcomes[0]
                    if isinstance(outcome, BaseException):
                        out.append(type(outcome).__name__)
                    else:
                        out.append((outcome.label, outcome.prob_stressed))
            return out

        first, second = signature(7), signature(7)
        assert first == second
        assert "FaultInjectedError" in first  # the schedule fired

    def test_zero_rate_plan_served_results_bitwise(self, pipeline,
                                                   video_pool):
        video = video_pool[0]
        baseline = pipeline.predict(video)
        plan = FaultPlan([
            FaultSpec(site="serve.execute", rate=0.0),
            FaultSpec(site="model.forward", rate=0.0),
        ])
        with injected(plan), StressService(pipeline) as service:
            served = service.predict(video, timeout=10)
        assert served.degraded is False
        assert served.label == baseline.label
        assert served.prob_stressed == baseline.prob_stressed
        assert served.rationale.au_ids == baseline.rationale.au_ids
        assert np.array_equal(served.description.to_vector(),
                              baseline.description.to_vector())


class TestBreakerChaos:
    def _config(self, **breaker_overrides):
        # threshold 0.6: the warm-up success plus two injected failures
        # trips ([T,F,F] = 0.67), but one failure alone ([T,F] = 0.5)
        # does not -- the trip point in these tests is exact.
        breaker = dict(window=4, failure_threshold=0.6, min_volume=2,
                       open_duration_s=60.0, half_open_probes=2)
        breaker.update(breaker_overrides)
        return ServiceConfig(max_batch_size=1,
                             breaker=BreakerConfig(**breaker))

    def test_open_breaker_serves_cached_degraded(self, pipeline, video_pool):
        warm, cold = video_pool[0], video_pool[1]
        plan = FaultPlan([FaultSpec(site="serve.execute", rate=1.0)], seed=3)
        with StressService(pipeline, self._config()) as service:
            reference = service.predict(warm, timeout=10)  # fills caches

            with injected(plan):
                for _ in range(2):
                    with pytest.raises(FaultInjectedError):
                        service.predict(warm, timeout=10)
                assert service.breaker.state == OPEN

                hits_before = plan.counts()["serve.execute"].hits
                degraded = service.predict(warm, timeout=10)
                # Answered from cache alone: flagged, correct, and the
                # executor (whose fault site would have fired at rate
                # 1.0) was never touched.
                assert degraded.degraded is True
                assert degraded.label == reference.label
                assert degraded.prob_stressed == reference.prob_stressed
                assert plan.counts()["serve.execute"].hits == hits_before

                with pytest.raises(CircuitOpenError):
                    service.predict(cold, timeout=10)

            snapshot = service.stats()
            assert snapshot.breaker_state == OPEN
            assert snapshot.degraded == 1

    def test_open_breaker_without_degraded_mode_fails_cached(
            self, pipeline, video_pool):
        warm = video_pool[0]
        config = dataclasses.replace(self._config(), degraded_mode=False)
        plan = FaultPlan([FaultSpec(site="serve.execute", rate=1.0)], seed=3)
        with StressService(pipeline, config) as service:
            service.predict(warm, timeout=10)  # fills caches
            with injected(plan):
                for _ in range(2):
                    with pytest.raises(FaultInjectedError):
                        service.predict(warm, timeout=10)
                assert service.breaker.state == OPEN
                with pytest.raises(CircuitOpenError):
                    service.predict(warm, timeout=10)
            snapshot = service.stats()
        assert snapshot.degraded == 0
        assert snapshot.failed == 3

    def test_breaker_recovers_through_half_open(self, pipeline, video_pool):
        video = video_pool[0]
        config = self._config(open_duration_s=0.05)
        plan = FaultPlan([FaultSpec(site="serve.execute", rate=1.0)], seed=3)
        with StressService(pipeline, config) as service:
            with injected(plan):
                for _ in range(2):
                    with pytest.raises(FaultInjectedError):
                        service.predict(video, timeout=10)
            # Faults gone, but the circuit is still open: the cold
            # request fails fast until the cooldown elapses...
            with pytest.raises(CircuitOpenError):
                service.predict(video_pool[2], timeout=10)
            time.sleep(0.06)
            # ...then half-open probes succeed and close the circuit.
            for _ in range(2):
                result = service.predict(video, timeout=10)
                assert result.degraded is False
            assert service.breaker.state == CLOSED
            assert service.predict(video, timeout=10).label in (0, 1)


# ----------------------------------------------------------------------
# Training interruption (hard kill)
# ----------------------------------------------------------------------

#: One source of truth for the subprocess and the in-process resume.
#: Mirrors tests/test_training_checkpoint.py's tiny-but-complete run.
_TINY_SETUP = textwrap.dedent("""
    from repro.datasets import (
        build_instruction_pairs, generate_disfa, generate_uvsd)
    from repro.training.self_refine import SelfRefineConfig

    config = SelfRefineConfig(
        describe_epochs=8, assess_epochs=10, refine_sample_limit=4,
        num_trials=2, num_rationale_candidates=2, max_reflection_rounds=2,
        seed=11)
    data = generate_uvsd(seed=11, num_samples=16, num_subjects=4)
    pairs = build_instruction_pairs(
        generate_disfa(seed=11, num_samples=20, num_subjects=4))
""")

_KILL_SCRIPT = _TINY_SETUP + textwrap.dedent("""
    import os, sys
    import repro.reliability.checkpoint as ckpt
    from repro.training.trainer import train_stress_model

    kill_after = int(sys.argv[1])
    original = ckpt.TrainingCheckpointer.save_stage

    def save_then_die(self, stage_index, *args, **kwargs):
        path = original(self, stage_index, *args, **kwargs)
        if stage_index >= kill_after:
            # SIGKILL-equivalent: no finally blocks, no atexit, the
            # process just stops with the checkpoint already fsynced.
            os._exit(9)
        return path

    ckpt.TrainingCheckpointer.save_stage = save_then_die
    train_stress_model(data, pairs, config, checkpoint_dir=sys.argv[2])
    sys.exit(3)  # unreachable: the kill must fire first
""")


@pytest.fixture(scope="module")
def tiny_training():
    namespace = {}
    exec(_TINY_SETUP, namespace)  # noqa: S102 - same literals as subprocess
    return namespace["config"], namespace["data"], namespace["pairs"]


@pytest.fixture(scope="module")
def uninterrupted(tiny_training):
    from repro.training.trainer import train_stress_model

    config, data, pairs = tiny_training
    return train_stress_model(data, pairs, config)


class TestKilledTrainingResumes:
    @pytest.mark.parametrize("kill_after", [0, 2, 4])
    def test_resume_after_hard_kill_is_bitwise_identical(
            self, kill_after, tiny_training, uninterrupted, tmp_path):
        from repro.training.trainer import train_stress_model

        config, data, pairs = tiny_training
        script = tmp_path / "kill_training.py"
        script.write_text(_KILL_SCRIPT)
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        env.pop("REPRO_FAULTS", None)  # chaos env must not leak in
        proc = subprocess.run(
            [sys.executable, str(script), str(kill_after),
             str(tmp_path / "ckpt")],
            capture_output=True, text=True, timeout=300, env=env)
        assert proc.returncode == 9, proc.stderr

        # The kill landed right after stage ``kill_after``'s checkpoint.
        saved = sorted((tmp_path / "ckpt").glob("stage_*.npz"))
        assert len(saved) == kill_after + 1

        model, report = uninterrupted
        resumed_model, resumed_report = train_stress_model(
            data, pairs, config, checkpoint_dir=str(tmp_path / "ckpt"))
        state, resumed_state = model.state_dict(), resumed_model.state_dict()
        assert state.keys() == resumed_state.keys()
        for name in state:
            assert np.array_equal(state[name], resumed_state[name]), name
        assert resumed_report == report
