"""Observability: tracing spans, the metrics registry, profiling
hooks, and the zero-perturbation guarantee (tracing on == tracing off,
bitwise)."""

from __future__ import annotations

import json
import os
import sys
import threading

import pytest

from repro.cot.chain import StressChainPipeline
from repro.evaluation.parallel import parallel_map
from repro.model.foundation import FoundationModel
from repro.observability import profiling, tracing
from repro.observability.metrics import MetricsRegistry, global_metrics
from repro.observability.tracing import (
    JsonlExporter,
    ListExporter,
    install_exporter,
    span,
    uninstall_exporter,
)
from repro.rng import make_rng
from repro.serving import ReplicaPool
from repro.training.self_refine import SelfRefineConfig
from repro.training.trainer import train_stress_model


@pytest.fixture(autouse=True)
def _isolated_tracing():
    """Detach any ambient exporter (e.g. the CI job's REPRO_TRACE
    JSONL sink) so every test starts from tracing-disabled, and
    restore it afterwards."""
    previous = uninstall_exporter()
    try:
        yield
    finally:
        uninstall_exporter()
        if previous is not None:
            install_exporter(previous)


@pytest.fixture()
def exporter():
    """A fresh ListExporter installed for the test, removed after."""
    exp = ListExporter()
    install_exporter(exp)
    try:
        yield exp
    finally:
        uninstall_exporter()


class TestSpans:
    def test_disabled_span_is_shared_noop(self):
        assert not tracing.enabled()
        sp = span("anything", key="value")
        assert sp is span("other")
        with sp as inner:
            inner.add("work", 3)
            inner.set("late", 1)  # must not raise, must not record

    def test_span_record_fields(self, exporter):
        with span("stage.one", mode="test") as sp:
            sp.add("gemm", 2)
            sp.add("gemm")
            sp.set("late", 5)
        (record,) = exporter.records
        assert record["name"] == "stage.one"
        assert record["duration_s"] >= 0.0
        assert record["attrs"] == {"mode": "test", "late": 5}
        assert record["counters"] == {"gemm": 3}
        assert "parent" not in record

    def test_nesting_sets_parent_and_depth(self, exporter):
        with span("outer"):
            with span("inner"):
                pass
        inner, outer = exporter.records
        assert inner["parent"] == "outer"
        assert inner["depth"] == 1
        assert outer["depth"] == 0

    def test_exception_marks_span_and_propagates(self, exporter):
        with pytest.raises(ValueError):
            with span("failing"):
                raise ValueError("boom")
        (record,) = exporter.records
        assert record["error"] == "ValueError"

    def test_thread_local_stacks_do_not_interleave(self, exporter):
        barrier = threading.Barrier(2)

        def work(name: str) -> None:
            with span(name):
                barrier.wait()
                with span(f"{name}.child"):
                    pass

        threads = [threading.Thread(target=work, args=(f"t{i}",))
                   for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        parents = {r["name"]: r.get("parent") for r in exporter.records}
        assert parents["t0.child"] == "t0"
        assert parents["t1.child"] == "t1"

    def test_jsonl_exporter_round_trips(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        install_exporter(JsonlExporter(str(path)))
        try:
            with span("a", n=1):
                with span("b"):
                    pass
        finally:
            uninstall_exporter().close()
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert [line["name"] for line in lines] == ["b", "a"]

    def test_configure_from_env(self, tmp_path, monkeypatch):
        path = tmp_path / "env-trace.jsonl"
        monkeypatch.setenv(tracing.TRACE_ENV, str(path))
        assert tracing.configure_from_env()
        try:
            with span("env.span"):
                pass
        finally:
            uninstall_exporter().close()
        assert json.loads(path.read_text())["name"] == "env.span"


def _traced_child_work(item: int) -> int:
    for step in range(100):
        with span("fork.child", item=item, step=step):
            pass
    return item


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
class TestForkSafeTraces:
    def test_forked_children_write_every_span_exactly_once(
            self, tmp_path, micro_split):
        """A fork inherits neither the parent's unwritten buffer (its
        spans would be written once per child) nor loses the child's
        own tail (children leave through ``os._exit``) -- for the
        fold map's bare forks and for a process replica pool alike."""
        path = tmp_path / "fork-trace.jsonl"
        install_exporter(JsonlExporter(str(path)))
        videos = [sample.video for sample in micro_split[1][:4]]
        try:
            for index in range(5):
                with span("fork.parent", index=index):
                    pass
            items = list(range(6))
            assert parallel_map(_traced_child_work, items,
                                num_workers=2) == items
            for index in range(5, 10):
                with span("fork.parent", index=index):
                    pass
            pipeline = StressChainPipeline(
                FoundationModel(make_rng(5, "fork-trace")))
            with ReplicaPool(pipeline, num_replicas=2) as pool:
                for video in videos + videos:
                    pool.predict(video, timeout=60)
        finally:
            uninstall_exporter().close()
        records = [json.loads(line)
                   for line in path.read_text().splitlines()]
        parent = sorted(r["attrs"]["index"] for r in records
                        if r["name"] == "fork.parent")
        assert parent == list(range(10))
        child = sorted((r["attrs"]["item"], r["attrs"]["step"])
                       for r in records if r["name"] == "fork.child")
        assert child == [(item, step) for item in items
                         for step in range(100)]
        # Each served request is routed once in the parent.  A clip's
        # first request reaches a batch, whose miss runs the chain once
        # in a child; its repeat is a chain-cache hit, answered at
        # submit, so it reaches no batch and runs no chain.
        names = [r["name"] for r in records]
        assert len({video.content_hash for video in videos}) == len(videos)
        assert names.count("pool.route") == 2 * len(videos)
        assert sum(r["attrs"]["size"] for r in records
                   if r["name"] == "serve.execute_batch") == len(videos)
        assert names.count("chain.assess") == len(videos)


class TestMetricsRegistry:
    def test_counter_gauge_histogram(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.counter("c").inc(4)
        registry.gauge("g").set(2.5)
        for value in (1.0, 2.0, 3.0, 4.0):
            registry.histogram("h").observe(value)
        snap = registry.snapshot()
        assert snap.counters["c"] == 5
        assert snap.gauges["g"] == 2.5
        hist = snap.histograms["h"]
        assert hist.count == 4
        assert hist.mean == pytest.approx(2.5)
        assert hist.p50 == 3.0  # ceil rule: even window resolves up
        assert hist.max == 4.0

    def test_histogram_window_is_bounded(self):
        registry = MetricsRegistry()
        hist = registry.histogram("bounded", window=10)
        for value in range(100):
            hist.observe(float(value))
        snap = hist.snapshot()
        assert snap.count == 100          # lifetime count survives
        assert snap.p50 >= 90.0           # window holds the last 10

    def test_snapshot_isolation(self):
        """A snapshot is a full copy: later mutation never shows."""
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.histogram("h").observe(1.0)
        snap = registry.snapshot()
        registry.counter("c").inc(100)
        registry.histogram("h").observe(99.0)
        registry.gauge("new").set(1.0)
        assert snap.counters["c"] == 1
        assert snap.histograms["h"].count == 1
        assert "new" not in snap.gauges

    def test_snapshot_under_concurrent_recorders(self):
        registry = MetricsRegistry()
        stop = threading.Event()

        def hammer() -> None:
            while not stop.is_set():
                registry.counter("hits").inc()
                registry.histogram("lat").observe(0.5)
                registry.gauge("depth").set(3)

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for thread in threads:
            thread.start()
        try:
            for _ in range(100):
                snap = registry.snapshot()
                assert snap.counters.get("hits", 0) >= 0
                hist = snap.histograms.get("lat")
                if hist is not None and hist.count:
                    assert hist.p50 == 0.5
        finally:
            stop.set()
            for thread in threads:
                thread.join()

    def test_global_registry_is_shared(self):
        assert global_metrics() is global_metrics()


class TestRegistryParentLink:
    """A registry made with ``parent=`` is a scope: its records also
    land in the parent's instrument of the same name."""

    def test_child_records_land_in_child_and_parent(self):
        parent = MetricsRegistry()
        child = MetricsRegistry(parent=parent)
        child.counter("c").inc(3)
        child.histogram("h", window=2).observe(1.0)
        child.histogram("h").observe_many([2.0, 3.0])
        for snap in (child.snapshot(), parent.snapshot()):
            assert snap.counters["c"] == 3
            assert snap.histograms["h"].count == 3
            assert snap.histograms["h"].total == 6.0
        # The child's window is its own; the parent keeps the default.
        assert child.snapshot().histograms["h"].p50 == 3.0
        assert parent.snapshot().histograms["h"].p50 == 2.0
        # Records flow up, never down.
        parent.counter("c").inc()
        assert child.counter("c").value == 3
        assert parent.counter("c").value == 4

    def test_siblings_keep_separate_snapshots(self):
        parent = MetricsRegistry()
        a = MetricsRegistry(parent=parent)
        b = MetricsRegistry(parent=parent)
        a.counter("c").inc(2)
        b.counter("c").inc(5)
        a.histogram("h").observe_many([1.0, 2.0])
        b.histogram("h").observe(3.0)
        snap_a, snap_b = a.snapshot(), b.snapshot()
        assert (snap_a.counters["c"], snap_b.counters["c"]) == (2, 5)
        assert (snap_a.histograms["h"].count,
                snap_b.histograms["h"].count) == (2, 1)
        folded = parent.snapshot()
        assert folded.counters["c"] == 7
        assert folded.histograms["h"].count == 3
        assert folded.histograms["h"].total == 6.0

    def test_parent_counters_equal_sum_of_children_under_threads(self):
        parent = MetricsRegistry()
        children = [MetricsRegistry(parent=parent) for _ in range(4)]
        per_thread, num_threads = 500, 8
        start = threading.Barrier(num_threads + 1)

        def hammer(thread_index: int) -> None:
            # Two threads share each child, so child instruments are
            # contended as well as the parent's.
            child = children[thread_index % len(children)]
            start.wait(30)
            for i in range(per_thread):
                child.counter("a").inc()
                child.counter("b").inc(i % 3)
                child.histogram("h").observe(float(i % 7))

        threads = [threading.Thread(target=hammer, args=(t,))
                   for t in range(num_threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads mid-record often
        try:
            for thread in threads:
                thread.start()
            start.wait(30)
            for _ in range(50):
                # Each record reaches the child before the parent, so
                # the parent read first never exceeds the children
                # read after.
                folded = parent.counter("a").value
                assert folded <= sum(c.counter("a").value
                                     for c in children)
            for thread in threads:
                thread.join(60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)

        folded = parent.snapshot()
        snaps = [child.snapshot() for child in children]
        for name in ("a", "b"):
            assert folded.counters[name] == sum(
                snap.counters[name] for snap in snaps)
        assert folded.counters["a"] == per_thread * num_threads
        assert folded.histograms["h"].count == sum(
            snap.histograms["h"].count for snap in snaps)
        assert folded.histograms["h"].total == pytest.approx(sum(
            snap.histograms["h"].total for snap in snaps))


def _chain_outputs(seed_tag: str, videos):
    model = FoundationModel(make_rng(11, seed_tag))
    pipeline = StressChainPipeline(model)
    return [pipeline.predict(video) for video in videos]


class TestZeroPerturbation:
    def test_tracing_does_not_change_chain_outputs(self, micro_split):
        """The bitwise guarantee: spans read only monotonic clocks, so
        enabling tracing must not move any seeded RNG stream."""
        __, test = micro_split
        videos = [sample.video for sample in test[:6]]
        baseline = _chain_outputs("zero-perturb", videos)
        install_exporter(ListExporter())
        try:
            traced = _chain_outputs("zero-perturb", videos)
        finally:
            uninstall_exporter()
        for a, b in zip(baseline, traced):
            assert a.label == b.label
            assert a.prob_stressed == b.prob_stressed
            assert a.description == b.description
            assert a.rationale.au_ids == b.rationale.au_ids
            assert a.session.turns == b.session.turns


class TestTrainingAndChainSpans:
    def test_full_train_and_predict_trace_covers_all_stages(
            self, micro_split, instruction_pairs, exporter):
        """The acceptance sweep: one traced train_stress_model run plus
        one traced predict contains spans for all four training stages
        and all three chain stages, with model-work counters."""
        train, test = micro_split
        config = SelfRefineConfig(
            describe_epochs=3, assess_epochs=4, refine_sample_limit=3,
            num_trials=2, num_rationale_candidates=2,
            dpo_desc_epochs=1, dpo_rationale_epochs=1, seed=5,
        )
        model, __ = train_stress_model(train, instruction_pairs[:20],
                                       config)
        pipeline = StressChainPipeline(model)
        pipeline.predict(test[0].video)

        names = [record["name"] for record in exporter.records]
        for stage in ("train.describe_tuning", "train.description_refinement",
                      "train.assess_tuning", "train.rationale_refinement",
                      "train.fit", "chain.describe", "chain.assess",
                      "chain.highlight"):
            assert stage in names, f"missing span {stage!r} in {set(names)}"
        # Stage spans nest under the root training span.
        by_name = {r["name"]: r for r in exporter.records}
        assert by_name["train.describe_tuning"]["parent"] == "train.fit"
        # Profiling hooks attributed model work to the chain spans:
        # the one trunk pass to Describe, the head GEMMs to each stage.
        describe = by_name["chain.describe"]
        assert describe["counters"][profiling.EMBED] == 1
        for stage in ("chain.assess", "chain.highlight"):
            counters = by_name[stage]["counters"]
            assert counters[profiling.GEMM] >= 1
            assert profiling.EMBED not in counters


class TestProfilingHooks:
    def test_counts_require_tracing(self):
        assert not profiling.enabled()
        profiling.count(profiling.GEMM)  # must be a silent no-op

    def test_counts_attach_to_current_span(self, exporter):
        with span("work"):
            profiling.count(profiling.GEMM, 2)
            profiling.count(profiling.GEMM)
        assert exporter.records[0]["counters"] == {profiling.GEMM: 3}

    def test_count_outside_any_span_is_dropped(self, exporter):
        profiling.count(profiling.GEMM)
        assert exporter.records == []
